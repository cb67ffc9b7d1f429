"""Metamorphic laws of the recovery: two systems whose blocks are related
exactly must report invariants related by a known law, with no closed form.

- Scale (ROADMAP item 15): a coupled block depends only on (n1, n2, t),
  ni = 2 k ri, so (c r1, c r2, t) at k has the blocks of (r1, r2, t) at
  c k, with J values c times larger.  The run with the smaller radii takes
  twice the default k and half the default offsets (in J units), so both
  runs read the same eigenvalues; the laws follow from
  f_r,c(X, Y) = c f_r(X / c, Y).
- H -> 2 H (ROADMAP item 22): (J, 2 H) is semitoric-isomorphic to (J, H).
  Doubling each block doubles its eigenvalues bit for bit, so the order-0
  and order-1 leaves keep their bits or scale by a power of two exactly.

The order-2 leaves and ``quadratic_mixed`` break both laws today: a
``mu_list`` entry is a ray slope in raw (J, H) units, and the per-mu cap in
``recover_all`` compares an H offset with a J offset.  Each is a strict
xfail, so a fix shows as an XPASS.
"""

import math

import pytest

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.config import ProbeConfig
from semitoric.pipeline import recover_all

COUPLED = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)
SCALED = {2.0: ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=2.0, r2=5.0, t=0.5),
          0.5: ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=0.5, r2=1.25, t=0.5)}

# report leaf -> its value at (c r1, c r2, t) from its value v at (r1, r2, t)
SCALE_LAWS = {
    ("focus_focus", 0): lambda v, c: c * v,
    ("other_critical_abscissae", 0): lambda v, c: c * v,
    ("fr_jet", "1,0"): lambda v, c: v,
    ("fr_jet", "0,1"): lambda v, c: c * v,
    ("radial_slope",): lambda v, c: v / c,
    ("sigma1_0",): lambda v, c: v,
    ("twisting_p",): lambda v, c: v,
    ("S", "0,0"): lambda v, c: c * v,
    ("S", "0,1"): lambda v, c: v + math.log(c) / (2 * math.pi),
    ("S", "1,0"): lambda v, c: v,
}
SCALE_LAWS_ORDER_2 = {
    ("fr_jet", "2,0"): lambda v, c: v / c,
    ("fr_jet", "1,1"): lambda v, c: v,
    ("fr_jet", "0,2"): lambda v, c: c * v,
    ("S", "2,0"): lambda v, c: v / c,
    ("S", "1,1"): lambda v, c: v / c,
    ("S", "0,2"): lambda v, c: v / c,
    ("quadratic_mixed", "dxdy_fr"): lambda v, c: v,
    ("quadratic_mixed", "S11"): lambda v, c: v / c,
}

# report leaf -> its value for (J, 2 H) from its value v for (J, H)
DOUBLE_H_LAWS = {
    ("focus_focus", 0): lambda v: v,
    ("focus_focus", 1): lambda v: 2 * v,
    ("other_critical_abscissae",): lambda v: v,
    ("fr_jet", "1,0"): lambda v: v,
    ("fr_jet", "0,1"): lambda v: v / 2,
    ("radial_slope",): lambda v: 2 * v,
    ("sigma1_0",): lambda v: v,
    ("twisting_p",): lambda v: v,
    ("S", "0,0"): lambda v: v,
    ("S", "0,1"): lambda v: v,
    ("S", "1,0"): lambda v: v,
}
# the second-order chain rule of f_r(X, Y / 2); the S leaves are invariants
DOUBLE_H_LAWS_ORDER_2 = {
    ("fr_jet", "2,0"): lambda v: v,
    ("fr_jet", "1,1"): lambda v: v / 2,
    ("fr_jet", "0,2"): lambda v: v / 4,
    ("S", "2,0"): lambda v: v,
    ("S", "1,1"): lambda v: v,
    ("S", "0,2"): lambda v: v,
    ("quadratic_mixed", "dxdy_fr"): lambda v: v / 2,
    ("quadratic_mixed", "S11"): lambda v: v,
}

_RAW_UNIT_MU = ("a mu_list entry is a ray slope in raw (J, H) units and the per-mu "
                "cap compares an H offset with a J offset")


def _leaf(report, path):
    for key in path:
        report = report[key]
    return report


def _cases(laws, order_2, item):
    xfail = pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {_RAW_UNIT_MU}")
    return ([pytest.param(p, law, id="/".join(map(str, p))) for p, law in laws.items()]
            + [pytest.param(p, law, id="/".join(map(str, p)), marks=xfail)
               for p, law in order_2.items()])


def _doubled_k_halved_offsets() -> ProbeConfig:
    """The default schedules at twice each k and half each offset."""
    default = ProbeConfig()
    return ProbeConfig(k_list=[2 * k for k in default.k_list],
                       x_schedule=[x / 2 for x in default.x_schedule],
                       x_taylor=[x / 2 for x in default.x_taylor])


@pytest.fixture(scope="module", params=[2.0, 0.5], ids=["c=2", "c=1/2"])
def scaled_pair(request, coupled_report):
    """(c, report of (1, 5/2, 1/2), report of (c, 5c/2, 1/2)), the run with
    the smaller radii at doubled k and halved offsets."""
    c = request.param
    if c > 1:
        return c, recover_all(COUPLED, _doubled_k_halved_offsets()), recover_all(SCALED[c])
    return c, coupled_report, recover_all(SCALED[c], _doubled_k_halved_offsets())


@pytest.mark.slow
@pytest.mark.parametrize("path, law", _cases(SCALE_LAWS, SCALE_LAWS_ORDER_2, 15))
def test_scale_law(scaled_pair, path, law):
    # focus_focus[1] is left out: each run locates it at the smallest
    # multiple of its least k that is at least 200, a different effective k
    c, base, scaled = scaled_pair
    assert _leaf(scaled, path) == pytest.approx(law(_leaf(base, path), c), rel=1e-9)


def _doubled_h(model: ModelSpec) -> ModelSpec:
    """model with H -> 2 H: each block's (diag, offdiag) doubled."""
    class DoubledH(type(model)):
        def _block(self, k, block_id):
            diag, offdiag = super()._block(k, block_id)
            return 2 * diag, 2 * offdiag

    return DoubledH(model.kind, r1=model.r1, r2=model.r2, t=model.t)


@pytest.fixture(scope="module", params=[SPIN_OSCILLATOR, COUPLED_ANGULAR_MOMENTA],
                ids=["spin", "coupled"])
def doubled_pair(request):
    """(report of the default model, report of it with H -> 2 H)."""
    if request.param == SPIN_OSCILLATOR:
        model, report = ModelSpec(SPIN_OSCILLATOR), request.getfixturevalue("spin_report")
    else:
        model, report = COUPLED, request.getfixturevalue("coupled_report")
    return report, recover_all(_doubled_h(model))


@pytest.mark.slow
@pytest.mark.parametrize("path, law", _cases(DOUBLE_H_LAWS, DOUBLE_H_LAWS_ORDER_2, 22))
def test_double_h_law(doubled_pair, path, law):
    report, doubled = doubled_pair
    if path in DOUBLE_H_LAWS:
        assert _leaf(doubled, path) == law(_leaf(report, path))
    else:
        assert _leaf(doubled, path) == pytest.approx(law(_leaf(report, path)), rel=1e-9)
