import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.config import ProbeConfig
from semitoric.errors import MissingNeighbor, SignError
from semitoric.lattice import PointCloud, label_semitoric
from semitoric.invariants import (
    FrJet,
    LabelledSpectrum,
    recover_S01,
    ray_samples,
    recover_fr_gradient,
    recover_sigma1,
)
from semitoric.pipeline import build_probe_family


def grid_spectrum(k, alpha, beta, x_range=(-0.4, 0.4), y_range=(-0.4, 0.4)):
    """Labelled lattice with chart G0(xi) = (xi1, alpha xi1 + beta xi2):
    the inverse Jacobian has a1 = -alpha/beta, a2 = 1/beta."""
    h = 1.0 / k
    js = range(int(x_range[0] / h), int(x_range[1] / h) + 1)
    ls = np.arange(int(y_range[0] / h), int(y_range[1] / h) + 1)
    return LabelledSpectrum(k, {j: h * j for j in js},
                            lambda j: (ls, alpha * h * j + beta * h * ls))


def test_identity_chart_a1_a2():
    ls = grid_spectrum(20, 0.0, 1.0)
    a1, a2 = ls.a1a2_anchored((0, 0))
    assert a1 == pytest.approx(0.0, abs=1e-12)
    assert a2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.7, 1.3), (-0.4, 0.8)])
def test_linear_chart_inverse_jacobian(alpha, beta):
    ls = grid_spectrum(50, alpha, beta)
    a1, a2 = ls.a1a2_anchored((2, -1))
    assert a2 == pytest.approx(1.0 / beta, rel=1e-9)
    assert a1 == pytest.approx(-alpha / beta, rel=1e-9)
    a1, a2 = ls.a1a2_interpolated((2.5 / 50, 0.01))
    assert a2 == pytest.approx(1.0 / beta, rel=1e-8)
    assert a1 == pytest.approx(-alpha / beta, rel=1e-6, abs=1e-9)


def two_columns(ys0, ys1, k=10):
    """Columns j = 0, 1 with the given ladders, labelled l = 0, 1, ..."""
    return LabelledSpectrum(k, {0: 0.0, 1: 1.0 / k},
                            lambda j: (np.arange(len(ys0)), (ys0, ys1)[j]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=12),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(0.0, 1.0))
def test_interpolation_reproduces_cubics(gaps, coeffs, t):
    # column 1 sits below column 0 by p(height) for a cubic p, so the row
    # difference interpolated at y must be p(y) exactly; |p'| <= 0.6 on
    # [-1, 1] keeps column 1 ascending
    nodes = np.concatenate([[0.0], np.cumsum(gaps)])
    nodes = 2.0 * nodes / nodes[-1] - 1.0
    p = np.polynomial.Polynomial(0.1 * np.asarray(coeffs))
    y = -1.0 + 2.0 * t
    spec = two_columns(nodes, nodes - p(nodes))
    a1, a2 = spec.a1a2_interpolated((0.0, y))
    assert a1 / a2 * spec.hbar == pytest.approx(p(y), abs=1e-9)


def test_interpolation_has_no_tie_on_symmetric_nodes():
    # the nodes are exactly symmetric about y = 1 in floating point, so a
    # stencil chosen by distance to y would be picked by y's last bit
    y = 1.0
    ys0 = y + np.array([-2.5, -1.5, -0.75, -0.25, 0.25, 0.75, 1.5, 2.5])
    spec = two_columns(ys0, ys0 - 0.05 * np.sin(ys0))
    at = spec.a1a2_interpolated((0.0, y))
    for step in (np.inf, -np.inf):
        near = spec.a1a2_interpolated((0.0, np.nextafter(y, step)))
        assert near == pytest.approx(at, abs=1e-12)


def test_spin_probe_ignores_subulp_noise_in_height():
    # every spin-oscillator column is symmetric under H -> -H, so its ladder
    # is symmetric about the probe height y = 0
    family = build_probe_family(ModelSpec(SPIN_OSCILLATOR), (1.0, 0.0),
                                ProbeConfig(k_list=[200], x_schedule=[0.01]))
    sp = family[200]
    x = sp.origin[0] + 0.01
    a1 = [sp.a1a2_interpolated((x, y))[0] for y in (0.0, 1e-18, -1e-18)]
    assert a1[1] == pytest.approx(a1[0], abs=1e-12)
    assert a1[2] == pytest.approx(a1[0], abs=1e-12)


def test_missing_neighbor():
    ls = grid_spectrum(10, 0.0, 1.0)
    top = ls.ladder(0)[0].max()
    with pytest.raises(MissingNeighbor):
        ls.a1a2_anchored((0, top))
    # an infinite vertical spacing gives a2 = 0: the probe is not regular
    gap = two_columns(np.array([0.0, np.inf]), np.array([-0.1, np.inf]))
    with pytest.raises(MissingNeighbor, match="zero vertical spacing"):
        gap.a1a2_anchored((0, 0))


@pytest.mark.parametrize("model,origin", [
    (ModelSpec(SPIN_OSCILLATOR), (1.0, 0.0)),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), (-1.5, 0.0)),
], ids=["spin-oscillator", "coupled"])
def test_block_labels_are_column_transport_labels(model, origin):
    # J's spectrum is an exact hbar-lattice of columns, so the probe family's
    # (sign * block, idx) labels are the column-transport labels of the same
    # points up to one translation
    family = build_probe_family(model, origin, ProbeConfig(k_list=[40, 80]))
    for k, sp in family.items():
        ladders = {j: sp.ladder(j) for j in sp.column_x}
        pts = np.concatenate([np.column_stack((np.full(len(ys), sp.column_x[j]), ys))
                              for j, (_, ys) in ladders.items()])
        labels = np.concatenate([np.column_stack((np.full(len(ls), j), ls))
                                 for j, (ls, _) in ladders.items()])
        cloud = PointCloud(k, pts)
        _, transport, idx = label_semitoric(cloud, seed_x=pts[:, 0].max()).arrays(cloud)
        shift = transport - labels[idx]
        assert len(shift) > 300
        assert (shift == shift[0]).all()


# -- manufactured spectra with a prescribed normal form ----------------------

class ManufacturedFamily(dict):
    """Family stub whose spacing functionals follow the smooth-extension
    model exactly: a2 = (sigma2 - ln|w|/2pi) dy f_r, a1 = sigma1
    - arg(w)/2pi + (same) dx f_r, with w = x + i f_r(x, y)."""

    def __init__(self, jet: FrJet, s10, s01, ks):
        super().__init__()
        self.jet = jet
        self.s10, self.s01 = s10, s01
        for k in ks:
            self[k] = _ManufacturedSpectrum(self, k)


class _ManufacturedSpectrum:
    def __init__(self, fam, k):
        self.fam = fam
        self.k = k
        self.origin = (0.0, 0.0)

    def a1a2_interpolated(self, c):
        x, y = c
        jet = self.fam.jet
        fr = sum(v * x ** a * y ** b / (math.factorial(a) * math.factorial(b))
                 for (a, b), v in jet.derivs.items())
        dxf = sum(v * a * x ** (a - 1) * y ** b / (math.factorial(a) * math.factorial(b))
                  for (a, b), v in jet.derivs.items() if a >= 1)
        dyf = sum(v * b * x ** a * y ** (b - 1) / (math.factorial(a) * math.factorial(b))
                  for (a, b), v in jet.derivs.items() if b >= 1)
        w = x + 1j * fr
        tau2 = self.fam.s01 - np.log(abs(w)) / (2 * np.pi)
        tau1 = self.fam.s10 - np.angle(w) / (2 * np.pi)
        a2 = tau2 * dyf
        a1 = tau1 + tau2 * dxf
        # O(hbar) imperfection so the extrapolation has work to do
        a1 += 0.3 / self.k
        a2 -= 0.2 / self.k
        return a1, a2


JET01 = FrJet({(1, 0): 0.0, (0, 1): 1.0})


def test_manufactured_gradient_01():
    fam = ManufacturedFamily(JET01, s10=0.25, s01=0.4, ks=[100, 200, 300, 400])
    dx, dy, _ = recover_fr_gradient(fam, 0.01, mu=2.0)
    assert dx == pytest.approx(0.0, abs=2e-3)
    assert dy == pytest.approx(1.0, abs=5e-3)


def test_manufactured_gradient_generic():
    jet = FrJet({(1, 0): -0.5, (0, 1): 2.5})
    fam = ManufacturedFamily(jet, s10=0.1, s01=0.7, ks=[100, 200, 300, 400])
    dx, dy, _ = recover_fr_gradient(fam, 0.01, mu=2.0)
    assert dx == pytest.approx(-0.5, abs=2e-2)
    assert dy == pytest.approx(2.5, abs=2e-2)


def test_manufactured_sigma1_and_s01():
    jet = FrJet({(1, 0): -0.5, (0, 1): 2.5})
    fam = ManufacturedFamily(jet, s10=0.3, s01=0.65, ks=[100, 200, 300, 400])
    s0 = jet.slope_s0
    ks, xs = sorted(fam), [0.04, 0.03, 0.02, 0.01]
    a1, a2 = ray_samples(fam, s0, xs)
    sig, _ = recover_sigma1(ks, xs, a1, a2, s0)
    assert sig == pytest.approx(0.3, abs=5e-3)
    s01, _ = recover_S01(ks, xs, a2, 2.5)
    assert s01 == pytest.approx(0.65, abs=5e-3)


def test_gradient_sign_error():
    jet = FrJet({(1, 0): 0.0, (0, 1): 1.0})

    class FlippedSpectrum(_ManufacturedSpectrum):
        def a1a2_interpolated(self, c):
            a1, a2 = super().a1a2_interpolated(c)
            # wrong-sign logarithm: recovered dy f_r comes out negative
            return a1, 2 * self.fam.s01 - a2

    base = ManufacturedFamily(jet, s10=0.0, s01=0.5, ks=[100, 200])
    fam = {k: FlippedSpectrum(base, k) for k in (100, 200)}
    with pytest.raises(SignError):
        recover_fr_gradient(fam, 0.01, mu=2.0)


def test_frjet_orientation():
    with pytest.raises(SignError):
        FrJet({(0, 1): -1.0})


def test_relabelling_covariance_manufactured():
    # shifting l -> l + n*j multiplies the action by a unipotent and shifts
    # sigma1 by exactly -n
    jet = FrJet({(1, 0): 0.0, (0, 1): 1.0})
    base = ManufacturedFamily(jet, s10=0.4, s01=0.6, ks=[100, 200, 300])

    class Sheared(_ManufacturedSpectrum):
        def __init__(self, fam, k, n):
            super().__init__(fam, k)
            self.n = n

        def a1a2_interpolated(self, c):
            a1, a2 = super().a1a2_interpolated(c)
            return a1 - self.n, a2

    for n in (-2, -1, 1, 2):
        fam = {k: Sheared(base, k, n) for k in (100, 200, 300)}
        a1, a2 = ray_samples(fam, 0.0, [0.02, 0.01])
        sig, _ = recover_sigma1(sorted(fam), [0.02, 0.01], a1, a2, 0.0)
        assert sig == pytest.approx(0.4 - n, abs=5e-3)


def test_taylor_invariant_bundle():
    from semitoric.invariants import TaylorInvariant

    t = TaylorInvariant(2.3, 2, {(0, 1): 0.5, (0, 0): 1.0})
    assert t.sigma1_privileged == pytest.approx(0.3)
    assert t.sigma2_0 == 0.5
    with pytest.raises(ValueError):
        TaylorInvariant(2.3, 1, {})
    assert TaylorInvariant(-3e-14, 0, {}).sigma1_privileged == -3e-14


@pytest.mark.parametrize("sigma1,p", [(-3e-14, 0), (2.8e-14, 0), (1 - 1e-13, 1),
                                      (2.3, 2), (-0.5, -1), (1 - 1e-8, 0)])
def test_twisting_number_reads_near_integers_as_integers(sigma1, p):
    from semitoric.invariants import twisting_number

    assert twisting_number(sigma1) == p
    assert type(twisting_number(sigma1)) is int
