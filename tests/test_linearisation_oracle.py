"""A classical oracle for the gradient of f_r at the focus-focus point,
and the recovered gradient graded against it over the coupling t.

In Eliasson's normal form near a focus-focus point, (J, H) = (q2, h(q1,
q2)) with q1 hyperbolic and q2 elliptic, and f_r(J, h(q1, J)) = q1.  The
linearised X_J acts by +i on a 2-dimensional complex eigenspace, on which
X_q1 acts by -1 and +1 and X_H = h_1 X_q1 + h_2 X_q2 by -h_1 + i h_2 and
h_1 + i h_2.  So the eigenvalue alpha + i beta with alpha > 0 gives
d_y f_r = 1/alpha and d_x f_r = -beta/alpha.  The linearisations commute
only for the right orientation of each sphere, which the oracle checks.
"""

import functools

import numpy as np
import pytest

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.pipeline import recover_all
from semitoric.reference import reference_invariants

_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])   # the Poisson matrix of a plane with {x, y} = 1


def fr_gradient(poisson, hess_j, hess_h) -> tuple[float, float]:
    """(d_x f_r, d_y f_r) from the 4x4 Poisson matrix and the Hessians of
    J and H at the focus-focus point, in the same local coordinates."""
    a_j, a_h = poisson @ hess_j, poisson @ hess_h
    assert np.allclose(a_j @ a_h, a_h @ a_j, atol=1e-12), "linearisations do not commute"
    w, v = np.linalg.eig(a_j)
    plus_i = v[:, np.isclose(w, 1j)]
    assert np.linalg.matrix_rank(plus_i) == 2
    # X_H keeps X_J's eigenspace: its 2x2 matrix there, in the basis plus_i
    restricted = np.linalg.lstsq(plus_i, a_h @ plus_i, rcond=None)[0]
    lam = [z for z in np.linalg.eigvals(restricted) if z.real > 0]
    assert len(lam) == 1
    alpha, beta = lam[0].real, lam[0].imag
    return -beta / alpha, 1.0 / alpha


def spin_gradient() -> tuple[float, float]:
    """J = (u^2+v^2)/2 + z and H = (ux + vy)/2 at u = v = 0, z = 1, in the
    coordinates (u, v, x, y); the sphere's bracket there is {x, y} = -1."""
    zero = np.zeros((2, 2))
    poisson = np.block([[_TURN, zero], [zero, -_TURN]])
    hess_h = np.zeros((4, 4))
    hess_h[0, 2] = hess_h[2, 0] = hess_h[1, 3] = hess_h[3, 1] = 0.5
    return fr_gradient(poisson, np.diag([1.0, 1.0, -1.0, -1.0]), hess_h)


def coupled_gradient(r1, r2, t) -> tuple[float, float]:
    """J = r1 z1 + r2 z2 and H = (1-t) z1 + t (x1 x2 + y1 y2 + z1 z2) at
    z1 = 1, z2 = -1, in the coordinates (x1, y1, x2, y2), with {x1, y1} =
    1/r1 at the first sphere's north pole and {x2, y2} = -1/r2 at the
    second's south pole."""
    one, zero = np.eye(2), np.zeros((2, 2))
    poisson = np.block([[_TURN / r1, zero], [zero, -_TURN / r2]])
    hess_j = np.block([[-r1 * one, zero], [zero, r2 * one]])
    hess_h = np.block([[(2 * t - 1) * one, t * one], [t * one, t * one]])
    return fr_gradient(poisson, hess_j, hess_h)


@pytest.mark.parametrize("model, gradient", [
    (ModelSpec(SPIN_OSCILLATOR), spin_gradient()),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), coupled_gradient(1.0, 2.5, 0.5)),
], ids=["spin", "coupled"])
def test_oracle_is_the_tabulated_gradient(model, gradient):
    ref = reference_invariants(model)
    assert gradient == pytest.approx((ref["dx_fr"], ref["dy_fr"]), abs=1e-12)


@functools.lru_cache(maxsize=None)
def _coupled_report(t):
    return recover_all(ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=t))


_BUDGETS = {"1,0": 0.05, "0,1": 0.15}   # acceptance criterion 4's, for d_x and d_y f_r
# (t, leaf) where the recovered gradient misses its budget; ROADMAP item 28
# traces the largest misses to the per-k focus-focus ordinate
_OVER_BUDGET = {(0.35, "1,0"), (0.40, "1,0"), (0.45, "1,0"), (0.60, "1,0"), (0.65, "1,0"),
                (0.40, "0,1"), (0.45, "0,1")}


@pytest.mark.slow
@pytest.mark.parametrize("t, leaf", [
    pytest.param(t, leaf, id=f"t={t:.2f}/{leaf}",
                 marks=[pytest.mark.xfail(strict=True, reason="ROADMAP items 28 and 7")]
                 if (t, leaf) in _OVER_BUDGET else [])
    for t in (0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70) for leaf in _BUDGETS])
def test_recovered_gradient_within_budget_of_the_oracle(t, leaf):
    want = dict(zip(_BUDGETS, coupled_gradient(1.0, 2.5, t)))[leaf]
    assert abs(_coupled_report(t)["fr_jet"][leaf] - want) <= _BUDGETS[leaf]
