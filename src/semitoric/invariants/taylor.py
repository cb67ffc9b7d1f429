"""Order-2 Taylor coefficients from the log-expansion of g_mu.

Along the ray c = (x, mu*x) off the critical value, the combination

    g_mu(x) = a1(x, mu*x) + mu * a2(x, mu*x)

expands as sum_n x^n (c_n(mu) + d_n(mu) ln x).  The log coefficients carry
the jet of the normal-form function f_r,

    d_n(mu) = -(1/(2 pi n!)) sum_l binom(n+1, l) mu^(n+1-l)
              d_x^l d_y^(n+1-l) f_r(0),

and, once the jet is known, the power coefficient c_1 determines the
order-2 Taylor invariants through

    c_1(mu) - c~_1(mu) = 2 sum_l A^(2-l) S_{l, 2-l},
    A = d_x f_r(0) + mu d_y f_r(0),

a scaled Vandermonde system in A.  The known part c~_1(mu) is the x^1
coefficient of g_mu with S known to order 1, where

    a2 = (sigma2 - ln(x)/2pi - ln(1+phi^2)/4pi) * d_y f_r,
    a1 = sigma1 - arctan(phi)/2pi + (same bracket) * d_x f_r,

phi = f_r(x, mu x)/x and sigma1, sigma2 are the smooth extensions read
through the composite (x, y) -> (x, f_r(x, y)).  Write f_r(x, mu x) =
A x + B x^2 + ..., B = (d_x^2 f_r + 2 mu d_x d_y f_r + mu^2 d_y^2 f_r)(0)/2.
Then sigma1 = S_10 and sigma2 = S_01 are constant, phi = A + B x + ... and
(d_x + mu d_y) f_r = A + 2 B x + ..., so the x^1 terms of g_mu are
-B/(2pi (1+A^2)) + 2 B (S_01 - ln(1+A^2)/4pi) - A^2 B/(2pi (1+A^2)):

    c~_1(mu) = B (2 S_01 - (1 + ln(1 + A^2)) / 2pi),   free of S_10.

Each order-2 system is one 3x3 least-squares solve, a row per mu.  The
purely-mixed route (dx^2 f_r(0) = dy^2 f_r(0) = 0 and S_20 = S_02 = 0,
exact for the spin-oscillator) reads its two unknowns at a single mu in
closed form: dx dy f_r(0) = -2 pi d_1 / (2 mu), then
S_11 = (c_1 - c~_1(mu)) / (2 A).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DuplicateMu, IllConditioned
from .extrap import _guarded_lstsq, hbar_limits
from .jets import FrJet
from .spacings import LabelledSpectrum, ray_samples

__all__ = [
    "g_mu_sample",
    "fit_log_expansion",
    "solve_jet_order",
    "solve_taylor_order",
    "solve_mixed",
]


def g_mu_sample(family: dict[int, LabelledSpectrum], mu: float, xs) -> np.ndarray:
    """g_mu(x) = a1(x, mu x) + mu a2(x, mu x), hbar -> 0, at each x of xs,
    (x, mu x) taken from each spectrum's ``origin``, which every spectrum of
    ``family`` must carry."""
    a1, a2 = ray_samples(family, mu, xs)
    return hbar_limits(sorted(family), a1 + mu * a2)[0]


def fit_log_expansion(xs, g):
    """(c_0, d_0, c_1, d_1, info) of g_mu sampled as g at xs.

    Two weighted least-squares fits with basis {ln x, 1, x ln x, x} (the
    two extra columns absorb the next order): the order-0 fit on g, then
    the order-1 fit on (g - c_0 - d_0 ln x) / x, weighted by x to
    downweight small x, where the hbar residue blows up.  info["cond"]
    holds the two condition numbers.
    """
    xs = np.asarray(xs, dtype=float)
    A = np.vstack([np.log(xs), np.ones_like(xs), xs * np.log(xs), xs]).T
    (d0, c0, *_), cond0 = _guarded_lstsq(A, g, "log-basis fit")
    resid = (g - (c0 + d0 * np.log(xs))) / xs
    (d1, c1, *_), cond1 = _guarded_lstsq(xs[:, None] * A, xs * resid, "log-basis fit")
    return float(c0), float(d0), float(c1), float(d1), {"cond": [cond0, cond1]}


def _solve(mus: np.ndarray, rows, b, what: str) -> dict[tuple[int, int], float]:
    """The order-2 coefficients keyed (0, 2), (1, 1), (2, 0) from one row
    per distinct mu."""
    if len(set(mus.tolist())) != len(mus):
        raise DuplicateMu("mu values must be pairwise distinct")
    if len(mus) != 3:
        raise ValueError("need exactly 3 mu values for order 2")
    v, _ = _guarded_lstsq(np.array(rows), np.array(b), what)
    return {key: float(x) for key, x in zip([(0, 2), (1, 1), (2, 0)], v)}


def solve_jet_order(mus, d1s) -> dict[tuple[int, int], float]:
    """Second derivatives of f_r from d_1 at three distinct mu values:
    solve (mu_i^2, 2 mu_i, 1) . (dy^2, dx dy, dx^2) f_r(0) = -2 pi d_1."""
    mus = np.asarray(mus, dtype=float)
    return _solve(mus, [[m ** 2, 2 * m, 1.0] for m in mus],
                  [-2 * np.pi * d for d in d1s], "jet system")


def _c1_known(mu: float, jet: FrJet, s01: float) -> float:
    """c~_1(mu) = B (2 S_01 - (1 + ln(1 + A^2)) / 2 pi) (module docstring)."""
    d = jet.derivs
    a = jet.dx + mu * jet.dy
    b = (d.get((2, 0), 0.0) + 2 * mu * d.get((1, 1), 0.0) + mu * mu * d.get((0, 2), 0.0)) / 2
    return b * (2 * s01 - (1 + math.log(1 + a * a)) / (2 * np.pi))


def solve_taylor_order(mus, c1s, jet: FrJet, s01: float) -> dict[tuple[int, int], float]:
    """Order-2 Taylor coefficients from c_1 at three distinct mu values,
    given the jet of f_r to order 2 and S_01.

    The unknowns (S_02, S_11, S_20) enter linearly with row
    (2 A^2, 2 A, 2), a scaled Vandermonde in A = dx f_r(0) + mu dy f_r(0)
    with determinant 8 (dy f_r(0))^3 prod_(i>j) (mu_i - mu_j); each c_1 is
    read less its known part c~_1 (module docstring).
    """
    mus = np.asarray(mus, dtype=float)
    a = jet.dx + mus * jet.dy
    return _solve(mus, [[2 * x ** 2, 2 * x, 2.0] for x in a],
                  [c - _c1_known(m, jet, s01) for m, c in zip(mus, c1s)], "Taylor system")


def solve_mixed(mu: float, c1: float, d1: float, jet1: FrJet,
                s01: float) -> tuple[float, float]:
    """(dx dy f_r(0), S_11) from c_1 and d_1 at one mu under the
    purely-mixed hypothesis (module docstring), given the order-1 jet."""
    a = jet1.dx + mu * jet1.dy
    if mu == 0 or a == 0:
        raise IllConditioned(f"{'jet' if mu == 0 else 'Taylor'} system condition inf")
    dxdy = -2 * np.pi * d1 / (2 * mu)
    jet = FrJet({**jet1.derivs, (2, 0): 0.0, (1, 1): dxdy, (0, 2): 0.0})
    return float(dxdy), float((c1 - _c1_known(mu, jet, s01)) / (2 * a))
