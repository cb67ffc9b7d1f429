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

Both order-2 systems are solved by one routine that can pin some
coefficients to known values: the purely-mixed route (dx^2 f_r(0) =
dy^2 f_r(0) = 0 and S_{2,0} = S_{0,2} = 0, exact for the spin-oscillator)
is the pair of solves at a single mu with those two coefficients pinned.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DuplicateMu
from .extrap import _guarded_lstsq, hbar_limits
from .jets import FrJet
from .spacings import LabelledSpectrum, ray_samples

__all__ = [
    "g_mu_sample",
    "fit_log_expansion",
    "solve_jet_order",
    "solve_taylor_order",
]


def g_mu_sample(family: dict[int, LabelledSpectrum], mu: float, xs) -> np.ndarray:
    """g_mu(x) = a1(x, mu x) + mu a2(x, mu x), hbar -> 0, at each x of xs,
    (x, mu x) taken from each spectrum's ``origin``, which every spectrum of
    ``family`` must carry."""
    a1, a2 = ray_samples(family, mu, xs)
    return hbar_limits(sorted(family), a1 + mu * a2)[0]


def fit_log_expansion(xs, g, n: int, c_known, d_known):
    """Recover (c_n, d_n) of g_mu sampled as g at xs, given all lower
    coefficients.

    d_n = lim (g - sum_{l<n} x^l (c_l + d_l ln x)) / (x^n ln x), then c_n;
    realized as one weighted least-squares fit on the residual with basis
    {ln x, 1, x ln x, x} (the two extra columns absorb the next order).
    """
    xs = np.asarray(xs, dtype=float)
    resid = np.array(g, dtype=float)
    for l in range(n):
        resid -= xs ** l * (c_known[l] + d_known[l] * np.log(xs))
    resid /= xs ** n
    A = np.vstack([np.log(xs), np.ones_like(xs), xs * np.log(xs), xs]).T
    W = np.diag(xs ** n)      # downweight small x where hbar residue blows up
    coef, cond = _guarded_lstsq(W @ A, W @ resid, "log-basis fit")
    d_n, c_n = float(coef[0]), float(coef[1])
    return c_n, d_n, {"cond": cond}


def _solve_order(n: int, mus, values, row, rhs, fixed, what: str):
    """The order-(n+1) coefficients v_(l, n+1-l), l = 0..n+1, from one
    equation row(mu) . v = rhs(mu, value) per (mu, value) pair.  The
    coefficients in ``fixed`` keep their given values (their columns move
    to the right-hand side), and one distinct mu is needed per remaining
    unknown."""
    mus = np.asarray(mus, dtype=float)
    if len(set(mus.tolist())) != len(mus):
        raise DuplicateMu("mu values must be pairwise distinct")
    keys = [(l, n + 1 - l) for l in range(n + 2)]
    fixed = fixed or {}
    if not set(fixed) < set(keys):
        raise ValueError(f"fixed coefficients must be of order {n + 1} and leave one free")
    free = [i for i, key in enumerate(keys) if key not in fixed]
    pinned = [i for i, key in enumerate(keys) if key in fixed]
    if len(mus) != len(free):
        raise ValueError(f"need exactly {len(free)} mu values for order {n} "
                         f"with {len(fixed)} coefficients fixed")
    M = np.array([row(m) for m in mus])
    b = np.array([rhs(m, v) for m, v in zip(mus, values)])
    b = b - M[:, pinned] @ np.array([fixed[keys[i]] for i in pinned], dtype=float)
    v, _ = _guarded_lstsq(M[:, free], b, what)
    solved = {**fixed, **{keys[i]: x for i, x in zip(free, v)}}
    return {key: float(solved[key]) for key in keys}


def solve_jet_order(n: int, mus, d_values, fixed=None) -> dict[tuple[int, int], float]:
    """Order-(n+1) derivatives of f_r from d_n at distinct mu values:
    solve (binom(n+1, j) mu_i^(n+1-j)) v = -2 pi n! d.  Derivatives given
    in ``fixed`` are pinned; the others need one mu each."""
    scale = -2 * np.pi * math.factorial(n)
    return _solve_order(n, mus, d_values,
                        lambda m: [math.comb(n + 1, l) * m ** (n + 1 - l) for l in range(n + 2)],
                        lambda m, d: scale * d, fixed, "jet system")


def solve_taylor_order(mus, c_values, jet: FrJet, s01: float,
                       fixed=None) -> dict[tuple[int, int], float]:
    """Order-2 Taylor coefficients from c_1 at distinct mu values, given
    the jet of f_r to order 2 and S_01.

    The unknowns enter linearly with matrix 2 * A_i^(2-l), a scaled
    Vandermonde in A_i = dx f_r(0) + mu_i dy f_r(0) with determinant
    8 * (dy f_r(0))^3 * prod_(i>j) (mu_i - mu_j) when no coefficient is
    pinned; each c_1 is read less its known part c~_1 (module docstring).
    Coefficients given in ``fixed`` are pinned; the others need one mu each.
    """
    d = jet.derivs

    def row(m):
        a = jet.dx + m * jet.dy
        return [2 * a ** (2 - l) for l in range(3)]

    def rhs(m, c):
        a = jet.dx + m * jet.dy
        b = (d.get((2, 0), 0.0) + 2 * m * d.get((1, 1), 0.0) + m * m * d.get((0, 2), 0.0)) / 2
        return c - b * (2 * s01 - (1 + math.log(1 + a * a)) / (2 * np.pi))

    return _solve_order(1, mus, c_values, row, rhs, fixed, "Taylor system")
