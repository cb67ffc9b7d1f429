"""Higher-order Taylor coefficients from the log-expansion of g_mu.

Along the ray c = (x, mu*x) off the critical value, the combination

    g_mu(x) = a1(x, mu*x) + mu * a2(x, mu*x)

expands as sum_n x^n (c_n(mu) + d_n(mu) ln x).  The log coefficients carry
the jet of the normal-form function f_r,

    d_n(mu) = -(1/(2 pi n!)) sum_l binom(n+1, l) mu^(n+1-l)
              d_x^l d_y^(n+1-l) f_r(0),

and, once the jet and lower-order coefficients are known, the power
coefficients determine the order-(n+1) Taylor invariants through

    c_n(mu) - c~_n(mu) = (n+1) sum_l A^(n+1-l) S_{l, n+1-l},
    A = d_x f_r(0) + mu d_y f_r(0),

a scaled Vandermonde system in A.  The known part c~_n(mu) is assembled
here by explicit series bookkeeping of

    a2 = (sigma2 - ln(x)/2pi - ln(1+phi^2)/4pi) * d_y f_r,
    a1 = sigma1 - arctan(phi)/2pi + (same bracket) * d_x f_r,

with phi = f_r(x, mu x)/x and sigma1, sigma2 the smooth extensions whose
values are read through the composite (x, y) -> (x, f_r(x, y)).

Both order-(n+1) systems are solved by one routine that can pin some
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
    "expansion_along_ray",
    "d_n_from_jet",
    "fit_log_expansion",
    "solve_jet_order",
    "solve_taylor_order",
]


# -- truncated power series helpers (ascending coefficients, fixed length) --

def _pmul(a, b, n):
    return np.convolve(a, b)[:n]

def _ppow(a, p, n):
    out = np.zeros(n)
    out[0] = 1.0
    for _ in range(p):
        out = _pmul(out, a, n)
    return out

def _pseries(coeffs, w, n):
    """sum_m coeffs[m] w^m for a series with w[0] = 0."""
    out = np.zeros(n)
    term = np.zeros(n)
    term[0] = 1.0
    for a in coeffs:
        out += a * term
        term = _pmul(term, w, n)
    return out

def _shift(a, p, n):
    """x^p times the series a, truncated to n terms."""
    return np.concatenate((np.zeros(p), a))[:n]


def _partial_series(jet: FrJet, mu: float, dx_extra: int, dy_extra: int, n: int):
    """Series of (d_x^dx_extra d_y^dy_extra f_r)(x, mu x)."""
    out = np.zeros(n)
    for (a, b), v in jet.derivs.items():
        aa, bb = a - dx_extra, b - dy_extra
        if aa < 0 or bb < 0 or aa + bb >= n:
            continue
        out[aa + bb] += v * mu ** bb / (math.factorial(aa) * math.factorial(bb))
    return out


def expansion_along_ray(jet: FrJet, s_coeffs: dict, mu: float, n_orders: int):
    """(c_0..c_{n-1}, d_0..d_{n-1}) of g_mu assembled from a jet and Taylor
    coefficients.  Coefficients of total order m enter c_n only for m <= n+1,
    so passing S only up to order n yields the known part c~_n in slot n.
    """
    n = n_orders
    ndeep = n + 2
    f = _partial_series(jet, mu, 0, 0, ndeep)          # f_r(x, mu x), f[0] = 0
    phi = np.zeros(ndeep)
    phi[:-1] = f[1:]                                   # f/x
    dxf = _partial_series(jet, mu, 1, 0, ndeep)
    dyf = _partial_series(jet, mu, 0, 1, ndeep)
    sig1 = np.zeros(ndeep)
    sig2 = np.zeros(ndeep)
    for (p, q), s in s_coeffs.items():
        if p >= 1:
            sig1 += p * s * _shift(_ppow(f, q, ndeep), p - 1, ndeep)
        if q >= 1:
            sig2 += q * s * _shift(_ppow(f, q - 1, ndeep), p, ndeep)
    A = phi[0]
    # ln(1 + phi^2) = ln(1+A^2) + log1p((phi^2 - A^2)/(1+A^2))
    phi2 = _pmul(phi, phi, ndeep)
    w = phi2.copy()
    w[0] = 0.0
    w = w / (1.0 + A * A)
    # the series ln(1 + w) = sum_m (-1)^(m+1) w^m / m
    log_term = _pseries([0.0] + [(-1) ** (m + 1) / m for m in range(1, ndeep)], w, ndeep)
    log_term[0] = np.log(1.0 + A * A)
    # arctan(phi) = arctan(A) + integral of phi' / (1 + phi^2)
    dphi = np.array([(m + 1) * phi[m + 1] for m in range(ndeep - 1)] + [0.0])
    inv1p = _pseries([(-1.0) ** m for m in range(ndeep)], w, ndeep)   # 1/(1 + w)
    integrand = _pmul(dphi, inv1p, ndeep) / (1.0 + A * A)
    atan = np.zeros(ndeep)
    atan[0] = np.arctan(A)
    atan[1:] = integrand[:-1] / np.arange(1, ndeep)
    tau2_poly = sig2 - log_term / (4 * np.pi)
    direction = dxf + mu * dyf
    P = sig1 - atan / (2 * np.pi) + _pmul(tau2_poly, direction, ndeep)
    Q = -direction / (2 * np.pi)
    return P[:n], Q[:n]


def _jet_row(n: int, mu: float) -> list[float]:
    """Weights of d_x^l d_y^(n+1-l) f_r(0), l = 0..n+1, in -2 pi n! d_n(mu)."""
    return [math.comb(n + 1, l) * mu ** (n + 1 - l) for l in range(n + 2)]


def d_n_from_jet(jet: FrJet, mu: float, n: int) -> float:
    """Closed form of the x^n ln x coefficient of g_mu."""
    total = sum(w * jet.derivs.get((l, n + 1 - l), 0.0)
                for l, w in enumerate(_jet_row(n, mu)))
    return -total / (2 * np.pi * math.factorial(n))


# -- sampling and fitting ---------------------------------------------------

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
    return _solve_order(n, mus, d_values, lambda m: _jet_row(n, m),
                        lambda m, d: scale * d, fixed, "jet system")


def solve_taylor_order(n: int, mus, c_values, jet: FrJet, s_known: dict,
                       fixed=None) -> dict[tuple[int, int], float]:
    """Order-(n+1) Taylor coefficients from c_n at distinct mu values.

    The unknowns enter linearly with matrix (n+1) * A_i^(n+1-l), a scaled
    Vandermonde in A_i = dx f_r(0) + mu_i dy f_r(0) with determinant
    (n+1)^(n+2) * (dy f_r(0))^((n+1)(n+2)/2) * prod_(i>j) (mu_i - mu_j)
    when no coefficient is pinned.  Coefficients given in ``fixed`` are
    pinned; the others need one mu each.
    """
    def row(m):
        a = jet.dx + m * jet.dy
        return [(n + 1) * a ** (n + 1 - l) for l in range(n + 2)]

    def rhs(m, c):
        return c - expansion_along_ray(jet, s_known, m, n + 1)[0][n]

    return _solve_order(n, mus, c_values, row, rhs, fixed, "Taylor system")


def taylor_system_determinant(n: int, mus, dy_fr: float) -> float:
    """Closed form of det of the solve_taylor_order matrix."""
    mus = np.asarray(mus, dtype=float)
    vdm = 1.0
    for i in range(len(mus)):
        for j in range(i):
            vdm *= mus[i] - mus[j]
    return (n + 1) ** (n + 2) * dy_fr ** ((n + 1) * (n + 2) // 2) * vdm
