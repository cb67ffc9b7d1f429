import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from semitoric.errors import DuplicateMu, IllConditioned
from semitoric.invariants import (
    FrJet,
    fit_log_expansion,
    solve_jet_order,
    solve_mixed,
    solve_taylor_order,
    x_limit,
)
from semitoric.invariants.extrap import _guarded_lstsq
from semitoric.invariants.taylor import _c1_known

RNG = np.random.default_rng(2024)


# -- the series oracle: truncated power series of g_mu at any order ----------
# (ascending coefficients, fixed length)

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


def _partial_series(jet, mu, dx_extra, dy_extra, n):
    """Series of (d_x^dx_extra d_y^dy_extra f_r)(x, mu x)."""
    out = np.zeros(n)
    for (a, b), v in jet.derivs.items():
        aa, bb = a - dx_extra, b - dy_extra
        if aa < 0 or bb < 0 or aa + bb >= n:
            continue
        out[aa + bb] += v * mu ** bb / (math.factorial(aa) * math.factorial(bb))
    return out


def expansion_along_ray(jet, s_coeffs, mu, n_orders):
    """(c_0..c_{n-1}, d_0..d_{n-1}) of g_mu assembled from a jet and Taylor
    coefficients by explicit series bookkeeping of a1 + mu a2 as
    semitoric.invariants.taylor's docstring writes them.  Coefficients of total order m enter c_n only for m <= n+1,
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


def random_jet(rng, order=3):
    derivs = {}
    for m in range(1, order + 1):
        for a in range(m + 1):
            derivs[(a, m - a)] = float(rng.normal())
    derivs[(0, 1)] = abs(derivs[(0, 1)]) + 0.5   # orientation
    return FrJet(derivs)


def random_s(rng, order=2):
    return {(p, q): float(rng.normal()) for m in range(order + 1)
            for p in range(m + 1) for q in [m - p]}


# -- the generic solvers: any order n, coefficients pinned -------------------

def generic_log_fit(xs, g, n, c_known, d_known):
    """(c_n, d_n, cond) of g given all lower coefficients: one weighted fit
    of (g - sum_(l<n) x^l (c_l + d_l ln x)) / x^n, weight diag(x^n), with
    basis {ln x, 1, x ln x, x}."""
    xs = np.asarray(xs, dtype=float)
    resid = np.array(g, dtype=float)
    for l in range(n):
        resid -= xs ** l * (c_known[l] + d_known[l] * np.log(xs))
    resid /= xs ** n
    A = np.vstack([np.log(xs), np.ones_like(xs), xs * np.log(xs), xs]).T
    W = np.diag(xs ** n)
    coef, cond = _guarded_lstsq(W @ A, W @ resid, "log-basis fit")
    return float(coef[1]), float(coef[0]), cond


def generic_solve(n, mus, values, row, rhs, fixed, what):
    """The order-(n+1) coefficients v_(l, n+1-l), l = 0..n+1, from one
    equation row(mu) . v = rhs(mu, value) per (mu, value) pair; the
    coefficients in ``fixed`` keep their values (their columns move to the
    right-hand side), and one distinct mu is needed per remaining unknown."""
    mus = np.asarray(mus, dtype=float)
    if len(set(mus.tolist())) != len(mus):
        raise DuplicateMu("mu values must be pairwise distinct")
    keys = [(l, n + 1 - l) for l in range(n + 2)]
    fixed = fixed or {}
    assert set(fixed) < set(keys)
    free = [i for i, key in enumerate(keys) if key not in fixed]
    pinned = [i for i, key in enumerate(keys) if key in fixed]
    assert len(mus) == len(free)
    M = np.array([row(m) for m in mus])
    b = np.array([rhs(m, v) for m, v in zip(mus, values)])
    b = b - M[:, pinned] @ np.array([fixed[keys[i]] for i in pinned], dtype=float)
    v, _ = _guarded_lstsq(M[:, free], b, what)
    solved = {**fixed, **{keys[i]: x for i, x in zip(free, v)}}
    return {key: float(solved[key]) for key in keys}


def generic_jet_order(n, mus, d_values, fixed=None):
    """Order-(n+1) derivatives of f_r from d_n: (binom(n+1, j) mu^(n+1-j)) v
    = -2 pi n! d."""
    scale = -2 * np.pi * math.factorial(n)
    return generic_solve(n, mus, d_values,
                         lambda m: [math.comb(n + 1, l) * m ** (n + 1 - l) for l in range(n + 2)],
                         lambda m, d: scale * d, fixed, "jet system")


def generic_taylor_order(mus, c_values, jet, s01, fixed=None):
    """Order-2 Taylor coefficients from c_1: rows 2 A^(2-l), right-hand
    side c_1 less its known part c~_1."""
    d = jet.derivs

    def row(m):
        a = jet.dx + m * jet.dy
        return [2 * a ** (2 - l) for l in range(3)]

    def rhs(m, c):
        a = jet.dx + m * jet.dy
        b = (d.get((2, 0), 0.0) + 2 * m * d.get((1, 1), 0.0) + m * m * d.get((0, 2), 0.0)) / 2
        return c - b * (2 * s01 - (1 + math.log(1 + a * a)) / (2 * np.pi))

    return generic_solve(1, mus, c_values, row, rhs, fixed, "Taylor system")


def d_n_from_jet(jet, mu, n):
    """Closed form of the x^n ln x coefficient of g_mu:
    -(1/(2 pi n!)) sum_l binom(n+1, l) mu^(n+1-l) d_x^l d_y^(n+1-l) f_r(0)."""
    total = sum(math.comb(n + 1, l) * mu ** (n + 1 - l) * jet.derivs.get((l, n + 1 - l), 0.0)
                for l in range(n + 2))
    return -total / (2 * np.pi * math.factorial(n))


def taylor_system_determinant(n, mus, dy_fr):
    """Closed form of det of the solve_taylor_order matrix:
    (n+1)^(n+2) (dy f_r)^((n+1)(n+2)/2) prod_(i>j) (mu_i - mu_j)."""
    vdm = math.prod(mus[i] - mus[j] for i in range(len(mus)) for j in range(i))
    return (n + 1) ** (n + 2) * dy_fr ** ((n + 1) * (n + 2) // 2) * vdm


def eval_g(jet, s, mu, xs, orders=4):
    c, d = expansion_along_ray(jet, s, mu, orders)
    xs = np.asarray(xs)
    out = np.zeros_like(xs)
    for n in range(orders):
        out += xs ** n * (c[n] + d[n] * np.log(xs))
    return out


def test_dn_closed_form_matches_series():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        jet = random_jet(rng)
        s = random_s(rng)
        for mu in (0.7, 1.0, 2.3):
            _, d = expansion_along_ray(jet, s, mu, 3)
            for n in range(3):
                assert d[n] == pytest.approx(d_n_from_jet(jet, mu, n), rel=1e-12, abs=1e-12)


def test_spin_oscillator_coefficients():
    # known closed forms for the purely mixed jet of the model system
    jet = FrJet({(1, 0): 0.0, (0, 1): 2.0, (2, 0): 0.0, (1, 1): -0.25, (0, 2): 0.0})
    s01 = 5 * np.log(2) / (2 * np.pi)
    s11 = 1 / (8 * np.pi)
    s = {(0, 0): 1.0, (1, 0): 0.0, (0, 1): s01, (2, 0): 0.0, (1, 1): s11, (0, 2): 0.0}
    for mu in (0.5, 1.0, 2.0):
        c, d = expansion_along_ray(jet, s, mu, 2)
        A = 2 * mu
        assert d[0] == pytest.approx(-mu / np.pi)
        assert d[1] == pytest.approx(mu / (4 * np.pi))
        c0_th = -np.arctan(A) / (2 * np.pi) + (s01 - np.log(1 + A * A) / (4 * np.pi)) * A
        assert c[0] == pytest.approx(c0_th, rel=1e-12)
        c1_th = 4 * mu * s11 + mu * (-0.25) * (2 * s01 - (1 + np.log(1 + A * A)) / (2 * np.pi))
        assert c[1] == pytest.approx(c1_th, rel=1e-12)


def test_top_order_structure():
    # c_n(full) - c_n(S truncated to order n) = (n+1) sum A^(n+1-l) S_{l,n+1-l}
    rng = np.random.default_rng(9)
    jet = random_jet(rng)
    s = random_s(rng, order=2)
    s_known = {k: v for k, v in s.items() if sum(k) <= 1}
    n = 1
    for mu in (0.6, 1.7):
        c_full, _ = expansion_along_ray(jet, s, mu, n + 1)
        c_tilde, _ = expansion_along_ray(jet, s_known, mu, n + 1)
        A = jet.dx + mu * jet.dy
        top = (n + 1) * sum(A ** (n + 1 - l) * s[(l, n + 1 - l)] for l in range(n + 2))
        assert c_full[n] - c_tilde[n] == pytest.approx(top, rel=1e-10)


def test_fit_log_expansion_manufactured():
    # g manufactured from known (c0, d0, c1, d1) alone: recovery well under
    # the 1e-3 budget on x in [1e-3, 1e-1]
    rng = np.random.default_rng(5)
    jet = random_jet(rng)
    s = random_s(rng)
    mu = 1.3
    xs = np.geomspace(1e-3, 1e-1, 14)
    g = eval_g(jet, s, mu, xs, orders=2)
    c_th, d_th = expansion_along_ray(jet, s, mu, 2)
    c0, d0, c1, d1, info = fit_log_expansion(xs, g)
    assert c0 == pytest.approx(c_th[0], abs=1e-6)
    assert d0 == pytest.approx(d_th[0], abs=1e-6)
    assert c1 == pytest.approx(c_th[1], abs=1e-3)
    assert d1 == pytest.approx(d_th[1], abs=1e-3)
    assert len(info["cond"]) == 2


def test_fit_log_expansion_no_log_part():
    xs = np.geomspace(1e-3, 1e-1, 10)
    g = 0.7 + 0.2 * xs        # pure polynomial
    _, d0, c1, d1, _ = fit_log_expansion(xs, g)
    assert d0 == pytest.approx(0.0, abs=1e-12)
    assert d1 == pytest.approx(0.0, abs=1e-10)
    assert c1 == pytest.approx(0.2, abs=1e-10)


def test_fit_log_expansion_is_the_generic_fit_at_orders_0_and_1():
    # bit for bit: the order-1 weight x * A is diag(x) @ A
    rng = np.random.default_rng(8)
    for _ in range(20):
        xs = np.sort(rng.uniform(0.005, 0.12, size=int(rng.integers(6, 12))))[::-1]
        g = rng.normal() + rng.normal() * np.log(xs) + rng.normal(size=len(xs)) * xs
        c0, d0, cond0 = generic_log_fit(xs, g, 0, [], [])
        c1, d1, cond1 = generic_log_fit(xs, g, 1, [c0], [d0])
        assert fit_log_expansion(xs, g) == (c0, d0, c1, d1, {"cond": [cond0, cond1]})


def test_solve_jet_order_roundtrip():
    rng = np.random.default_rng(1)
    jet = random_jet(rng)
    mus = [0.5, 1.4, 2.3]
    d_vals = [d_n_from_jet(jet, mu, 1) for mu in mus]
    got = solve_jet_order(mus, d_vals)
    assert got == generic_jet_order(1, mus, d_vals)
    for key, v in got.items():
        assert v == pytest.approx(jet.derivs[key], rel=1e-9, abs=1e-11)


def test_solve_jet_duplicate_mu():
    with pytest.raises(DuplicateMu):
        solve_jet_order([1.0, 1.0, 2.0], [0.1, 0.1, 0.2])


def test_solve_taylor_order_roundtrip():
    rng = np.random.default_rng(12)
    jet = random_jet(rng)
    s = random_s(rng, order=2)
    mus = [0.8, 1.4, 2.2]
    c_vals = [expansion_along_ray(jet, s, mu, 2)[0][1] for mu in mus]
    got = solve_taylor_order(mus, c_vals, jet, s[(0, 1)])
    assert got == generic_taylor_order(mus, c_vals, jet, s[(0, 1)])
    for key, v in got.items():
        assert v == pytest.approx(s[key], rel=1e-8, abs=1e-10)


def test_taylor_determinant_formula():
    # closed form against direct evaluation at n=1, mu = (1,2,3)
    jet = FrJet({(1, 0): -0.3, (0, 1): 2.0})
    n, mus = 1, np.array([1.0, 2.0, 3.0])
    Avals = jet.dx + mus * jet.dy
    M = np.array([[(n + 1) * a ** (n + 1 - l) for l in range(n + 2)] for a in Avals])
    det = np.linalg.det(M)
    assert abs(det) == pytest.approx(abs(taylor_system_determinant(n, mus, jet.dy)), rel=1e-9)
    # at n=1 this also equals (n+1)^(n+2) (dy f_r)^(n+2) Vandermonde
    vdm = (mus[1] - mus[0]) * (mus[2] - mus[0]) * (mus[2] - mus[1])
    assert abs(det) == pytest.approx(2 ** 3 * jet.dy ** 3 * vdm, rel=1e-9)


SPIN_JET1 = FrJet({(1, 0): 0.0, (0, 1): 2.0})
SPIN_S01 = 5 * np.log(2) / (2 * np.pi)


def manufactured_spin_g(mu, xs):
    jet = FrJet({(1, 0): 0.0, (0, 1): 2.0, (1, 1): -0.25})
    s = {(1, 0): 0.0, (0, 1): SPIN_S01, (1, 1): 1 / (8 * np.pi)}
    return eval_g(jet, s, mu, xs, orders=2)


# the purely-mixed hypothesis: dx^2 f_r(0) = dy^2 f_r(0) = 0, S_20 = S_02 = 0
PURE = {(2, 0): 0.0, (0, 2): 0.0}


def pinned_route(mu, d1, c1, jet1, s01):
    """(dxdy f_r(0), S_11) from d_1 and c_1 at one mu: the generic order-1
    jet and Taylor solves with the pure coefficients pinned."""
    jet2 = generic_jet_order(1, [mu], [d1], fixed=PURE)
    s2 = generic_taylor_order([mu], [c1], FrJet({**jet1.derivs, **jet2}), s01, fixed=PURE)
    return jet2[(1, 1)], s2[(1, 1)]


def closed_form_dxdy(d1, mu):
    """Reference oracle, derived by hand: d_1 = -mu dxdy f_r(0) / pi."""
    return -np.pi * d1 / mu


def closed_form_s11(c1, mu, jet1, s01, dxdy):
    """Reference oracle, derived by hand: c_1 - c~_1 = 2 A S_11 with
    A = dx f_r + mu dy f_r, c~_1 = mu dxdy f_r(0) (2 S_01 - (1 + ln(1 + A^2)) / 2 pi)."""
    A = jet1.dx + mu * jet1.dy
    c1_tilde = mu * dxdy * (2 * s01 - (1 + np.log(1 + A * A)) / (2 * np.pi))
    return (c1 - c1_tilde) / (2 * A)


def mixed_route(mu, xs):
    """(dxdy f_r(0), S_11) by the purely-mixed route of the recovery on the
    manufactured g_mu: fit_log_expansion, then solve_mixed."""
    g = manufactured_spin_g(mu, xs)
    _, _, c1, d1, _ = fit_log_expansion(xs, g)
    return solve_mixed(mu, c1, d1, SPIN_JET1, SPIN_S01)


def test_cross_derivative_shortcut_identity_sanity():
    # exact samples built from the displayed coefficients -> -1/4
    xs = np.geomspace(2e-3, 5e-2, 10)
    for mu in (0.5, 1.0, 2.0):
        val, _ = mixed_route(mu, xs)
        assert val == pytest.approx(-0.25, abs=0.01)


def test_shortcut_mu_independence():
    xs = np.geomspace(2e-3, 5e-2, 10)
    vals = [mixed_route(mu, xs)[0] for mu in (0.5, 1.0, 2.0)]
    assert max(vals) - min(vals) < 0.02


def test_s11_shortcut_roundtrip():
    xs = np.geomspace(2e-3, 5e-2, 12)
    _, s11 = mixed_route(1.0, xs)
    assert s11 == pytest.approx(1 / (8 * np.pi), abs=2e-3)


def test_mixed_helpers_consistency():
    # exact (c_1, d_1) of a purely mixed jet give back dxdy f_r and S_11
    jet = FrJet({(1, 0): 0.0, (0, 1): 2.0, (1, 1): -0.25})
    s = {(1, 0): 0.1, (0, 1): SPIN_S01, (1, 1): 1 / (8 * np.pi)}
    mu = 1.2
    c, d = expansion_along_ray(jet, s, mu, 2)
    jet1 = FrJet({(1, 0): 0.0, (0, 1): 2.0})
    dxdy, s11 = solve_mixed(mu, c[1], d[1], jet1, SPIN_S01)
    assert dxdy == pytest.approx(-0.25, rel=1e-12)
    assert s11 == pytest.approx(1 / (8 * np.pi), rel=1e-10)


def test_pinned_route_matches_closed_forms():
    # the generic solves with S_20, S_02 and the pure second derivatives
    # pinned reduce to the hand-derived closed forms, also for dx f_r != 0,
    # and solve_mixed is that pinned route
    rng = np.random.default_rng(31)
    for _ in range(50):
        dx = float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.0))
        jet1 = FrJet({(1, 0): dx, (0, 1): float(rng.uniform(0.3, 3.0))})
        dxdy, s01 = (float(v) for v in rng.normal(size=2))
        mu = float(rng.uniform(0.3, 3.0))
        c1, d1 = (float(v) for v in rng.normal(size=2))
        got_dxdy, got_s11 = pinned_route(mu, d1, c1, jet1, s01)
        assert got_dxdy == pytest.approx(closed_form_dxdy(d1, mu), rel=1e-12, abs=1e-12)
        assert solve_mixed(mu, c1, d1, jet1, s01) == pytest.approx(
            (got_dxdy, got_s11), rel=1e-12, abs=1e-12)
        # S_11 read with a given dxdy, as the closed form takes it
        s2 = generic_taylor_order([mu], [c1], FrJet({**jet1.derivs, **PURE, (1, 1): dxdy}),
                                  s01, fixed=PURE)
        assert s2[(2, 0)] == 0.0 and s2[(0, 2)] == 0.0
        want = closed_form_s11(c1, mu, jet1, s01, dxdy)
        assert s2[(1, 1)] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("mu, dx", [(0.0, -0.3), (0.15, -0.3)], ids=["mu-0", "A-0"])
def test_solve_mixed_refuses_a_singular_one_mu_solve(mu, dx):
    # mu = 0 leaves d_1 free of dx dy f_r, and A = dx f_r + mu dy f_r = 0
    # leaves c_1 free of S_11: a typed failure (exit 3), not a division
    jet1 = FrJet({(1, 0): dx, (0, 1): 2.0})
    with pytest.raises(IllConditioned, match="system condition inf"):
        solve_mixed(mu, 0.1, 0.2, jet1, 0.4)


COEFF = st.floats(-3, 3)


@settings(max_examples=200, deadline=None)
@given(COEFF, st.floats(0.1, 3), COEFF, COEFF, COEFF, COEFF, COEFF, COEFF, st.booleans())
@example(0.0, 2.0, 0.0, -0.25, 0.0, SPIN_S01, 0.0, 1.0, True)     # the spin jet
@example(-0.7, 1.3, 0.4, 0.9, -0.2, -1.1, 0.4, -2.5, False)
def test_known_part_is_the_series_x1_coefficient(dx, dy, dxx, dxy, dyy, s01, s10, mu, pinned):
    # c~_1, the closed form both order-2 Taylor routes read, is the series
    # oracle's x^1 coefficient with S known to order 1.  A pinned jet is the
    # purely-mixed one, dx^2 f_r = dy^2 f_r = 0
    if pinned:
        dxx = dyy = 0.0
    jet = FrJet({(1, 0): dx, (0, 1): dy, (2, 0): dxx, (1, 1): dxy, (0, 2): dyy})
    a = dx + mu * dy
    got = _c1_known(mu, jet, s01)
    want = expansion_along_ray(jet, {(1, 0): s10, (0, 1): s01}, mu, 2)[0][1]
    # relative to the size of the terms, and no finer than the smallest
    # normal float, below which tiny jets round to subnormal products
    b_abs = (abs(dxx) + 2 * abs(mu * dxy) + mu * mu * abs(dyy)) / 2
    scale = b_abs * (1 + 2 * abs(s01) + math.log(1 + a * a))
    assert abs(got - want) <= 1e-12 * scale + np.finfo(float).tiny


@pytest.mark.parametrize("solve", ["jet", "taylor"])
def test_order2_solve_needs_exactly_three_mus(solve):
    jet = FrJet({(1, 0): -0.3, (0, 1): 2.0, (1, 1): 0.5})
    call = {"jet": lambda mus: solve_jet_order(mus, [0.1] * len(mus)),
            "taylor": lambda mus: solve_taylor_order(mus, [0.1] * len(mus), jet, 0.4)}[solve]
    for mus in ([1.5, 2.0], [1.0, 1.5, 2.0, 3.0]):
        with pytest.raises(ValueError, match="need exactly 3 mu values"):
            call(mus)


NEAR = 1.0 + 1e-6 * np.arange(3)        # distinct but almost equal mu values


@pytest.mark.parametrize("fit,prefix", [
    (lambda: x_limit(0.01 * (1 + 1e-9 * np.arange(3)), [1.0, 2.0, 3.0]),
     "x-limit design matrix condition"),
    (lambda: fit_log_expansion(0.01 * (1 + 1e-9 * np.arange(6)), np.arange(6.0)),
     "log-basis fit condition"),
    (lambda: solve_jet_order(NEAR, [0.1, 0.2, 0.3]), "jet system condition"),
    (lambda: solve_taylor_order(NEAR, [0.1, 0.2, 0.3], FrJet({(0, 1): 1.0}), 0.0),
     "Taylor system condition"),
], ids=["x_limit", "fit_log_expansion", "jet", "taylor"])
def test_ill_conditioned_fits_raise(fit, prefix):
    with pytest.raises(IllConditioned, match=prefix):
        fit()
