import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from semitoric import tridiag
from semitoric.config import ProbeConfig
from semitoric.invariants import ray_samples
from semitoric.models import COUPLED_ANGULAR_MOMENTA, ModelSpec
from semitoric.pipeline import _set_origins, build_probe_family, locate_critical_values
from semitoric.tridiag import eigs_in_window, eigs_sym_tridiagonal, sturm_count_below


def charpoly_bisection_oracle(d, e, tol=1e-12):
    """Independent reference: count sign agreements in the characteristic
    polynomial recurrence p_i(y), bisect each eigenvalue."""
    d = np.asarray(d, float)
    e = np.asarray(e, float)
    n = len(d)

    def count_below(y):
        # number of eigenvalues < y via sign changes of the minors
        count = 0
        p_prev, p = 1.0, d[0] - y
        if p < 0:
            count += 1
        for i in range(1, n):
            p_next = (d[i] - y) * p - e[i - 1] ** 2 * p_prev
            # rescale to dodge overflow
            scale = max(abs(p_next), abs(p), 1.0)
            p_prev, p = p / scale, p_next / scale
            if p < 0 < p_prev or p_prev < 0 < p:
                count += 1
            elif p == 0.0:
                p = 1e-300
        return count

    rad = np.abs(d).sum() + 2 * np.abs(e).sum() + 1
    out = []
    for i in range(n):
        a, b = -rad, rad
        while b - a > tol:
            m = 0.5 * (a + b)
            if count_below(m) <= i:
                a = m
            else:
                b = m
        out.append(0.5 * (a + b))
    return np.array(out)


def spectral_radius_bound(d, e):
    """Gershgorin bound on |eigenvalues|."""
    pad = np.concatenate([[0.0], np.abs(e)]) + np.concatenate([np.abs(e), [0.0]])
    return float(np.max(np.abs(d) + pad))


def python_sturm_count(d, e, y):
    """The reference count: the number of negative pivots of the LDL^T
    factorisation of T - y, the recurrence q_i = (d_i - y) - e_(i-1)^2 /
    q_(i-1) in Python floats."""
    # d - y and e^2 are the first operations of each step, the same IEEE
    # operations on arrays; the pivots run on Python floats, where a pivot
    # near zero sends e^2/q to +-inf without the overflow warning numpy
    # scalars raise, and the sign count is the same
    dy, e2 = (np.asarray(d, float) - y).tolist(), (np.asarray(e, float) ** 2).tolist()
    q = dy[0]
    count = int(q < 0)
    for a, b in zip(dy[1:], e2):
        if q == 0.0:
            q = 1e-300
        q = a - b / q
        if q < 0:
            count += 1
    return count


def count_agrees(got, want, ev, y, norm):
    """Two counts below y agree, or differ by one within 4 n eps ||T|| of an
    eigenvalue, where rounding may put it on either side of y."""
    near = np.min(np.abs(ev - y)) <= 4 * len(ev) * np.finfo(float).eps * norm
    return got == want or (near and abs(got - want) == 1)


def test_one_by_one():
    assert eigs_sym_tridiagonal([3.7], []) == pytest.approx([3.7])


def test_pauli_x():
    ev = eigs_sym_tridiagonal([0.0, 0.0], [1.0])
    assert ev == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_random_6x6_vs_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        d = rng.normal(size=6)
        e = rng.normal(size=5)
        got = eigs_sym_tridiagonal(d, e)
        want = charpoly_bisection_oracle(d, e)
        assert np.abs(got - want).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
def test_sturm_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 3
    e = rng.normal(size=n - 1)
    a = eigs_sym_tridiagonal(d, e)
    b = charpoly_bisection_oracle(d, e)
    rad = spectral_radius_bound(d, e)
    assert np.abs(a - b).max() < 1e-11 * max(rad, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1), st.floats(-3, 3))
def test_sturm_count_consistent(n, seed, y):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    ev = eigs_sym_tridiagonal(d, e)
    assert sturm_count_below(d, e, y) == int(np.sum(ev < y))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 31 - 1), st.integers(-1000, 1000), st.data())
def test_sturm_count_is_the_pivot_recurrence(n, seed, scale, data):
    """LAPACK's count by value against the Python recurrence, at heights
    drawn uniformly over the Gershgorin interval and beyond, and at the
    eigenvalues themselves; the matrix and height scaled by 2^scale, which
    leaves the count unchanged (the recurrence runs on the unscaled ones)."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 3
    e = rng.normal(size=n - 1)
    ev = eigs_sym_tridiagonal(d, e)
    norm = spectral_radius_bound(d, e)
    if data.draw(st.booleans()):
        y = float(ev[data.draw(st.integers(0, n - 1))])
    else:
        y = data.draw(st.floats(-1.2 * norm, 1.2 * norm))
    got = sturm_count_below(np.ldexp(d, scale), np.ldexp(e, scale), np.ldexp(y, scale))
    assert count_agrees(got, python_sturm_count(d, e, y), ev, y, norm)


def test_sturm_count_is_strict_at_an_exact_eigenvalue():
    # with no coupling the eigenvalues are the diagonal, exactly
    d, e = np.array([3.0, 1.0, 2.0, 2.5]), np.zeros(3)
    for y, n in ((1.0, 0), (2.0, 1), (2.5, 2), (3.0, 3), (np.nextafter(3.0, 4.0), 4)):
        assert sturm_count_below(d, e, y) == python_sturm_count(d, e, y) == n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 31 - 1), st.data())
def test_index_window_is_a_slice_of_the_full_solve(n, seed, data):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 3
    e = rng.normal(size=n - 1)
    ev = eigs_sym_tridiagonal(d, e)
    # single-element and end windows come up as often as interior ones
    lo = data.draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
    hi = data.draw(st.one_of(st.just(lo), st.just(n - 1), st.integers(lo, n - 1)))
    win = eigs_in_window(d, e, lo, hi)
    assert len(win) == hi - lo + 1
    assert np.abs(win - ev[lo:hi + 1]).max() <= 1e-12 * max(spectral_radius_bound(d, e), 1.0)


def stebz_window(d, e, lo, hi):
    """Full-precision bisection by index, the window's fallback."""
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(d, e, select="i", select_range=(lo, hi), lapack_driver="stebz")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 31 - 1), st.data())
def test_index_window_is_within_8_eps_of_scipys_stebz_window(n, seed, data):
    """A certified Rayleigh quotient is within eps*||T|| of its eigenvalue,
    and full-precision bisection within about as much."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 3
    e = rng.normal(size=n - 1)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    want = stebz_window(d, e, lo, hi)
    got = eigs_in_window(d, e, lo, hi)
    assert len(got) == len(want)
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * spectral_radius_bound(d, e)


def test_a_window_the_brackets_do_not_isolate_is_bisected_whole():
    # Wilkinson's W21+: its top two eigenvalues lie 7.1e-14 apart, far
    # inside one coarse bracket
    d = np.abs(np.arange(21.0) - 10)
    e = np.ones(20)
    want = stebz_window(d, e, 19, 20)
    assert want[1] - want[0] < 1e-13
    assert np.array_equal(eigs_in_window(d, e, 19, 20), want)


def _not_converged(x, info):
    return x, 1


def _perturbed(x, info):
    # a residual near 1e-6 ||T||: Kato-Temple's bound is then ~1e-12 ||T||
    noise = 1e-6 * np.random.default_rng(0).normal(size=x.shape)
    return x + np.abs(x).max() * noise, info


@pytest.mark.parametrize("spoil", [_not_converged, _perturbed])
def test_a_window_inverse_iteration_does_not_certify_is_bisected_whole(monkeypatch, spoil):
    import scipy.linalg.lapack as lapack

    rng = np.random.default_rng(7)
    d, e = rng.normal(size=50) * 3, rng.normal(size=49)
    # unspoiled, these rows certify: no gap near them is much below the
    # mean spacing, which the coarse brackets are a hundredth of
    assert tridiag._certified_window(d, e, 18, 23, spectral_radius_bound(d, e)) is not None
    dgttrs = lapack.dgttrs
    calls = []

    def spoiled_dgttrs(*args, **kwargs):
        calls.append(args)
        return spoil(*dgttrs(*args, **kwargs))

    monkeypatch.setattr(lapack, "dgttrs", spoiled_dgttrs)
    assert np.array_equal(eigs_in_window(d, e, 18, 23), stebz_window(d, e, 18, 23))
    assert calls


def test_every_window_of_a_default_probe_ray_is_certified(monkeypatch):
    certify = tridiag._certified_window
    results = []

    def recorded(*args):
        results.append(certify(*args))
        return results[-1]

    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)
    family = build_probe_family(model, [100])
    _set_origins(family, locate_critical_values(model, 100, family)[0])
    monkeypatch.setattr(tridiag, "_certified_window", recorded)
    ray_samples(family, 0.0, ProbeConfig().x_schedule)
    assert results
    assert all(w is not None for w in results)


@pytest.mark.parametrize("lo,hi", [(-1, 2), (0, 5), (3, 2), (5, 5)])
def test_index_window_out_of_range(lo, hi):
    d = np.arange(5.0)
    e = 0.1 * np.ones(4)
    with pytest.raises(ValueError, match="index window"):
        eigs_in_window(d, e, lo, hi)


@pytest.mark.parametrize("d,e", [([1e300] * 3, [1e300] * 2), ([1e-320, 2e-320], [0.0])],
                         ids=["near-overflow", "subnormal"])
def test_every_index_window_at_an_extreme_scale_is_a_slice_of_the_full_solve(d, e):
    # LAPACK's bisection fails on the first matrix (dstebz info 4) and reads
    # 2e-320 for eigenvalue 0 of the second, unless the window scales the
    # matrix by a power of two first
    full = eigs_sym_tridiagonal(d, e)
    for lo in range(len(d)):
        for hi in range(lo, len(d)):
            got = eigs_in_window(d, e, lo, hi)
            assert len(got) == hi - lo + 1
            assert np.abs(got - full[lo:hi + 1]).max() <= \
                8 * np.finfo(float).eps * spectral_radius_bound(d, e)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 31 - 1), st.integers(-1000, 1000), st.data())
def test_index_window_of_a_matrix_scaled_by_a_power_of_two(n, seed, scale, data):
    rng = np.random.default_rng(seed)
    d = np.ldexp(rng.normal(size=n) * 3, scale)
    e = np.ldexp(rng.normal(size=n - 1), scale)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    got = eigs_in_window(d, e, lo, hi)
    want = eigs_sym_tridiagonal(d, e)[lo:hi + 1]
    assert np.abs(got - want).max() <= 1e-12 * spectral_radius_bound(d, e)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 80), st.integers(0, 2 ** 31 - 1))
def test_whole_spectrum_is_scipys_sterf_driver_bit_for_bit(n, seed):
    from scipy.linalg import eigvalsh_tridiagonal

    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 3
    e = rng.normal(size=n - 1)
    want = eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    assert np.array_equal(eigs_sym_tridiagonal(d, e), want)


def test_sturm_count_below_refuses_a_nan_height():
    with pytest.raises(ValueError, match="NaN"):
        sturm_count_below([1.0, 2.0], [0.5], np.nan)
    assert sturm_count_below([1.0, 2.0], [0.5], -np.inf) == 0
    assert sturm_count_below([1.0, 2.0], [0.5], np.inf) == 2


@pytest.mark.parametrize("d,e", [([1e300] * 3, [1e300] * 2), ([1e-320, 2e-320], [0.0])],
                         ids=["near-overflow", "subnormal"])
def test_sturm_count_at_an_extreme_scale_is_the_full_solves(d, e):
    # the count scales such a matrix by the power of two its windows use:
    # LAPACK's counts overflow on the first and misread the second unscaled
    with pytest.raises(ValueError, match="NaN"):
        sturm_count_below(d, e, np.nan)
    ev = eigs_sym_tridiagonal(d, e)
    norm = spectral_radius_bound(d, e)
    mids = 0.5 * (ev[1:] + ev[:-1])
    for y in (*ev, *mids, ev[0] - norm, ev[-1] + norm, -np.inf, np.inf):
        assert count_agrees(sturm_count_below(d, e, y), int(np.sum(ev < y)), ev, y, norm)


def test_shape_validation():
    with pytest.raises(ValueError):
        eigs_sym_tridiagonal([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        eigs_sym_tridiagonal([1.0, np.inf], [1.0])
