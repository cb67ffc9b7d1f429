import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 31 - 1), st.data())
def test_index_window_is_scipys_stebz_window_bit_for_bit(n, seed, data):
    """The direct dstebz call makes the call eigvalsh_tridiagonal's stebz
    driver makes, so the window keeps its bits."""
    from scipy.linalg import eigvalsh_tridiagonal

    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 3
    e = rng.normal(size=n - 1)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    want = eigvalsh_tridiagonal(d, e, select="i", select_range=(lo, hi), lapack_driver="stebz")
    assert np.array_equal(eigs_in_window(d, e, lo, hi), want)


@pytest.mark.parametrize("lo,hi", [(-1, 2), (0, 5), (3, 2), (5, 5)])
def test_index_window_out_of_range(lo, hi):
    d = np.arange(5.0)
    e = 0.1 * np.ones(4)
    with pytest.raises(ValueError, match="index window"):
        eigs_in_window(d, e, lo, hi)


def test_shape_validation():
    with pytest.raises(ValueError):
        eigs_sym_tridiagonal([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        eigs_sym_tridiagonal([1.0, np.inf], [1.0])
