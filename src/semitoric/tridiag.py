"""Real symmetric tridiagonal eigenvalue tools.

A whole spectrum comes from one LAPACK solve of the whole matrix (``dsterf``,
the root-free QL/QR iteration), O(n^2).  The eigenvalues numbered lo..hi cost
O(n) each: LAPACK bisection (``dstebz``) brackets each one coarsely, inverse
iteration (``dstein``) finds its eigenvector, and the vector's Rayleigh
quotient is returned when Kato-Temple's residual bound puts it within
eps*||T|| of the eigenvalue; a window whose eigenvalues the brackets do not
part, or that fails the bound, is bisected to full precision instead.  The
Sturm count of the eigenvalues below a height needs no solve, and gives the
number of the eigenvalue just above it.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "eigs_sym_tridiagonal",
    "eigs_in_window",
    "sturm_count_below",
]


def _as_tridiag(diag, offdiag):
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
        raise ValueError("need len(offdiag) == len(diag) - 1")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("non-finite matrix entries")
    return d, e


def sturm_count_below(diag, offdiag, y):
    """Number of eigenvalues strictly below y (LDL^T pivot sign count);
    ValueError for a NaN y."""
    d, e = _as_tridiag(diag, offdiag)
    y = float(y)
    if np.isnan(y):
        raise ValueError("height is NaN")
    # d - y and e^2 are the first operations of each step, the same IEEE
    # operations on arrays; the pivots run on Python floats, where a pivot
    # near zero sends e^2/q to +-inf without the overflow warning numpy
    # scalars raise, and the sign count is the same
    dy, e2 = (d - y).tolist(), (e * e).tolist()
    q = dy[0]
    count = int(q < 0)
    for a, b in zip(dy[1:], e2):
        if q == 0.0:
            q = 1e-300
        q = a - b / q
        if q < 0:
            count += 1
    return count


def eigs_sym_tridiagonal(diag, offdiag):
    """All eigenvalues of the symmetric tridiagonal matrix, ascending
    (LAPACK root-free QL/QR, ``dsterf``)."""
    d, e = _as_tridiag(diag, offdiag)
    if len(d) == 1:
        return d.copy()
    from scipy.linalg.lapack import dsterf

    w, info = dsterf(d, e)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK dsterf failed (info = {info})")
    return w


# Coarse bisection tolerance, as a fraction of ||T||: bisection stops after
# about log2(2/_COARSE) = 21 halvings in place of some 50.  Inverse iteration
# from a coarser value ends with a larger residual, and the certificate fails
# more often: of the 576 windows of a default two-model recovery 1 falls back
# at 1e-6, 3 at 3e-6 and 88 at 1e-5; of 58 windows at k = 1000 and 2000,
# none at 1e-6 and 4 at 3e-6.
_COARSE = 1e-6


def eigs_in_window(diag, offdiag, lo, hi):
    """Eigenvalues number lo..hi (0-based, both included), ascending;
    ValueError unless 0 <= lo <= hi < len(diag).

    Bisection (LAPACK ``dstebz``) brackets each eigenvalue coarsely, to
    within tau = _COARSE * ||T||, ||T|| the Gershgorin bound; inverse
    iteration (``dstein``) gives its eigenvector z, and the Rayleigh
    quotient sigma of z is returned when Kato-Temple's bound
    |lambda - sigma| <= |r|^2 / gap, r = (T - sigma) z, is below eps ||T||
    on every row, the gap to the neighbouring eigenvalues bounded by their
    brackets.  A window whose brackets do not isolate its eigenvalues, or
    that fails the bound, is bisected to full precision (``dstebz`` at
    tolerance 0) instead; LinAlgError if that fails."""
    d, e = _as_tridiag(diag, offdiag)
    lo, hi = operator.index(lo), operator.index(hi)
    if not 0 <= lo <= hi < len(d):
        raise ValueError(f"index window {lo}..{hi} outside 0..{len(d) - 1}")
    if len(d) == 1:
        return d.copy()
    from scipy.linalg.lapack import dstebz

    w = _certified_window(d, e, lo, hi)
    if w is not None:
        return w
    # the call eigvalsh_tridiagonal(select="i", lapack_driver="stebz") makes:
    # range 2 (by index), 1-based indices, tolerance 0, order "E" (ascending)
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "E")
    if info:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info = {info})")
    # a copy: LAPACK's result is a buffer as long as the block
    return w[:m].copy()


def _certified_window(d, e, lo, hi):
    """Eigenvalues lo..hi as certified Rayleigh quotients, or None."""
    from scipy.linalg.lapack import dstebz, dstein

    ae = np.abs(e)
    norm = float(np.max(np.abs(d) + np.append(ae, 0.0) + np.append(0.0, ae)))
    tau = _COARSE * norm
    if not tau > 0:     # the zero matrix: no bracket has a width
        return None
    # bisection by index puts eigenvalue lo + j in the bracket w[j] +- tau;
    # order "B" groups the values by split block, as dstein needs, and
    # blocks whose values interleave fail the ascending check
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, tau, "B")
    w = w[:m]
    if info or m != hi - lo + 1 or not np.all(np.diff(w) > 2 * tau):
        return None
    # no other eigenvalue in (vl, vu], so eigenvalue lo - 1 is at most vl and
    # hi + 1 above vu; a tolerance wider than the interval makes this a
    # few Sturm counts, not a bisection
    vl, vu = w[0] - 2 * tau, w[-1] + 2 * tau
    mv, _, _, _, info = dstebz(d, e, 1, vl, vu, 0, 0, 4 * (vu - vl), "B")
    if info or mv != m:
        return None
    z, info = dstein(d, e, w, iblock, isplit)
    if info:
        return None
    z = z.T     # one unit eigenvector per row
    # (T - w) z: shifted by the coarse values, the quotient's rounding is
    # relative to its small correction, not to ||T||
    tz = (d - w[:, None]) * z
    tz[:, :-1] += e * z[:, 1:]
    tz[:, 1:] += e * z[:, :-1]
    step = np.einsum("ij,ij->i", z, tz)
    sigma = w + step
    r = tz - step[:, None] * z
    # eigenvalue lo + j is the only one in (below[j], above[j]), and
    # Kato-Temple holds for sigma inside that interval: a positive gap
    below, above = np.append(vl, w[:-1] + tau), np.append(w[1:] - tau, vu)
    gap = np.minimum(sigma - below, above - sigma)
    if np.all(np.einsum("ij,ij->i", r, r) < np.finfo(float).eps * norm * gap):
        return sigma
    return None
