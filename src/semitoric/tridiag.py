"""Real symmetric tridiagonal eigenvalue tools.

A whole spectrum comes from one LAPACK solve (implicit QL/QR) of the whole
matrix, O(n^2); the eigenvalues numbered lo..hi come from LAPACK bisection
(``stebz``) at a cost of O(n) per eigenvalue; the Sturm count of the
eigenvalues below a height needs no solve, and gives the number of the
eigenvalue just above it.
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
    """Number of eigenvalues strictly below y (LDL^T pivot sign count)."""
    d, e = _as_tridiag(diag, offdiag)
    # d - y and e^2 are the first operations of each step, the same IEEE
    # operations on arrays; the pivots run on Python floats, where a pivot
    # near zero sends e^2/q to +-inf without the overflow warning numpy
    # scalars raise, and the sign count is the same
    dy, e2 = (d - float(y)).tolist(), (e * e).tolist()
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
    (LAPACK implicit QL/QR)."""
    d, e = _as_tridiag(diag, offdiag)
    if len(d) == 1:
        return d.copy()
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(d, e)


def eigs_in_window(diag, offdiag, lo, hi):
    """Eigenvalues number lo..hi (0-based, both included), ascending, by
    LAPACK bisection; ValueError unless 0 <= lo <= hi < len(diag)."""
    d, e = _as_tridiag(diag, offdiag)
    lo, hi = operator.index(lo), operator.index(hi)
    if not 0 <= lo <= hi < len(d):
        raise ValueError(f"index window {lo}..{hi} outside 0..{len(d) - 1}")
    if len(d) == 1:
        return d.copy()
    from scipy.linalg.lapack import dstebz

    # the call eigvalsh_tridiagonal(select="i", lapack_driver="stebz") makes:
    # range 2 (by index), 1-based indices, tolerance 0, order "E" (ascending)
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "E")
    if info:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info = {info})")
    # a copy: LAPACK's result is a buffer as long as the block
    return w[:m].copy()
