"""Real symmetric tridiagonal eigenvalue tools.

Two routes behind one contract: a LAPACK-backed fast path (implicit
QL/QR) and an in-house Sturm-sequence bisection used as the deterministic
reference. Both return all eigenvalues ascending, accurate to
``eig_rel * spectral_radius``.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import NumericalFailure

__all__ = [
    "eigs_sym_tridiagonal",
    "eigs_in_window",
    "sturm_count_below",
    "spectral_radius_bound",
]


def _as_tridiag(diag, offdiag):
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
        raise ValueError("need len(offdiag) == len(diag) - 1")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("non-finite matrix entries")
    return d, e


def spectral_radius_bound(d, e):
    """Gershgorin bound on |eigenvalues|."""
    if len(d) == 1:
        return abs(d[0])
    pad = np.concatenate([[0.0], np.abs(e)]) + np.concatenate([np.abs(e), [0.0]])
    return float(np.max(np.abs(d) + pad))


def sturm_count_below(diag, offdiag, y):
    """Number of eigenvalues strictly below y (LDL^T pivot sign count)."""
    d, e = _as_tridiag(diag, offdiag)
    # Python floats: a pivot near zero sends e^2/q to +-inf without the
    # overflow warning numpy scalars raise, and the sign count is the same
    d, e, y = d.tolist(), e.tolist(), float(y)
    count = 0
    q = d[0] - y
    if q < 0:
        count += 1
    for i in range(1, len(d)):
        if q == 0.0:
            q = 1e-300
        q = d[i] - y - e[i - 1] * e[i - 1] / q
        if q < 0:
            count += 1
    return count


def _bisect_eigs(d, e):
    """All eigenvalues, ascending, by Sturm-count bisection."""
    rad = spectral_radius_bound(d, e)
    tol = TOL.eig_rel * max(rad, 1.0)
    out = []
    for i in range(len(d)):
        a, b = -rad - 1.0, rad + 1.0
        it = 0
        while b - a > tol:
            it += 1
            if it > TOL.bisection_max_iter:
                raise NumericalFailure("Sturm bisection did not converge")
            m = 0.5 * (a + b)
            if sturm_count_below(d, e, m) <= i:
                a = m
            else:
                b = m
        out.append(0.5 * (a + b))
    return np.array(out)


def eigs_sym_tridiagonal(diag, offdiag, method="auto"):
    """All eigenvalues of the symmetric tridiagonal matrix, ascending.

    method: "auto" (LAPACK implicit QL/QR), or "sturm" for the bisection
    reference implementation.
    """
    d, e = _as_tridiag(diag, offdiag)
    if len(d) == 1:
        return d.copy()
    if method == "auto":
        from scipy.linalg import eigvalsh_tridiagonal

        return eigvalsh_tridiagonal(d, e)
    if method == "sturm":
        return _bisect_eigs(d, e)
    raise ValueError(f"unknown method {method!r}")


def eigs_in_window(diag, offdiag, lo, hi):
    """Eigenvalues in (lo, hi], ascending: the full solve, cut to the window."""
    ev = eigs_sym_tridiagonal(diag, offdiag)
    return ev[(ev > lo) & (ev <= hi)]
