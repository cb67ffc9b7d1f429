"""Real symmetric tridiagonal eigenvalue tools.

A whole spectrum comes from one LAPACK solve of the whole matrix (``dsterf``,
the root-free QL/QR iteration), O(n^2).  The eigenvalues numbered lo..hi cost
O(n) each: LAPACK bisection (``dstebz``) brackets each one coarsely, inverse
iteration from the brackets' centres finds its eigenvector, all rows of the
window at once through one stacked tridiagonal LU (``dgttrf``, then
``dgttrs``), and the vector's Rayleigh quotient is returned when
Kato-Temple's residual bound puts it within eps*||T|| of the eigenvalue; a
window whose eigenvalues the brackets do not part, or that fails the bound,
is bisected to full precision instead.  The Sturm count of the eigenvalues
below a height is one ``dstebz`` count by value, no solve, and gives the
number of the eigenvalue just above it.
"""

from __future__ import annotations

import functools
import math
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
    """Number of eigenvalues strictly below y; ValueError for a NaN y.

    One LAPACK ``dstebz`` count by value over (vl, nextafter(y, -inf)],
    vl below the Gershgorin interval, with no bisection: the Sturm count
    of the LDL^T pivots' signs at that height.  A height outside the
    Gershgorin interval needs no count, and a matrix with ||T|| outside
    _NORM_RANGE is counted scaled by the exact power of two its index
    windows use."""
    d, e = _as_tridiag(diag, offdiag)
    y = float(y)
    if np.isnan(y):
        raise ValueError("height is NaN")
    d, e, gl, gu, p = _scaled(d, e)
    y = math.ldexp(y, -p)
    if y <= gl:
        return 0
    if y > gu:
        return len(d)
    from scipy.linalg.lapack import dstebz

    # range 1 (by value) counts the eigenvalues in (vl, vu]; a tolerance
    # wider than the interval leaves no bisection to do
    vl, vu = -2 * max(-gl, gu), math.nextafter(y, -math.inf)
    m, _, _, _, info = dstebz(d, e, 1, vl, vu, 0, 0, 4 * (vu - vl), "E")
    if info:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info = {info})")
    return int(m)


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


# Coarse bisection tolerance, as a fraction of the mean eigenvalue spacing
# ||T|| / n: tau = _COARSE * ||T|| / n.  _SOLVES inverse-iteration solves
# from a shift that close, on average 100 times closer to its eigenvalue
# than to the next, end with a residual that certifies nearly every
# window: none of the 584 windows of a default two-model recovery falls
# back, none of 716 at k = 500, 1000 and 2000 (spin-oscillator; coupled
# (1, 5/2, 1/2), (1, 5/2, 0.4) and (1/2, 3/2, 1/2)), and 12 of 7,117 over
# the spin-oscillator and the coupled t sweep 0.35 .. 0.70 at radii
# (1, 5/2), (1/2, 3/2) and (1, 2).  The former tau = 1e-6 ||T|| with
# LAPACK's dstein polish failed 1 of 576, 6 of 708 and 4 of 7,021 there.
_COARSE = 1e-2

# Outside this ||T|| range LAPACK's bisection overflows (dstebz fails at
# ~1e300) or misreads subnormals (~1e-320), so the window and the count
# scale such a matrix by an exact power of two; model blocks (||T|| 0.58
# to 0.81) keep their bits.
_NORM_RANGE = (2.0 ** -256, 2.0 ** 256)

# inverse-iteration solves from the coarse values
_SOLVES = 4


@functools.cache
def _start() -> np.ndarray:
    """The start of inverse iteration, fixed and pseudo-random as LAPACK's
    dstein takes it: no frequency or symmetry that an eigenvector could be
    nearly orthogonal to.  A window's rows start from consecutive stretches
    of it, repeated cyclically past its end.  Made on first use, so that
    importing the package does not import numpy.random."""
    z = np.random.default_rng(1).uniform(-1.0, 1.0, 4096)
    z.flags.writeable = False
    return z


def _scaled(d, e):
    """(d, e, gl, gu, p): the matrix and its Gershgorin interval [gl, gu]
    scaled by 2^-p, p = 0 unless the Gershgorin bound ||T|| = max(-gl, gu)
    lies outside _NORM_RANGE."""
    ae = np.abs(np.concatenate(([0.0], e, [0.0])))
    radius = ae[:-1] + ae[1:]
    gl, gu = float(np.min(d - radius)), float(np.max(d + radius))
    norm = max(-gl, gu)
    p = 0 if _NORM_RANGE[0] <= norm <= _NORM_RANGE[1] else int(np.frexp(norm)[1])
    if p:
        d, e = np.ldexp(d, -p), np.ldexp(e, -p)
        gl, gu = float(np.ldexp(gl, -p)), float(np.ldexp(gu, -p))
    return d, e, gl, gu, p


def eigs_in_window(diag, offdiag, lo, hi):
    """Eigenvalues number lo..hi (0-based, both included), ascending;
    ValueError unless 0 <= lo <= hi < len(diag).

    Bisection (LAPACK ``dstebz``) brackets each eigenvalue coarsely, to
    within tau = _COARSE * ||T|| / n, ||T|| the Gershgorin bound; _SOLVES
    steps of inverse iteration from the brackets' centres, one stacked
    tridiagonal LU for the whole window, give its eigenvector z, and the
    Rayleigh quotient sigma of z is returned when Kato-Temple's bound
    |lambda - sigma| <= |r|^2 / gap, r = (T - sigma) z, is below eps ||T||
    on every row, the gap to the neighbouring eigenvalues bounded by their
    brackets.  A window whose brackets do not isolate its eigenvalues, or
    that fails the bound, is bisected to full precision (``dstebz`` at
    tolerance 0) instead; LinAlgError if that fails.  A matrix with
    ||T|| outside _NORM_RANGE is solved scaled by an exact power of two."""
    d, e = _as_tridiag(diag, offdiag)
    lo, hi = operator.index(lo), operator.index(hi)
    if not 0 <= lo <= hi < len(d):
        raise ValueError(f"index window {lo}..{hi} outside 0..{len(d) - 1}")
    if len(d) == 1:
        return d.copy()
    from scipy.linalg.lapack import dstebz

    d, e, gl, gu, p = _scaled(d, e)
    w = _certified_window(d, e, lo, hi, max(-gl, gu))
    if w is None:
        # the call eigvalsh_tridiagonal(select="i", lapack_driver="stebz") makes:
        # range 2 (by index), 1-based indices, tolerance 0, order "E" (ascending)
        m, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "E")
        if info:
            raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info = {info})")
        w = w[:m]
    # a new array, never LAPACK's result buffer, which is as long as the block
    return np.ldexp(w, p)


def _certified_window(d, e, lo, hi, norm):
    """Eigenvalues lo..hi as certified Rayleigh quotients, or None; norm is
    the Gershgorin bound on ||T||."""
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

    n = len(d)
    tau = _COARSE * norm / n
    # the zero matrix has no bracket width; scipy's dgttrf wrapper refuses
    # a matrix of order 2, and a block that small is bisected as cheaply
    if not tau > 0 or n < 3:
        return None
    # bisection by index puts eigenvalue lo + j in the bracket w[j] +- tau
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, tau, "E")
    w = w[:m]
    if info or m != hi - lo + 1 or not np.all(np.diff(w) > 2 * tau):
        return None
    # no other eigenvalue in (vl, vu], so eigenvalue lo - 1 is at most vl and
    # hi + 1 above vu; a tolerance wider than the interval makes this a
    # few Sturm counts, not a bisection
    vl, vu = w[0] - 2 * tau, w[-1] + 2 * tau
    mv, _, _, _, info = dstebz(d, e, 1, vl, vu, 0, 0, 4 * (vu - vl), "E")
    if info or mv != m:
        return None
    # the m shifted matrices T - w[j] as the blocks of one tridiagonal
    # matrix, uncoupled by zero off-diagonals, factored once
    off = np.tile(np.append(e, 0.0), m)[:-1]
    lu = dgttrf(off, (d - w[:, None]).ravel(), off)
    if lu[-1]:
        return None
    z = np.resize(_start(), (m, n))
    for _ in range(_SOLVES):
        z, info = dgttrs(*lu[:-1], z.reshape(-1, 1), overwrite_b=True)
        if info:
            return None
        # each row a unit vector after each solve, so that no row overflows
        # or underflows at any ||T|| in _NORM_RANGE
        z = z.reshape(m, n)
        z /= np.sqrt(np.einsum("ij,ij->i", z, z))[:, None]
    if not np.all(np.isfinite(z)):
        return None
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
