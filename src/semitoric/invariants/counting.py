"""Counting-based invariants: height, Duistermaat-Heckman profile and its
kinks, and the smallest-gap ordinate of a focus-focus column.

The paper's Weyl-type counting in vertical strips of width ~ hbar^delta
recovers the reduced symplectic volume: with N_hbar(x, delta) the number of
joint eigenvalues in [x - hbar^delta, x + hbar^delta] x R,

    (hbar^(2-delta) / 2) N_hbar(x, delta)  ->  rho_J(x),

the Duistermaat-Heckman density.  J's spectrum is an exact hbar-lattice of
columns, so a strip count is a sum of column sizes and hbar times one
column's size is rho_J at that column with no strip width to choose:
dh_profile reads the sizes, and detect_kinks finds the slope changes as
the columns where the integer sizes' second difference is nonzero.
Counting only below the focus-focus ordinate gives the height invariant
S_{0,0}, the sub-critical reduced volume: column_height counts the one
column at x0, and height_invariant is the paper's strip route, kept as
the reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, WindowTooNarrow
from .extrap import hbar_limit

__all__ = [
    "height_invariant",
    "column_height",
    "dh_profile",
    "detect_kinks",
    "smallest_gap_midpoint",
]


def height_invariant(counter, x0: float, y0: float, delta: float = 0.4) -> tuple[float, dict]:
    """S_{0,0} = lim (hbar^(2-delta) / 2) #{spectrum in strip, y <= y0},
    extrapolated over the k family with the known hbar^delta error shape:
    the paper's route, which does not use the column lattice.  info carries
    the scaled counts in the order of ``counter.ks`` ("raw")."""
    if not 0 < delta < 0.5:
        raise ConfigurationError("delta must lie in (0, 1/2)")
    ks = list(counter.ks)
    raw = []
    for k in ks:
        hb = 1.0 / k
        w = hb ** delta
        n = counter.count(k, x0 - w, x0 + w, -np.inf, y0)
        if n < 10:
            raise WindowTooNarrow(f"k={k}: strip contains only {n} points")
        raw.append(hb ** (2 - delta) / 2 * n)
    hb = 1.0 / np.asarray(ks, dtype=float)
    A = np.vstack([np.ones_like(hb), hb ** delta]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(raw), rcond=None)
    return float(coef[0]), {"raw": raw}


def column_height(family) -> tuple[float, dict]:
    """S_{0,0} = lim hbar #{column at x0, y < y0} over a probe family
    {k: LabelledSpectrum}: one count of the heights of the column at each
    spectrum's origin (x0, y0) below y0, which solves no column, since y0
    is a gap midpoint of that column.  info carries the n_k / k in
    ascending k ("raw") and the hbar_limit slope (None when fewer than two
    samples differ from the limit)."""
    ks = sorted(family)
    raw = []
    for k in ks:
        spec = family[k]
        x0, y0 = spec.origin
        n = spec._count_below(spec.nearest_column(x0), y0)
        if n < 10:
            raise WindowTooNarrow(f"k={k}: column at x={x0} holds only {n} points below y0")
        raw.append(n / k)
    lim, info = hbar_limit(ks, raw)
    return lim, {"raw": raw, "slope": info["slope"]}


def dh_profile(blocks) -> np.ndarray:
    """The (n, 2) array of column abscissae and hbar times column sizes, in
    ascending x, of a window's J-blocks (a ``BlockSequence``, or anything
    with its ``k``, ``j_values`` and ``sizes``): the Duistermaat-Heckman
    density rho_J on each column."""
    order = np.argsort(blocks.j_values)
    return np.column_stack([blocks.j_values[order], blocks.sizes[order] / blocks.k])


def detect_kinks(blocks) -> list[float]:
    """Abscissae where a window's ``dh_profile`` changes slope: the columns
    where the second difference of the integer column sizes, in ascending
    x, is nonzero.  The end columns have no second difference, so the
    profile's ends are never reported."""
    order = np.argsort(blocks.j_values)
    return blocks.j_values[order][1:-1][np.diff(blocks.sizes[order], 2) != 0].tolist()


def smallest_gap_midpoint(ev) -> tuple[int, float]:
    """(i, y): the smallest gap ev[i+1] - ev[i] of an ascending ladder and
    its midpoint.  Above a focus-focus value the levels accumulate like
    -ln|y - y0|, so y is the column's estimate of the ordinate y0."""
    i = int(np.argmin(np.diff(ev)))
    return i, float(0.5 * (ev[i] + ev[i + 1]))
