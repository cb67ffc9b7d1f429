"""Level-spacing functionals a1, a2 read off a labelled joint spectrum.

With a semitoric labelling lambda_(j,l) = (J_(j,l), E_(j,l)) near a regular
value c, the spacings satisfy

    (E_(j,l) - E_(j+1,l)) / hbar            -> a1(c)/a2(c),
    hbar / (E_(j,l+1) - E_(j,l))            -> a2(c),

where (a1, a2) decompose the action field: ham L = a1 ham J + a2 ham H.
``LabelledSpectrum.a1a2_interpolated`` evaluates them at the exact probe
height from the local eigenvalue ladders, not at a labelled eigenvalue
near it, which removes the anchor jitter that would otherwise dominate the
hbar extrapolation.  ``ray_samples`` reads it along a ray for every k of a
family into the probe table that the limit extractions take.
"""

from __future__ import annotations

import numpy as np

from ..errors import MissingNeighbor

__all__ = ["LabelledSpectrum", "ray_samples"]


class LabelledSpectrum:
    """Eigenvalue ladders of the columns of a joint spectrum, labelled (j, l).

    ``column_x`` maps each column label j to the column's abscissa; columns
    adjacent in x carry adjacent labels.  Each column's rows are numbered
    l = 0, 1, ... from its lowest.  ``ladder(j)`` returns the strictly
    ascending heights of column j; it is called the first time column j is
    read whole, and its result is kept.

    A probe reads index windows of two columns only, through ``_size``,
    ``_count_below`` and ``_heights``.  Here they read the kept ladders; a
    spectrum whose columns can be solved in part (``pipeline.BlockSpectrum``)
    overrides them, so that no probe solves a whole column.
    """

    def __init__(self, k: int, column_x, ladder, origin: tuple[float, float] | None = None):
        self.k = k
        self.hbar = 1.0 / k
        self.column_x = dict(sorted(column_x.items()))
        self._js = np.fromiter(self.column_x, dtype=int, count=len(self.column_x))
        self._xs = np.fromiter(self.column_x.values(), dtype=float, count=len(self.column_x))
        self.origin = origin   # per-k estimate of the focus-focus value
        self._solve = ladder
        self._ladders: dict[int, np.ndarray] = {}

    def ladder(self, j: int) -> np.ndarray:
        """The ascending heights of column j."""
        if j not in self._ladders:
            if j not in self.column_x:
                raise MissingNeighbor(f"no column j={j}")
            self._ladders[j] = self._solve(j)
        return self._ladders[j]

    def _size(self, j: int) -> int:
        """Number of rows of column j."""
        return len(self.ladder(j))

    def _count_below(self, j: int, y: float) -> int:
        """Number of heights of column j below y."""
        return int(np.searchsorted(self.ladder(j), y))

    def _heights(self, j: int, lo: int, hi: int) -> np.ndarray:
        """Heights of rows lo..hi - 1 of column j."""
        return self.ladder(j)[lo:hi]

    def nearest_column(self, x: float) -> int:
        """The column whose abscissa is nearest x; ties go to the smaller j."""
        return int(self._js[np.argmin(np.abs(self._xs - x))])

    def a1a2_interpolated(self, c) -> tuple[float, float]:
        """Spacing functionals (a1, a2) at the probe c, evaluated at the
        exact height c[1] by local cubic interpolation of the spacings and
        row differences of the column nearest c[0] and the next one.

        Only the stencils' nodes are read: the 5 heights of column j whose
        spacings the first cubic takes, and the 4 rows, nearest the height,
        that column j shares with column j + 1: rows 0 .. stop - 1, stop the
        shorter column's size."""
        j = self.nearest_column(c[0])
        y = float(c[1])
        n0 = self._size(j)
        stop = min(n0, self._size(j + 1))
        if stop < 2:
            raise MissingNeighbor("columns share fewer than 2 rows")
        # rows r-3..r+2 around the count r of heights below y hold both
        # stencils, also when the count and the solved heights disagree by
        # one about a height tied with y; the stencils are chosen from the
        # solved heights, so that such a tie picks them as a whole ladder would
        r = self._count_below(j, y)
        lo, hi = max(0, min(r - 3, n0 - 6)), min(n0, max(r + 3, 6))
        ys0 = self._heights(j, lo, hi)
        s_t = _interp_cubic(0.5 * (ys0[1:] + ys0[:-1]), np.diff(ys0), y)
        r = lo + int(np.searchsorted(ys0, y))
        d_lo = max(min(r - 2, stop - 4), 0)
        d_hi = min(d_lo + 4, stop)
        if lo <= d_lo and d_hi <= hi:
            d0 = ys0[d_lo - lo:d_hi - lo]
        else:
            d0 = self._heights(j, d_lo, d_hi)
        d1 = self._heights(j + 1, d_lo, d_hi)
        d_t = _interp_cubic(d0, d0 - d1, y)
        return d_t / s_t, self.hbar / s_t


def ray_samples(family: dict[int, LabelledSpectrum], slope: float,
                xs) -> tuple[np.ndarray, np.ndarray]:
    """The probe table of a ray: (a1, a2), each with one row per k of
    ``family`` (ascending) and one column per x of ``xs``, read by
    ``a1a2_interpolated`` at c = c0 + x*(1, slope), c0 being each k's own
    ``origin``; every spectrum of ``family`` must carry one."""
    ks = sorted(family)
    a1 = np.empty((len(ks), len(xs)))
    a2 = np.empty((len(ks), len(xs)))
    for i, k in enumerate(ks):
        spec = family[k]
        x0, y0 = spec.origin
        for j, x in enumerate(xs):
            a1[i, j], a2[i, j] = spec.a1a2_interpolated((x0 + x, y0 + slope * x))
    return a1, a2


def _interp_cubic(xs, ys, x):
    """Value at x of the cubic through the two ascending nodes below x and
    the two above it (the four end nodes near an end of xs; fewer nodes,
    a lower degree), by Neville's scheme on the nodes' offsets from x.
    The stencil depends on where x lies among the nodes, not on distance
    ranks, so the interpolant is continuous in x: nodes symmetric about x
    leave no tie for rounding noise in x to break."""
    i = min(max(int(np.searchsorted(xs, x)) - 2, 0), max(len(xs) - 4, 0))
    t = (xs[i:i + 4] - x).tolist()
    p = ys[i:i + 4].tolist()
    # p[a] becomes the value at x of the polynomial through nodes a..a + s
    for s in range(1, len(t)):
        for a in range(len(t) - s):
            p[a] = (t[a + s] * p[a] - t[a] * p[a + 1]) / (t[a + s] - t[a])
    return p[0]
