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
    adjacent in x carry adjacent labels.  ``ladder(j)`` returns the
    ascending row labels l of column j and their strictly ascending
    heights; it is called the first time an estimator reads column j, and
    its result is kept.
    """

    def __init__(self, k: int, column_x, ladder, origin: tuple[float, float] | None = None):
        self.k = k
        self.hbar = 1.0 / k
        self.column_x = dict(sorted(column_x.items()))
        self._js = np.fromiter(self.column_x, dtype=int, count=len(self.column_x))
        self._xs = np.fromiter(self.column_x.values(), dtype=float, count=len(self.column_x))
        self.origin = origin   # per-k estimate of the focus-focus value
        self._solve = ladder
        self._ladders: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def ladder(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(ascending l, heights) of column j."""
        if j not in self._ladders:
            if j not in self.column_x:
                raise MissingNeighbor(f"no column j={j}")
            self._ladders[j] = self._solve(j)
        return self._ladders[j]

    def nearest_column(self, x: float) -> int:
        """The column whose abscissa is nearest x; ties go to the smaller j."""
        return int(self._js[np.argmin(np.abs(self._xs - x))])

    def a1a2_interpolated(self, c) -> tuple[float, float]:
        """Spacing functionals (a1, a2) at the probe c, evaluated at the
        exact height c[1] by local cubic interpolation of the spacings and
        row differences of the column nearest c[0] and the next one."""
        j = self.nearest_column(c[0])
        ls0, ys0 = self.ladder(j)
        ls1, ys1 = self.ladder(j + 1)
        y = float(c[1])
        mids = 0.5 * (ys0[1:] + ys0[:-1])
        sp = np.diff(ys0)
        s_t = _interp_cubic(mids, sp, y)
        _, i0, i1 = np.intersect1d(ls0, ls1, assume_unique=True, return_indices=True)
        if len(i0) < 2:
            raise MissingNeighbor("columns share fewer than 2 labels")
        d_t = _interp_cubic(ys0[i0], ys0[i0] - ys1[i1], y)
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
    a lower degree).  The stencil depends on where x lies among the nodes,
    not on distance ranks, so the interpolant is continuous in x: nodes
    symmetric about x leave no tie for rounding noise in x to break."""
    i = min(max(int(np.searchsorted(xs, x)) - 2, 0), max(len(xs) - 4, 0))
    xs, ys = xs[i:i + 4], ys[i:i + 4]
    return float(np.polyfit(xs - x, ys, len(xs) - 1)[-1])

