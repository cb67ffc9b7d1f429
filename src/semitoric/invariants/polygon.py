"""Polygon reconstruction from a global labelling and Hausdorff comparison.

hbar times the global labels of the spectrum restricted to a strip (less
the cut: the column above the focus-focus value) converges to the image of
the cartographic map: a convex polygon, up to one undetermined translation.
Edges are fitted to the per-column label extremes between critical
abscissae, _EDGE_MARGIN away from each, and the vertices are read off the
pairwise edge intersections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EdgeFitFailure
from ..models import ModelSpec

__all__ = [
    "PolygonEstimate",
    "polygon_recover",
    "hausdorff",
    "sample_polygon_region",
]

_EDGE_MARGIN = 0.15    # edge fits keep this far from cuts, corners and the strip ends
_MIN_SLOPE_GAP = 0.2   # edges whose slopes differ by less meet at no vertex
_BOUND_SLACK = 1e-9    # rounding allowance of hausdorff's per-point bounds


def hausdorff(set_a, set_b, bounds=None) -> float:
    """Two-sided Hausdorff distance between finite point sets.  ``set_b``
    may be given as a ``cKDTree`` of its points, so that a caller measuring
    many sets against the same one builds its tree once.

    ``bounds``, a pair of arrays, holds an upper bound of each point's
    distance to the other set: d(a_i, B) for ``set_a`` and d(b_j, A) for
    ``set_b``, in their orders (``_Columns.bound`` gives such bounds).
    The point with the largest bound is queried exactly; a point whose
    bound lies below that distance less a rounding slack of 1e-9 cannot
    attain the maximum and is not queried.  The other points are queried
    exactly as a full evaluation queries them, so the result is the same
    float.
    """
    from scipy.spatial import cKDTree

    A = np.atleast_2d(np.asarray(set_a, dtype=float))
    if not isinstance(set_b, cKDTree):
        set_b = cKDTree(np.atleast_2d(np.asarray(set_b, dtype=float)))
    B = set_b.data
    if bounds is None:
        return max(set_b.query(A)[0].max(), cKDTree(A).query(B)[0].max())
    bound_a, bound_b = bounds
    tree_a = cKDTree(A)
    if bound_a.max() >= bound_b.max():
        top = set_b.query(A[np.argmax(bound_a)])[0]
    else:
        top = tree_a.query(B[np.argmax(bound_b)])[0]
    floor = top - _BOUND_SLACK
    to_b = set_b.query(A[bound_a >= floor])[0]
    to_a = tree_a.query(B[bound_b >= floor])[0]
    return max(to_b.max(initial=0.0), to_a.max(initial=0.0))


class _Columns:
    """A finite point set laid out in columns: x = x0 + step * i and, in
    column i, y = lo_i + step * m for m = 0..n_i - 1 (n_i = 0 allowed).

    ``bound`` reads, for each query point, the clamped nearest row of the
    two columns on either side of it.  That is a point of the set, so its
    distance bounds the distance to the set from above, in closed form; a
    set that only roughly keeps the layout gets looser bounds, not wrong
    ones.
    """

    def __init__(self, points, step: float):
        pts = np.asarray(points, dtype=float)
        self.x0 = float(pts[:, 0].min())
        self.step = step
        col = np.rint((pts[:, 0] - self.x0) / step).astype(np.intp)
        order = np.lexsort((pts[:, 1], col))
        self.x, self.y = pts[order, 0], pts[order, 1]
        self.n = np.bincount(col, minlength=1)
        self.start = np.cumsum(self.n) - self.n
        # an empty column's start is the next column's, so it indexes a point
        self.lo = self.y[self.start]

    def bound(self, q, shift=(0.0, 0.0)) -> np.ndarray:
        """Per-point upper bounds of the distance from ``q`` (m, 2) to the
        set moved by ``shift``; inf where both columns are empty."""
        q = np.asarray(q, dtype=float)
        qx, qy = q[:, 0], q[:, 1]
        sx, sy = shift
        step, last = self.step, len(self.n) - 1
        left = np.clip(np.floor((qx - (self.x0 + sx)) / step), 0, last).astype(np.intp)
        best = np.full(len(q), np.inf)
        for c in (left, np.minimum(left + 1, last)):
            n = self.n[c]
            row = np.clip(np.rint((qy - (self.lo[c] + sy)) / step), 0, np.maximum(n - 1, 0))
            i = self.start[c] + row.astype(np.intp)
            d2 = (qx - (self.x[i] + sx)) ** 2 + (qy - (self.y[i] + sy)) ** 2
            d2[n == 0] = np.inf
            np.minimum(best, d2, out=best)
        return np.sqrt(best)


@dataclass
class PolygonEstimate:
    cloud: np.ndarray                      # hbar * labels
    fitted_vertices: list
    x_translation: float = 0.0             # exact column alignment to momentum x


def polygon_recover(points: np.ndarray, labels: np.ndarray, hbar: float,
                    critical_xs, strip) -> PolygonEstimate:
    """Fit polygon edges to the labelled cloud.

    points, labels: matching (n,2) arrays; critical_xs: abscissae of cuts and
    corners (fits keep _EDGE_MARGIN away from them); strip: (xlo, xhi).
    """
    labels = np.asarray(labels, dtype=float)
    cloud = hbar * labels
    # everything below lives in the hbar*label frame; the momentum abscissae
    # (criticals, strip) are carried over by the exact column translation
    tx = float(np.median(points[:, 0] - cloud[:, 0]))
    # each column's abscissa and its lowest and highest label
    j = np.rint(labels[:, 0])
    order = np.lexsort((labels[:, 1], j))
    col_j, first, size = np.unique(j[order], return_index=True, return_counts=True)
    col_x = hbar * col_j
    col_lo = hbar * labels[order, 1][first]
    col_hi = hbar * labels[order, 1][first + size - 1]
    crit = sorted(c - tx for c in critical_xs)
    strip = (strip[0] - tx, strip[1] - tx)
    seg_bounds = [strip[0]] + [c for c in crit if strip[0] < c < strip[1]] + [strip[1]]
    top, bottom = [], []
    for lo, hi in zip(seg_bounds, seg_bounds[1:]):
        on = (col_x >= lo + _EDGE_MARGIN) & (col_x <= hi - _EDGE_MARGIN)
        if on.sum() < 5:
            raise EdgeFitFailure(
                f"only {on.sum()} columns available on segment [{lo:.2f}, {hi:.2f}]"
            )
        top.append(np.polyfit(col_x[on], col_hi[on], 1))
        bottom.append(np.polyfit(col_x[on], col_lo[on], 1))
    return PolygonEstimate(cloud, _edge_intersections(top, bottom, strip), tx)


def _edge_intersections(top, bottom, strip):
    """Vertices of the two chains of (slope, intercept) edges, each chain
    ordered by abscissa: the crossings of consecutive edges, and where the
    chains meet each other beyond the strip ends."""
    verts = [v for chain in (top, bottom) for v in map(_cross, chain, chain[1:])
             if v is not None]
    for pick in (0, -1):
        v = _cross(top[pick], bottom[pick])
        if v is not None and strip[0] - 0.6 <= v[0] <= strip[1] + 0.6:
            verts.append(v)
    return sorted(verts)


def _cross(e1, e2):
    (s1, i1), (s2, i2) = e1, e2
    if abs(s1 - s2) < _MIN_SLOPE_GAP:
        return None
    x = (i2 - i1) / (s1 - s2)
    return (float(x), float(s1 * x + i1))


def sample_polygon_region(model: ModelSpec, strip, step: float) -> np.ndarray:
    out = []
    for x in np.arange(strip[0], strip[1] + 1e-12, step):
        lo, hi = model.polygon_slice(x)
        if hi >= lo:
            ys = np.arange(lo, hi + 1e-12, step)
            out.append(np.column_stack((np.full(len(ys), x), ys)))
    return np.concatenate(out) if out else np.array([])
