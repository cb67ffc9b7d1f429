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
_MEMO_SLACK = 1e-9     # rounding allowance of hausdorff's memo bounds


def hausdorff(set_a, set_b, memo: dict | None = None) -> float:
    """Two-sided Hausdorff distance between finite point sets.  ``set_b``
    may be given as a ``cKDTree`` of its points, so that a caller measuring
    many sets against the same one builds its tree once.

    ``memo`` serves a search that moves the points of ``set_a`` (same
    shape, same order) against one ``set_b`` tree: pass the same dict,
    empty at first, to each call.  Both directed distances are
    1-Lipschitz: moving each a_i by delta_i changes d(a_i, B) by at most
    delta_i and every d(b, A) by at most max delta_i.  So the per-point
    distances of the last full evaluation, which the memo stores, bound
    every point's distance now, and a point whose upper bound lies below
    the largest lower bound less a rounding slack of 1e-9 cannot attain
    the maximum and is not queried.  The other points are queried exactly
    as a full evaluation queries them, so the result is the same float.
    When more than half of the points remain, the call evaluates in full
    and stores its distances.
    """
    from scipy.spatial import cKDTree

    A = np.atleast_2d(np.asarray(set_a, dtype=float))
    if not isinstance(set_b, cKDTree):
        set_b = cKDTree(np.atleast_2d(np.asarray(set_b, dtype=float)))
    B = set_b.data
    if memo and memo["tree"] is set_b and memo["a"].shape == A.shape:
        moved = np.linalg.norm(A - memo["a"], axis=1)
        reach = moved.max()
        floor = max((memo["to_b"] - moved).max(), memo["to_a"].max() - reach) - _MEMO_SLACK
        near_a = memo["to_b"] + moved >= floor
        near_b = memo["to_a"] + reach >= floor
        if 2 * (near_a.sum() + near_b.sum()) <= len(A) + len(B):
            to_b = set_b.query(A[near_a])[0]
            to_a = cKDTree(A).query(B[near_b])[0]
            return max(to_b.max(initial=0.0), to_a.max(initial=0.0))
    to_b = set_b.query(A)[0]
    to_a = cKDTree(A).query(B)[0]
    if memo is not None:
        memo.update(tree=set_b, a=A.copy(), to_b=to_b, to_a=to_a)
    return max(to_b.max(), to_a.max())


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
