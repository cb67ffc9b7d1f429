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
_ROWS = 4096           # sample points per pass of hausdorff's node lookup
_SKIP = 1.0 - 1e-9     # a bound below the running maximum times this cannot attain it


def hausdorff(cloud, sample, hbar: float, shift) -> float:
    """Two-sided Hausdorff distance between ``cloud + shift`` and
    ``sample``, (n, 2) arrays: the largest distance from a point of either
    set to its nearest point of the other, exactly as k-d tree queries of
    every point give it.

    Only the points whose nearest distance may reach the maximum are
    queried.  A point's distance to any point of the other set bounds its
    nearest distance from above: a sample point's to the cloud point on
    its lattice node rint((b - shift) / hbar), a cloud point's to the
    sample point at its nearest sample column and rounded row.  The sample
    points with no cloud point on their node are queried first; then a
    point whose bound is below the running maximum (less a relative 1e-9,
    for the last bits in which this arithmetic and the tree's may differ)
    is skipped, and a tree over the sample is built only when some cloud
    point is not.  The bounds are tight when the cloud is hbar times
    integer labels and the sample is laid out as ``sample_polygon_region``
    lays it out; the value is exact for any two sets.
    """
    from scipy.spatial import cKDTree

    cloud = np.asarray(cloud, dtype=float).reshape(-1, 2)
    sample = np.asarray(sample, dtype=float).reshape(-1, 2)
    moved = cloud + shift
    # the cloud's lattice nodes, as sorted codes over their bounding box
    node = np.rint(cloud / hbar).astype(np.int64)
    base = node.min(axis=0)
    width = node[:, 1].max() - base[1] + 1
    code = (node[:, 0] - base[0]) * width + (node[:, 1] - base[1])
    order = np.argsort(code)
    code = code[order]
    bound = np.empty(len(sample))
    for s in range(0, len(sample), _ROWS):
        b = sample[s:s + _ROWS]
        n = np.rint((b - shift) / hbar).astype(np.int64) - base
        c = n[:, 0] * width + n[:, 1]
        # a node off the box may alias another node's code: its point bounds as well
        i = np.minimum(np.searchsorted(code, c), len(code) - 1)
        bound[s:s + len(b)] = np.where(code[i] == c, _distance(b, moved[order[i]]), np.inf)
    tree = cKDTree(moved)
    far = np.isinf(bound)
    top = _farthest(tree, sample[far])
    top = max(top, _farthest(tree, sample[~far & (bound >= top * _SKIP)]))
    unbounded = _distance(moved, sample[_column_mate(sample, moved)]) >= top * _SKIP
    if unbounded.any():
        top = max(top, _farthest(cKDTree(sample), moved[unbounded]))
    return top


def _column_mate(sample, points) -> np.ndarray:
    """Index of the sample point at each point's nearest sample column
    (a run of equal abscissa) and rounded row of that column."""
    start = np.flatnonzero(np.r_[True, sample[1:, 0] != sample[:-1, 0]])
    end = np.append(start[1:], len(sample))
    col_x, col_lo = sample[start, 0], sample[start, 1]
    step = (sample[end - 1, 1] - col_lo) / np.maximum(end - start - 1, 1)
    step[step == 0] = 1.0   # one-point columns
    right = np.minimum(np.searchsorted(col_x, points[:, 0]), len(start) - 1)
    left = np.maximum(right - 1, 0)
    col = np.where(points[:, 0] - col_x[left] < col_x[right] - points[:, 0], left, right)
    row = np.clip(np.rint((points[:, 1] - col_lo[col]) / step[col]), 0, end[col] - start[col] - 1)
    return start[col] + row.astype(np.int64)


def _distance(a, b) -> np.ndarray:
    return np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])


def _farthest(tree, points) -> float:
    """The largest of the points' distances to the tree's nearest point, 0
    for no points."""
    return float(tree.query(points)[0].max()) if len(points) else 0.0


@dataclass
class PolygonEstimate:
    cloud: np.ndarray                      # hbar * labels
    fitted_vertices: list
    x_translation: float                   # exact column alignment to momentum x
    columns: np.ndarray                    # (abscissa, lo, hi) of the columns the edges fit


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
    fitted = np.zeros(len(col_x), dtype=bool)
    for lo, hi in zip(seg_bounds, seg_bounds[1:]):
        on = (col_x >= lo + _EDGE_MARGIN) & (col_x <= hi - _EDGE_MARGIN)
        if on.sum() < 5:
            raise EdgeFitFailure(
                f"only {on.sum()} columns available on segment [{lo + tx:.2f}, {hi + tx:.2f}]"
            )
        top.append(np.polyfit(col_x[on], col_hi[on], 1))
        bottom.append(np.polyfit(col_x[on], col_lo[on], 1))
        fitted |= on
    columns = np.column_stack((col_x, col_lo, col_hi))[fitted]
    return PolygonEstimate(cloud, _edge_intersections(top, bottom, strip), tx, columns)


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
    """The reference polygon on a step grid over the strip, column by
    column in ascending abscissa, each column the ordinates from the
    slice's lower end up by step: ``hausdorff``'s sample layout."""
    xs = np.arange(strip[0], strip[1] + 1e-12, step)
    lo, hi = model.polygon_slice(xs)
    on = hi >= lo
    ys = [np.arange(a, b + 1e-12, step) for a, b in zip(lo[on], hi[on])]
    if not ys:
        return np.array([])
    return np.column_stack((np.repeat(xs[on], [len(y) for y in ys]), np.concatenate(ys)))
