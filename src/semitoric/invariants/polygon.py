"""Polygon reconstruction from a global labelling and Hausdorff comparison.

hbar times the global labels of the spectrum restricted to a strip (less
the cut: the column above the focus-focus value) converges to the image of
the cartographic map: a convex polygon, up to one undetermined translation.
Its column ends are integer labels whose steps are constant along an edge
(Vu Ngoc, Adv. Math. 2007), so each chain splits at the critical abscissae
into exact lines, and the vertices are their exact crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..models import ModelSpec

__all__ = [
    "PolygonEstimate",
    "polygon_recover",
    "hausdorff",
    "sample_polygon_region",
]

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
    columns: np.ndarray                    # (abscissa, lo, hi) of every column; hi nan at the cut


def polygon_recover(points: np.ndarray, labels: np.ndarray, hbar: float,
                    critical_xs, strip) -> PolygonEstimate:
    """Read the polygon off the labelled cloud's two integer chains.

    points, labels: matching (n,2) arrays; critical_xs: column abscissae
    of the cut (first) and the corners; strip: (xlo, xhi).
    """
    labels = np.asarray(labels, dtype=float)
    cloud = hbar * labels
    # everything below lives in the label frame; the momentum abscissae
    # (criticals, strip) are carried over by the exact column translation
    tx = float(np.median(points[:, 0] - cloud[:, 0]))
    # each column's abscissa and its lowest and highest label
    j = np.rint(labels[:, 0])
    order = np.lexsort((labels[:, 1], j))
    col_j, first, size = np.unique(j[order], return_index=True, return_counts=True)
    col_lo = labels[order, 1][first]
    col_hi = labels[order, 1][first + size - 1]
    crit = np.rint((np.asarray(critical_xs, dtype=float) - tx) / hbar)
    # the cut column's top is the focus-focus value, not the polygon's edge
    col_hi[np.isin(col_j, crit[:1])] = np.nan
    ends = [col_j[0], *sorted(c for c in crit if col_j[0] < c < col_j[-1]), col_j[-1]]
    bottom, top = (_chain(col_j, end, ends) for end in (col_lo, col_hi))
    verts = {v for chain in (bottom, top) for v in map(_cross, chain, chain[1:])} - {None}
    # where the chains meet each other beyond the strip ends
    xlo, xhi = ((x - tx) / hbar for x in strip)
    for b, t in zip(bottom[:1] + bottom[-1:], top[:1] + top[-1:]):
        v = _cross(t, b)
        if v is not None and xlo - 0.6 / hbar <= v[0] <= xhi + 0.6 / hbar:
            verts.add(v)
    columns = np.column_stack((col_j, col_lo, col_hi)) * hbar
    return PolygonEstimate(cloud, [(hbar * float(x), hbar * float(y)) for x, y in sorted(verts)],
                           tx, columns)


def _chain(col_j, col_end, ends) -> list:
    """The lines (slope, j, l) of one chain of column ends, one per segment
    between consecutive ends: through the segment's first and last column
    that has an end, at the exact rise over run of their labels."""
    lines = []
    for a, b in zip(ends, ends[1:]):
        on = np.flatnonzero((col_j >= a) & (col_j <= b) & ~np.isnan(col_end))
        if len(on) > 1:
            j0, j1 = col_j[on[[0, -1]]]
            l0, l1 = col_end[on[[0, -1]]]
            lines.append((Fraction(int(l1 - l0), int(j1 - j0)), int(j0), int(l0)))
    return lines


def _cross(e1, e2):
    """The exact crossing of two lines (slope, j, l), None when parallel."""
    (s1, j1, l1), (s2, j2, l2) = e1, e2
    if s1 != s2:
        x = (l2 - l1 + s1 * j1 - s2 * j2) / (s1 - s2)
        return (x, l1 + s1 * (x - j1))


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
