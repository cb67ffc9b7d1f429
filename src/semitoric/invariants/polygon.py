"""Polygon reconstruction from a global labelling and Hausdorff comparison.

hbar times the global labels of the spectrum restricted to a strip (minus
neighborhoods of cuts, corners and walls) converges to the image of the
cartographic map: a convex polygon, up to one undetermined translation.
Edges are fitted to the per-column label extremes between critical
abscissae and the vertices are read off the pairwise edge intersections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EdgeFitFailure
from ..models import SPIN_OSCILLATOR, ModelSpec

__all__ = [
    "PolygonEstimate",
    "polygon_recover",
    "hausdorff",
    "reference_polygon_slice",
    "reference_polygon_vertices",
    "sample_polygon_region",
]

_EDGE_MARGIN = 0.15    # edge fits keep this far from cuts, corners and the strip ends


def hausdorff(set_a, set_b) -> float:
    """Two-sided Hausdorff distance between finite point sets.  ``set_b``
    may be given as a ``cKDTree`` of its points, so that a caller measuring
    many sets against the same one builds its tree once."""
    from scipy.spatial import cKDTree

    A = np.atleast_2d(np.asarray(set_a, dtype=float))
    if not isinstance(set_b, cKDTree):
        set_b = cKDTree(np.atleast_2d(np.asarray(set_b, dtype=float)))
    return max(set_b.query(A)[0].max(), cKDTree(A).query(set_b.data)[0].max())


@dataclass
class PolygonEstimate:
    cloud: np.ndarray                      # hbar * labels
    fitted_vertices: list
    translation_freedom: bool = True
    edges: list = field(default_factory=list)
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
    cols: dict[int, list] = {}
    for (j, l) in labels:
        cols.setdefault(int(round(j)), []).append(l)
    col_x = {}
    col_lo = {}
    col_hi = {}
    for j, ls in cols.items():
        col_x[j] = hbar * j
        col_lo[j] = hbar * min(ls)
        col_hi[j] = hbar * max(ls)
    crit = sorted(c - tx for c in critical_xs)
    strip = (strip[0] - tx, strip[1] - tx)
    seg_bounds = [strip[0]] + [c for c in crit if strip[0] < c < strip[1]] + [strip[1]]
    edges = []
    for lo, hi in zip(seg_bounds, seg_bounds[1:]):
        js = [j for j in cols
              if lo + _EDGE_MARGIN <= col_x[j] <= hi - _EDGE_MARGIN]
        if len(js) < 5:
            raise EdgeFitFailure(
                f"only {len(js)} columns available on segment [{lo:.2f}, {hi:.2f}]"
            )
        xs = np.array([col_x[j] for j in js])
        for chain, vals in (("bottom", col_lo), ("top", col_hi)):
            slope, intercept = np.polyfit(xs, [vals[j] for j in js], 1)
            edges.append({"chain": chain, "x_range": (lo, hi),
                          "slope": float(slope), "intercept": float(intercept)})
    vertices = _edge_intersections(edges, strip)
    return PolygonEstimate(cloud, vertices, True, edges, tx)


def _edge_intersections(edges, strip, min_slope_gap: float = 0.2):
    by_chain = {"top": [], "bottom": []}
    for e in edges:
        by_chain[e["chain"]].append(e)
    for chain in by_chain.values():
        chain.sort(key=lambda e: e["x_range"][0])
    verts = []
    for chain in ("top", "bottom"):
        es = by_chain[chain]
        for e1, e2 in zip(es, es[1:]):
            v = _cross(e1, e2, min_slope_gap)
            if v is not None:
                verts.append(v)
    # polygon endpoints: where the two chains meet beyond the strip ends
    for pick in (0, -1):
        if by_chain["top"] and by_chain["bottom"]:
            v = _cross(by_chain["top"][pick], by_chain["bottom"][pick], min_slope_gap)
            if v is not None and strip[0] - 0.6 <= v[0] <= strip[1] + 0.6:
                verts.append(v)
    verts.sort()
    return verts


def _cross(e1, e2, min_slope_gap):
    ds = e1["slope"] - e2["slope"]
    if abs(ds) < min_slope_gap:
        return None
    x = (e2["intercept"] - e1["intercept"]) / ds
    return (float(x), float(e1["slope"] * x + e1["intercept"]))


# -- reference polygons of the two model systems ----------------------------

def reference_polygon_vertices(model: ModelSpec) -> list[tuple[float, float]]:
    """Privileged polygon vertices (zero twisting, upward cut)."""
    if model.kind == SPIN_OSCILLATOR:
        return [(-1.0, -1.0), (1.0, 1.0)]
    r1, r2 = model.r1, model.r2
    return [(-(r1 + r2), -r1), (r1 - r2, r1), (r2 - r1, -r1), (r1 + r2, r1)]


def reference_polygon_slice(model: ModelSpec, x: float) -> tuple[float, float]:
    """Vertical slice [bottom, top] of the privileged polygon at abscissa x."""
    if model.kind == SPIN_OSCILLATOR:
        if x < -1.0:
            return (0.0, -1.0)
        return (-1.0, min(x, 1.0))
    r1, r2 = model.r1, model.r2
    if abs(x) > r1 + r2:
        return (0.0, -1.0)
    return (max(-r1, x - r2), min(r1, x + r2))


def sample_polygon_region(model: ModelSpec, strip, step: float) -> np.ndarray:
    out = []
    for x in np.arange(strip[0], strip[1] + 1e-12, step):
        lo, hi = reference_polygon_slice(model, x)
        if hi >= lo:
            out.extend((x, y) for y in np.arange(lo, hi + 1e-12, step))
    return np.array(out)
