"""Detection, labelling and gluing of asymptotic lattices and half-lattices.

A point cloud that is hbar-close to the image of hbar*Z^2 under a smooth
chart gets integer labels by discrete parallel transport: starting from an
affine basis (three points realizing the lattice steps), neighbors are
searched where the locally transported step vectors predict them.  Labels
are unique up to one orientation-preserving integer affine map GA+(2,Z),
which is exactly the freedom of the unknown chart.

Two transport engines are provided:

* ``label_regular`` - generic breadth-first transport with per-point frame
  refresh; works for arbitrary charts.
* ``label_semitoric`` - for clouds whose first coordinate is already an
  hbar-grid (joint spectra of systems with an S^1 symmetry): clusters exact
  columns and chains their integer offsets with a drift-carried row match.
  This is the "label vertically" strategy natural to the semitoric case.

Half-lattices (hbar * (Z x N), spectra near an elliptic-transverse value)
get the dedicated bottom-anchored algorithm ``label_half_lattice``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousNeighbor,
    CocycleViolation,
    Disconnected,
    EmptyStrip,
    Inconsistent,
    InjectivityFailure,
    NonSimplyConnected,
    TooSparse,
)
from .geometry import Rect

__all__ = [
    "PointCloud",
    "ChartSpec",
    "AffineBasis",
    "Labelling",
    "ChartTransition",
    "GlobalLabelling",
    "synth_lattice",
    "select_affine_basis",
    "label_regular",
    "label_semitoric",
    "label_half_lattice",
    "transition",
    "glue_global",
    "lagrange_reduce",
]

REGULAR = "regular"
HALF_LATTICE = "half-lattice"

_SEPARATION_EPS0 = 0.05   # min pairwise separation >= eps0 * hbar^N0
_SEPARATION_N0 = 1.0
_MIN_REGION_POINTS = 10   # refuse labelling below this (TooSparse)


def _kdtree(points):
    from scipy.spatial import cKDTree

    return cKDTree(points)


@dataclass(frozen=True)
class PointCloud:
    k: int
    points: np.ndarray                    # (n, 2)
    true_labels: np.ndarray | None = None  # (n, 2) int; synthetic ground truth only

    @property
    def hbar(self) -> float:
        return 1.0 / self.k

    def min_separation(self) -> float:
        if len(self.points) < 2:
            return np.inf
        d, _ = _kdtree(self.points).query(self.points, k=2)
        return float(d[:, 1].min())

    def check_separation(self) -> float:
        sep = self.min_separation()
        floor = _SEPARATION_EPS0 * self.hbar ** _SEPARATION_N0
        if sep < floor:
            raise InjectivityFailure(
                f"min pairwise separation {sep:.3e} below {floor:.3e}"
            )
        return sep

    def restrict(self, region: Rect) -> "PointCloud":
        m = region.contains(self.points)
        tl = self.true_labels[m] if self.true_labels is not None else None
        return PointCloud(self.k, self.points[m], tl)


@dataclass(frozen=True)
class ChartSpec:
    """Synthetic ground-truth chart G_hbar = g0 + hbar*g1 on a rectangle."""

    g0: object                  # callable (2,) -> (2,)
    g1: object
    domain: Rect
    half: bool = False

    def check_injective(self) -> None:
        """Raise InjectivityFailure if g0 folds a 25 x 25 grid on the domain."""
        grid = 25
        xs = np.linspace(self.domain.xmin, self.domain.xmax, grid)
        ys = np.linspace(self.domain.ymin, self.domain.ymax, grid)
        pts = np.array([self.g0(np.array([x, y])) for x in xs for y in ys])
        d, _ = _kdtree(pts).query(pts, k=2)
        cell = max(
            (self.domain.xmax - self.domain.xmin) / (grid - 1),
            (self.domain.ymax - self.domain.ymin) / (grid - 1),
        )
        if d[:, 1].min() < 1e-3 * cell:
            raise InjectivityFailure("g0 is not injective on the domain grid")


def synth_lattice(chart: ChartSpec, k: int) -> PointCloud:
    """Image of hbar*Z^2 (or hbar*(Z x N) if half) under g0 + hbar*g1.

    True labels are retained on the cloud for test assertions.
    """
    h = 1.0 / k
    dom = chart.domain
    b_lo = int(np.floor(dom.ymin / h))
    if chart.half:
        b_lo = max(b_lo, 0)
    a, b = np.meshgrid(np.arange(int(np.floor(dom.xmin / h)), int(np.ceil(dom.xmax / h)) + 1),
                       np.arange(b_lo, int(np.ceil(dom.ymax / h)) + 1), indexing="ij")
    labels = np.column_stack([a.ravel(), b.ravel()])
    xis = labels * h
    keep = dom.contains(xis)
    labels, xis = labels[keep], xis[keep]
    # the chart maps one (2,) point at a time, so g0 and g1 stay per point
    pts = [np.asarray(chart.g0(xi), float) + h * np.asarray(chart.g1(xi), float) for xi in xis]
    cloud = PointCloud(k, np.array(pts), labels)
    cloud.check_separation()
    return cloud


# ---------------------------------------------------------------------------
# affine basis

@dataclass(frozen=True)
class AffineBasis:
    lam00: int
    lam10: int
    lam01: int
    v1: np.ndarray
    v2: np.ndarray


def lagrange_reduce(v1, v2):
    """Shortest positively-oriented basis of the lattice spanned by v1, v2."""
    a = np.asarray(v1, float).copy()
    b = np.asarray(v2, float).copy()
    if a @ a > b @ b:
        a, b = b, a
    while True:
        m = round((a @ b) / (a @ a))
        b = b - m * a
        if b @ b >= a @ a:
            break
        a, b = b, a
    if a[0] * b[1] - a[1] * b[0] < 0:
        b = -b
    return a, b


def select_affine_basis(cloud: PointCloud, c) -> AffineBasis:
    """Three points realizing an affine basis of the lattice near c.

    Nearest-point seeding, shortest independent difference vectors among
    neighbors, then Lagrange reduction and positive orientation.
    """
    pts = cloud.points
    if len(pts) < 3:
        raise TooSparse("need at least 3 points")
    tree = _kdtree(pts)
    i0 = int(tree.query(np.asarray(c, float))[1])
    kq = min(len(pts), 13)
    _, nbr = tree.query(pts[i0], k=kq)
    vecs = [(pts[j] - pts[i0], j) for j in np.atleast_1d(nbr)[1:]]
    vecs.sort(key=lambda t: t[0] @ t[0])
    if not vecs:
        raise TooSparse("no neighbors near seed")
    v1 = vecs[0][0]
    v2 = None
    for v, _ in vecs[1:]:
        cross = v1[0] * v[1] - v1[1] * v[0]
        if abs(cross) > 0.1 * np.linalg.norm(v1) * np.linalg.norm(v):
            v2 = v
            break
    if v2 is None:
        raise TooSparse("neighbors of seed are collinear")
    v1, v2 = lagrange_reduce(v1, v2)
    i10 = int(tree.query(pts[i0] + v1)[1])
    i01 = int(tree.query(pts[i0] + v2)[1])
    if len({i0, i10, i01}) < 3:
        raise TooSparse("degenerate affine basis")
    return AffineBasis(i0, i10, i01, v1, v2)


# ---------------------------------------------------------------------------
# labelling containers

@dataclass
class Labelling:
    assignment: dict[int, tuple[int, int]]
    kind: str = REGULAR

    def __post_init__(self):
        labs = list(self.assignment.values())
        if len(set(labs)) != len(labs):
            raise Inconsistent("labelling is not injective")
        if self.kind == HALF_LATTICE and any(l < 0 for _, l in labs):
            raise Inconsistent("half-lattice labels must have ell >= 0")

    def arrays(self, cloud: PointCloud):
        idx = np.fromiter(self.assignment.keys(), dtype=int, count=len(self.assignment))
        lab = np.array(list(self.assignment.values()), dtype=int)
        return cloud.points[idx], lab, idx

    def compose_affine(self, a_matrix, kappa) -> "Labelling":
        lab = np.array(list(self.assignment.values()), dtype=int).reshape(-1, 2)
        new = lab @ np.asarray(a_matrix, dtype=int).T + np.asarray(kappa, dtype=int)
        return Labelling(dict(zip(self.assignment, map(tuple, new.tolist()))), self.kind)

    def __len__(self):
        return len(self.assignment)


# ---------------------------------------------------------------------------
# generic breadth-first parallel transport

_SEARCH_RADIUS = 0.42     # transport search radius, fraction of the shortest step
_AMBIGUITY_RATIO = 1.8    # a second candidate closer than ratio * first is ambiguous


def label_regular(cloud: PointCloud, basis: AffineBasis) -> Labelling:
    """Label by discrete parallel transport from the affine basis.

    To assign (n+1, m) the search looks within a fraction of the shortest
    local step of lambda_(n,m) + (lambda_(n,m) - lambda_(n-1,m)); frames are
    refreshed from already-labelled neighbors so curvature is tracked.
    Every point must be reached (Disconnected otherwise).
    """
    pts = cloud.points
    if len(pts) < _MIN_REGION_POINTS:
        raise TooSparse(f"only {len(pts)} points")
    tree = _kdtree(pts)
    # the transport runs on Python floats: per step it touches 2-vectors
    # only, where numpy's per-call overhead dominates
    P = pts.tolist()
    labels: dict[int, tuple[int, int]] = {}
    by_label: dict[tuple[int, int], int] = {}
    frames: dict[int, tuple[tuple[float, float], tuple[float, float]]] = {}

    def put(i, lab, frame):
        labels[i] = lab
        by_label[lab] = i
        frames[i] = frame

    f0 = (tuple(map(float, basis.v1)), tuple(map(float, basis.v2)))
    put(basis.lam00, (0, 0), f0)
    put(basis.lam10, (1, 0), f0)
    put(basis.lam01, (0, 1), f0)
    q = deque((basis.lam00, basis.lam10, basis.lam01))
    ambiguous = 0
    while q:
        i = q.popleft()
        px, py = P[i]
        f = frames[i]
        (ux, uy), (vx, vy) = f
        la, lb = labels[i]
        radius = _SEARCH_RADIUS * min(math.hypot(ux, uy), math.hypot(vx, vy))
        steps = ((1, 0, ux, uy), (-1, 0, -ux, -uy), (0, 1, vx, vy), (0, -1, -vx, -vy))
        for da, db, sx, sy in steps:
            nl = (la + da, lb + db)
            tx, ty = px + sx, py + sy
            if nl in by_label:
                qx, qy = P[by_label[nl]]
                if math.hypot(qx - tx, qy - ty) > 2.5 * radius:
                    raise AmbiguousNeighbor(
                        f"transport inconsistency at label {nl} (hbar too large?)"
                    )
                continue
            cand = [c for c in tree.query_ball_point((tx, ty), radius) if c not in labels]
            if not cand:
                continue
            ranked = sorted((math.hypot(P[c][0] - tx, P[c][1] - ty), c) for c in cand)
            if len(ranked) > 1 and ranked[1][0] < _AMBIGUITY_RATIO * ranked[0][0]:
                ambiguous += 1
                continue
            j = ranked[0][1]
            jx, jy = P[j]
            if da:
                prev = by_label.get((nl[0], nl[1] - 1))
                nf = (((jx - px) * da, (jy - py) * da),
                      f[1] if prev is None else (jx - P[prev][0], jy - P[prev][1]))
            else:
                prev = by_label.get((nl[0] - 1, nl[1]))
                nf = (f[0] if prev is None else (jx - P[prev][0], jy - P[prev][1]),
                      ((jx - px) * db, (jy - py) * db))
            put(j, nl, nf)
            q.append(j)
    missed = len(pts) - len(labels)
    if missed > 0:
        raise Disconnected(f"{missed} points unreachable ({ambiguous} ambiguous searches)")
    return Labelling(dict(labels), REGULAR)


# ---------------------------------------------------------------------------
# semitoric column transport

_MIN_VOTE = 0.6    # least row-match confidence accepted between neighbouring columns
_COLUMN_GAP = 0.5  # an x gap above this fraction of hbar starts a new column


def _columns(pts: np.ndarray, h: float):
    """Cluster points into x-columns (gap threshold a fraction of hbar)."""
    order = np.argsort(pts[:, 0], kind="stable")
    starts = np.flatnonzero(np.diff(pts[order, 0]) > _COLUMN_GAP * h) + 1
    cols = [idx[np.argsort(pts[idx, 1])] for idx in np.split(order, starts)]
    colx = np.array([pts[c, 0].mean() for c in cols])
    return cols, colx


def _column_labels(cols, c0: int, anchor) -> dict[int, tuple[int, int]]:
    """(column - c0, rank in column + anchor[column]) for every point of the
    columns, keyed by point index."""
    sizes = [len(c) for c in cols]
    idx = np.concatenate(cols)
    j = np.repeat(np.arange(len(cols)) - c0, sizes)
    l = np.arange(len(idx)) - np.repeat(np.cumsum(sizes) - sizes - anchor, sizes)
    return dict(zip(idx.tolist(), zip(j.tolist(), l.tolist())))


def _match_columns(A: np.ndarray, B: np.ndarray, drift):
    """Integer offset o with B[i+o] ~ A[i] + drift(y).

    Candidate offsets come from nearest-to-prediction votes; the winner is
    the one whose matched-row deviations from the carried drift stay small
    (a wrong offset is off by a full level spacing somewhere).  Returns
    (offset, drift table for the next pair, confidence in [0,1]).
    """
    if len(A) < 2 or len(B) < 2:
        return None, drift, 0.0
    n = len(A)
    i0, i1 = int(0.12 * n), max(int(np.ceil(0.88 * n)), int(0.12 * n) + 1)
    ia = np.arange(i0, min(i1, n))
    pred = A[ia] + (np.interp(A[ia], drift[0], drift[1]) if drift is not None else 0.0)
    ib = np.clip(np.searchsorted(B, pred), 1, len(B) - 1)
    ib = np.where(np.abs(B[ib] - pred) < np.abs(B[ib - 1] - pred), ib, ib - 1)
    candidates = np.unique(np.concatenate([ib - ia, ib - ia + 1, ib - ia - 1]))
    spacing = float(np.median(np.diff(A)))

    def residual(o):
        ii = np.arange(max(i0, -o), min(min(i1, n), len(B) - o))
        if len(ii) < 2:
            return np.inf
        d = B[ii + o] - A[ii]
        ref = np.interp(A[ii], drift[0], drift[1]) if drift is not None else 0.0
        return float(np.median(np.abs(d - ref)))

    scored = sorted((residual(int(o)), int(o)) for o in candidates)
    best_r, o = scored[0]
    if drift is None:
        # no transported reference yet: the minimal-row-step choice fixes the
        # (equally valid) action chart, so it is accepted as is
        confidence = 1.0
    else:
        margin = scored[1][0] / max(best_r, 1e-12) if len(scored) > 1 else np.inf
        confidence = 1.0 if (best_r < 0.35 * spacing and margin > 1.5) else 0.0
    ii = np.arange(max(0, -o), min(len(A), len(B) - o))
    table = (A[ii], B[ii + o] - A[ii]) if len(ii) else None
    return o, table, confidence


def label_semitoric(cloud: PointCloud, seed_x: float | None = None) -> Labelling:
    """Column-sweep transport for semitoric clouds (x already on an hbar grid).

    j counts columns, ell counts within a column; the ell anchor of each
    column is chained from its neighbor through a drift-carried row match,
    which is parallel transport done one column at a time.
    """
    pts = cloud.points
    if len(pts) < _MIN_REGION_POINTS:
        raise TooSparse(f"only {len(pts)} points")
    h = cloud.hbar
    cols, colx = _columns(pts, h)
    c0 = len(cols) - 1 if seed_x is None else int(np.argmin(np.abs(colx - seed_x)))
    anchor = _column_anchors(pts, cols, colx, h, c0)
    return Labelling(_column_labels(cols, c0, anchor), REGULAR)


def _column_anchors(pts, cols, colx, h: float, c0: int) -> np.ndarray:
    """The ell of each column's lowest point, chained outwards from column
    c0 (anchor 0) by drift-carried row matches between neighbours."""
    ncol = len(cols)
    if np.any(np.diff(colx) > 1.6 * h):
        raise Disconnected("column chain has a gap wider than 1.6*hbar")
    ys = [pts[c, 1] for c in cols]
    anchor = np.zeros(ncol, dtype=int)
    for step in (+1, -1):
        drift = None
        c = c0
        while 0 <= c + step < ncol:
            cn = c + step
            o, drift, frac = _match_columns(ys[c], ys[cn], drift)
            if o is None:
                anchor[cn] = anchor[c]
            else:
                if frac < _MIN_VOTE:
                    raise AmbiguousNeighbor(
                        f"row match between columns {c} and {cn} got only "
                        f"{frac:.0%} agreement"
                    )
                anchor[cn] = anchor[c] - o
            c = cn
    return anchor


# ---------------------------------------------------------------------------
# half-lattice labelling

def label_half_lattice(cloud: PointCloud, c) -> Labelling:
    """Bottom-anchored labelling near a transversally elliptic value.

    Steps: nearest point mu to c (ties broken lexicographically); the lowest
    point of mu's column is lambda_(0,0); the next one up is lambda_(0,1);
    lambda_(1,0) needs a column one hbar to the right (within
    hbar^(3/2) / 2 of x(mu) + hbar); then transport restricted to ell >= 0.
    """
    pts = cloud.points
    if len(pts) < _MIN_REGION_POINTS:
        raise TooSparse(f"only {len(pts)} points")
    h = cloud.hbar
    cpt = np.asarray(c, float)
    d2 = np.sum((pts - cpt) ** 2, axis=1)
    near = np.where(d2 <= d2.min() + 1e-18)[0]
    mu_i = near[np.lexsort((pts[near, 1], pts[near, 0]))[0]]
    cols, colx = _columns(pts, h)
    c00 = next(ci for ci, idx in enumerate(cols) if mu_i in idx)
    if len(cols[c00]) < 2:
        raise EmptyStrip("column of mu has no point above lambda_(0,0)")
    if not np.any(np.abs(colx - (pts[mu_i, 0] + h)) <= 0.5 * h ** 1.5):
        raise EmptyStrip("no column one hbar to the right of mu")
    # admissibility cross-check: in column-transport coordinates (seeded at
    # mu's column) the bottom row, the column anchors, must be a
    # straight lattice line (affine in the column index); a kink means the
    # domain crosses a corner
    anchor = _column_anchors(pts, cols, colx, h, c00)
    if len(np.unique(np.diff(anchor))) > 1:
        raise Disconnected("bottom row is not a lattice line (domain not admissible)")
    return Labelling(_column_labels(cols, c00, 0), HALF_LATTICE)


# ---------------------------------------------------------------------------
# transitions and gluing

@dataclass(frozen=True)
class ChartTransition:
    a_matrix: np.ndarray              # 2x2 int, det +1
    kappa: tuple[int, int]

    def __post_init__(self):
        A = np.asarray(self.a_matrix)
        if round(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) != 1:
            raise Inconsistent("transition matrix must have determinant +1")

    def apply(self, lab: Labelling) -> Labelling:
        return lab.compose_affine(self.a_matrix, self.kappa)

    def inverse(self) -> "ChartTransition":
        (a, b), (c, d) = np.asarray(self.a_matrix).tolist()
        A = np.array([[d, -b], [-c, a]])    # the adjugate: det A = +1
        kap = -(A @ np.array(self.kappa))
        return ChartTransition(A, (int(kap[0]), int(kap[1])))

    def compose(self, other: "ChartTransition") -> "ChartTransition":
        A = np.asarray(self.a_matrix) @ np.asarray(other.a_matrix)
        kap = np.asarray(self.a_matrix) @ np.array(other.kappa) + np.array(self.kappa)
        return ChartTransition(A.astype(int), (int(kap[0]), int(kap[1])))

    def is_identity(self) -> bool:
        return (
            np.array_equal(np.asarray(self.a_matrix), np.eye(2, dtype=int))
            and tuple(self.kappa) == (0, 0)
        )


def transition(lab1: Labelling, lab2: Labelling, cloud: PointCloud,
               overlap: Rect | None = None) -> ChartTransition:
    """The unique (A, kappa), A in SL(2,Z), with lab2 = A∘lab1 + kappa on the
    overlap: one least-squares solve of [L1 | 1] M = L2 over all common
    points, rounded to integers and verified exactly on every one of them."""
    common = sorted(set(lab1.assignment) & set(lab2.assignment))
    if overlap is not None:
        inside = overlap.contains(cloud.points)
        common = [i for i in common if inside[i]]
    if len(common) < 3:
        raise Inconsistent("need at least 3 common points")
    L1 = np.array([lab1.assignment[i] for i in common], dtype=np.int64)
    L2 = np.array([lab2.assignment[i] for i in common], dtype=np.int64)
    X = np.column_stack([L1, np.ones(len(common), dtype=np.int64)])
    M, _, rank, _ = np.linalg.lstsq(X, L2, rcond=None)
    if rank < 3:
        raise Inconsistent("common points are collinear in label space")
    M = np.rint(M).astype(np.int64)
    if np.any(X @ M != L2):
        raise Inconsistent("affine map fails on some common point")
    return ChartTransition(M[:2].T, (int(M[2, 0]), int(M[2, 1])))


@dataclass
class GlobalLabelling:
    transitions: dict                            # (i, j) -> ChartTransition
    merged: Labelling                            # every chart's labels in chart 0's frame


def glue_global(cloud: PointCloud, charts: list[tuple[Rect, Labelling]]) -> GlobalLabelling:
    """Fix chart 0 and propagate its labelling along chains of overlaps.

    Verifies the cocycle condition on every overlap cycle; a failing cycle
    means the union is not simply connected (or a chart is mislabelled).
    """
    n = len(charts)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = charts[i][0], charts[j][0]
            if not ri.intersects(rj):
                continue
            try:
                edges[(i, j)] = transition(
                    charts[i][1], charts[j][1], cloud, ri.intersection(rj)
                )
            except Inconsistent:
                continue
    # breadth-first over the chart graph: G_j = G_i ∘ t^-1 along an edge (i, j)
    to_global: dict[int, ChartTransition] = {
        0: ChartTransition(np.eye(2, dtype=int), (0, 0))
    }
    q = deque([0])
    while q:
        c = q.popleft()
        for (i, j), t in edges.items():
            if c == i and j not in to_global:
                to_global[j] = to_global[i].compose(t.inverse())
                q.append(j)
            elif c == j and i not in to_global:
                to_global[i] = to_global[j].compose(t)
                q.append(i)
    if len(to_global) < n:
        raise Disconnected("chart cover is not connected")
    # cocycle check on every edge; a tree edge closes exactly
    for (i, j), t in edges.items():
        loop = to_global[j].inverse().compose(to_global[i]).compose(t.inverse())
        if not loop.is_identity():
            if not np.array_equal(loop.a_matrix, np.eye(2, dtype=int)):
                raise NonSimplyConnected(
                    f"cycle through charts {i},{j} has nontrivial holonomy"
                )
            raise CocycleViolation(
                f"translation mismatch on cycle through charts {i},{j}"
            )
    glued = [(r, to_global[i].apply(lab)) for i, (r, lab) in enumerate(charts)]
    merged: dict[int, tuple[int, int]] = {}
    for _, lab in glued:
        for idx, l in lab.assignment.items():
            if idx in merged and merged[idx] != l:
                raise CocycleViolation(f"point {idx} received two labels")
            merged[idx] = l
    return GlobalLabelling(edges, Labelling(merged, REGULAR))
