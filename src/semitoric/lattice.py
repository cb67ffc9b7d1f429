"""Detection, labelling and gluing of asymptotic lattices and half-lattices.

A point cloud that is hbar-close to the image of hbar*Z^2 under a smooth
chart gets integer labels by discrete parallel transport: starting from an
affine basis (three points realizing the lattice steps), neighbors are
searched where the locally transported step vectors predict them.  Labels
are unique up to one orientation-preserving integer affine map GA+(2,Z),
which is exactly the freedom of the unknown chart.

One transport engine, ``label_regular``, does generic breadth-first
transport with per-point frame refresh; it works for arbitrary charts.

Clouds whose first coordinate is already an hbar-grid (joint spectra of
systems with an S^1 symmetry) need no transport: ``label_semitoric``
clusters exact columns and labels each point (column, rank + anchor), with
the column anchors in closed form from the column sizes.  This is the
"label vertically" strategy natural to the semitoric case, and the only
part of this module the program runs: an (n, 2) array of points in, the
same points in (column, height) order and their (n, 2) labels out.  The
transport, half-lattice and gluing routes serve the synthetic-lattice
benchmark and its tests.

Half-lattices (hbar * (Z x N), spectra near an elliptic-transverse value)
get the dedicated bottom-anchored algorithm ``label_half_lattice``, whose
admissibility check reads the same closed-form anchors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import (
    AmbiguousNeighbor,
    CocycleViolation,
    ConfigurationError,
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

    @cached_property
    def _tree(self):
        """The one cKDTree over ``points``, shared by every reader."""
        return _kdtree(self.points)

    def min_separation(self) -> float:
        if len(self.points) < 2:
            return np.inf
        d, _ = self._tree.query(self.points, k=2)
        return float(d[:, 1].min())

    def check_separation(self) -> None:
        """InjectivityFailure when two points are closer than eps0 *
        hbar^N0.  Only the pairs within that floor are read; the minimum
        separation is computed for the message alone."""
        floor = _SEPARATION_EPS0 * self.hbar ** _SEPARATION_N0
        pairs = self._tree.query_pairs(floor, output_type="ndarray")
        d = self.points[pairs[:, 0]] - self.points[pairs[:, 1]]
        if np.any(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) < floor):
            raise InjectivityFailure(
                f"min pairwise separation {self.min_separation():.3e} below {floor:.3e}"
            )

    def restrict(self, region: Rect) -> "PointCloud":
        m = region.contains(self.points)
        tl = self.true_labels[m] if self.true_labels is not None else None
        return PointCloud(self.k, self.points[m], tl)


@dataclass(frozen=True)
class ChartSpec:
    """Synthetic ground-truth chart G_hbar = g0 + hbar*g1 on a rectangle.

    g0 and g1 map an array of points, shape (..., 2), to their images of
    the same shape: one (2,) point or the whole (n, 2) label grid.
    """

    g0: object                  # callable (..., 2) -> (..., 2)
    g1: object                  # callable (..., 2) -> (..., 2)
    domain: Rect
    half: bool = False

    def check_injective(self) -> None:
        """Raise InjectivityFailure if g0 folds a 25 x 25 grid on the domain."""
        grid = 25
        xs = np.linspace(self.domain.xmin, self.domain.xmax, grid)
        ys = np.linspace(self.domain.ymin, self.domain.ymax, grid)
        pts = self.g0(np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2))
        d, _ = _kdtree(pts).query(pts, k=2)
        cell = max(
            (self.domain.xmax - self.domain.xmin) / (grid - 1),
            (self.domain.ymax - self.domain.ymin) / (grid - 1),
        )
        if d[:, 1].min() < 1e-3 * cell:
            raise InjectivityFailure("g0 is not injective on the domain grid")


def synth_lattice(chart: ChartSpec, k: int) -> PointCloud:
    """Image of hbar*Z^2 (or hbar*(Z x N) if half) under g0 + hbar*g1.

    g0 and g1 are called once each, on the (n, 2) array of the label
    points kept in the domain; each must return shape (n, 2).  True labels
    are retained on the cloud for test assertions.
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
    g0, g1 = np.asarray(chart.g0(xis), float), np.asarray(chart.g1(xis), float)
    if g0.shape != xis.shape or g1.shape != xis.shape:
        raise ConfigurationError(
            f"a chart maps an (n, 2) array of points to shape (n, 2): on {xis.shape} "
            f"g0 returned {g0.shape} and g1 {g1.shape}")
    cloud = PointCloud(k, g0 + h * g1, labels)
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
    tree = cloud._tree
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

    Breadth first, one generation at a time: the G points of a generation
    take 4 G steps, ordered by point, then +a, -a, +b, -b, in one batch of
    array operations with the outcome of taking them one by one.  A step
    on a held label checks its target against the holder (AmbiguousNeighbor
    beyond 2.5 search radii, at the first that fails).  A step on a free
    label takes the nearest point of its ball not labelled before it,
    unless a second is within the ambiguity ratio; the new point's cross
    step comes from the neighbour labelled before it.  In the batch the
    first step with a choice claims its label and later steps on it check
    it; the batch is cut at the first step whose ball holds a point an
    earlier step claimed, and the rest is resolved again.
    """
    pts = cloud.points
    n = len(pts)
    if n < _MIN_REGION_POINTS:
        raise TooSparse(f"only {n} points")
    tree = cloud._tree
    never = np.iinfo(np.intp).max
    # points as complex numbers; index n, cKDTree's "no neighbour", is at inf
    pc = np.append(pts[:, 0] + 1j * pts[:, 1], np.inf)
    done = np.zeros(n + 1, dtype=bool)          # labelled, per point
    done[n] = True
    claim = np.full(n + 1, never)               # a batch's claiming row, per point
    width = 2 * n + 4                           # label (a, b) -> key a * width + b
    key = np.zeros(n, dtype=np.int64)           # per point: its label's key
    frame = np.zeros((n, 2), dtype=complex)     # per point: its steps u, v
    dkey = np.array([width, -width, 1, -1])     # the steps +a, -a, +b, -b
    holder: dict[int, int] = {}                 # label key -> point
    order, ambiguous = [], 0

    def held(keys):
        return np.fromiter(map(holder.get, keys.tolist(), repeat(-1)), np.intp, len(keys))

    def commit(js, keys, frames):
        key[js], frame[js], done[js] = keys, frames, True
        holder.update(zip(keys.tolist(), js.tolist()))
        order.append(js)

    gen = np.array([basis.lam00, basis.lam10, basis.lam01])
    commit(gen, np.array([0, width, 1]), [[complex(*basis.v1), complex(*basis.v2)]] * 3)
    while gen.size:
        S = 4 * len(gen)
        fr = frame[gen]
        keys = (key[gen][:, None] + dkey).ravel()
        step = fr[:, [0, 0, 1, 1]]
        step[:, 1::2] = -step[:, 1::2]
        target = (pc[gen][:, None] + step).ravel()
        radius = np.repeat(_SEARCH_RADIUS * np.sqrt(np.minimum(_sq(fr[:, 0]), _sq(fr[:, 1]))), 4)
        h = held(keys)
        cand, dist = _by_distance(*_balls(tree, pc, target, radius, h < 0), done)
        grown, s0 = [gen[:0]], 0
        while s0 < S:
            c, d, kk, hold, rows = cand[s0:], dist[s0:], keys[s0:], h[s0:], np.arange(S - s0)
            j = c[:, 0]
            amb = d[:, 1] < _AMBIGUITY_RATIO * d[:, 0]
            choose = np.flatnonzero((hold < 0) & (j < n) & ~amb)
            # the first step with a choice claims its label: key, row, point
            uk, first = np.unique(kk[choose], return_index=True)
            tc = choose[first]
            ck, cr, cj = np.append(uk, never), np.append(tc, never), np.append(j[tc], -1)

            def claimed(keys, before):
                """The point an earlier row of this pass claimed each key for, or -1."""
                pos = np.searchsorted(ck, keys)
                return np.where((ck[pos] == keys) & (cr[pos] < before), cj[pos], -1)

            q = np.where(hold >= 0, hold, claimed(kk, rows))   # the holder a step checks
            search = q < 0
            # cut at the first search whose ball holds a point an earlier row
            # claimed; a point's earliest claim is the one that counts
            tc.sort()
            pj, fi = np.unique(j[tc], return_index=True)
            claim[pj] = tc[fi]
            cut = search & (claim[c] < rows[:, None]).any(1)
            claim[pj] = never
            stop = int(cut.argmax()) if cut.any() else len(rows)
            s = s0 + np.flatnonzero(~search[:stop])
            bad = s[np.sqrt(_sq(pc[q[s - s0]] - target[s])) > 2.5 * radius[s]]
            if bad.size:
                raise AmbiguousNeighbor(f"transport inconsistency at label "
                                        f"{_labels(int(keys[bad[0]]), width)} (hbar too large?)")
            ambiguous += int(np.count_nonzero(search[:stop] & amb[:stop]))
            r = tc[tc < stop]
            s, jj = s0 + r, j[r]
            g, along = s >> 2, (s >> 1) & 1         # along: 0 on a +-a step, 1 on a +-b step
            # the cross neighbour: one label back across the step, if held by then
            back = keys[s] - np.where(along, width, 1)
            prev = held(back)
            prev = np.where(prev >= 0, prev, claimed(back, r))
            own = np.where(s & 1, pc[gen[g]] - pc[jj], pc[jj] - pc[gen[g]])
            new = np.column_stack((own, np.where(prev >= 0, pc[jj] - pc[prev], fr[g, 1 - along])))
            new[along == 1] = new[along == 1, ::-1]
            commit(jj, keys[s], new)
            grown.append(jj)
            s0 += stop
            if s0 < S:
                h = held(keys)
                cand[s0:], dist[s0:] = _by_distance(cand[s0:], dist[s0:], done)
        gen = np.concatenate(grown)
    idx = np.concatenate(order)
    if len(idx) < n:
        raise Disconnected(f"{n - len(idx)} points unreachable ({ambiguous} ambiguous searches)")
    a, b = _labels(key[idx], width)
    return Labelling(dict(zip(idx.tolist(), zip(a.tolist(), b.tolist()))), REGULAR)


def _sq(z):
    """|z|^2 of complex z as x * x + y * y, as cKDTree sums squares."""
    return z.real * z.real + z.imag * z.imag


def _labels(keys, width: int):
    """The labels (a, b) of keys a * width + b with |b| < width / 2."""
    b = (keys + width // 2) % width - width // 2
    return (keys - b) // width, b


def _balls(tree, pc, target, radius, ask):
    """The ball of each asked row, as cKDTree's ball query finds it (d^2 <=
    r^2): its three nearest points, or the whole ball where the third is
    inside it; n elsewhere.  Returns (points, distances)."""
    n = len(pc) - 1
    xy = np.column_stack((target.real, target.imag))
    cand = np.full((len(target), 3), n)
    if ask.any():
        cand[ask] = tree.query(xy[ask], k=3, distance_upper_bound=(
            radius[ask].max() * (1 + 1e-9)))[1]
    d2 = _sq(pc[cand] - target[:, None])
    cand = np.where(d2 <= (radius * radius)[:, None], cand, n)
    big = np.flatnonzero(cand[:, 2] < n)
    if big.size:
        balls = tree.query_ball_point(xy[big], radius[big])
        cand = np.column_stack((cand, np.full((len(cand), max(map(len, balls)) - 3), n)))
        for row, ball in zip(big, balls):
            cand[row, :len(ball)] = ball
        d2 = _sq(pc[cand] - target[:, None])
    return cand, np.sqrt(d2)


def _by_distance(cand, dist, done):
    """Each row's candidates not yet labelled, sorted by (distance, index);
    a labelled or missing one reads (n, inf), n = len(done) - 1."""
    free = ~done[cand]
    cand, dist = np.where(free, cand, len(done) - 1), np.where(free, dist, np.inf)
    rows, o = np.arange(len(cand))[:, None], np.lexsort((cand, dist))
    return cand[rows, o], dist[rows, o]


# ---------------------------------------------------------------------------
# semitoric column labels

_COLUMN_GAP = 0.5  # an x gap above this fraction of hbar starts a new column


def _columns(pts: np.ndarray, h: float):
    """The x-columns of pts (split where sorted x gaps exceed a fraction of
    hbar), as (order, starts, sizes, colx): the rows of pts in (column,
    height) order, where each column starts in that order, its size and
    its mean x."""
    xo = np.argsort(pts[:, 0], kind="stable")
    col = np.concatenate(([0], np.cumsum(np.diff(pts[xo, 0]) > _COLUMN_GAP * h)))
    order = xo[np.lexsort((pts[xo, 1], col))]
    sizes = np.bincount(col)
    starts = np.cumsum(sizes) - sizes
    return order, starts, sizes, np.add.reduceat(pts[order, 0], starts) / sizes


def _column_labels(starts, sizes, c0: int, anchor) -> np.ndarray:
    """(column - c0, rank in column + anchor[column]) of every point, in
    (column, height) order, as an (n, 2) int array."""
    j = np.repeat(np.arange(len(sizes)) - c0, sizes)
    l = np.arange(len(j)) - np.repeat(starts - anchor, sizes)
    return np.column_stack((j, l))


def label_semitoric(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column labels for semitoric clouds (x already on an hbar = 1/k grid).

    j counts columns, ell counts within a column, both 0 at the lowest
    point of the last column; the ell anchor of each column is the closed
    form of ``_column_anchors``.  Returns (points, labels), matching (n, 2)
    arrays with the rows of points in (column, height) order.
    """
    if len(points) < _MIN_REGION_POINTS:
        raise TooSparse(f"only {len(points)} points")
    h = 1.0 / k
    order, starts, sizes, colx = _columns(points, h)
    pts = points[order]
    anchor = _column_anchors(pts[:, 1], starts, sizes, colx, h)
    return pts, _column_labels(starts, sizes, len(sizes) - 1, anchor)


def _column_anchors(y, starts, sizes, colx, h: float) -> np.ndarray:
    """The ell of each column's lowest point, in closed form, from the
    heights y in (column, height) order.

    The anchors are piecewise linear in the column index and bend only at
    a vertex of the bottom edge (Vu Ngoc, Adv. Math. 2007), there by the
    second difference of the lowest points in units of the bottom row
    spacing, rounded: the bottom chain alone, so a short top (the cut
    column's) cannot hide a corner next to it.  The spacing of three
    columns is the largest gap between the two lowest points of each; a
    one-point column has none, and three of them in a row read no bend.
    Gauge: slope 0 on the first columns, anchor 0 on the last column.
    """
    if np.any(np.diff(colx) > 1.6 * h):
        raise Disconnected("column chain has a gap wider than 1.6*hbar")
    lo = y[starts]
    gap = np.where(sizes > 1, y[np.minimum(starts + 1, len(y) - 1)] - lo, np.nan)
    g = np.fmax(np.fmax(gap[:-2], gap[1:-1]), gap[2:])
    bend = np.nan_to_num(np.rint(np.diff(lo, 2) / g)).astype(int)
    anchor = np.zeros(len(sizes), dtype=int)
    anchor[2:] = np.cumsum(np.cumsum(bend))
    return anchor - anchor[-1]


# ---------------------------------------------------------------------------
# half-lattice labelling

def label_half_lattice(cloud: PointCloud, c) -> Labelling:
    """Bottom-anchored labelling near a transversally elliptic value.

    Steps: nearest point mu to c (ties broken lexicographically); the lowest
    point of mu's column is lambda_(0,0); the next one up is lambda_(0,1);
    lambda_(1,0) needs a column one hbar to the right (within
    hbar^(3/2) / 2 of x(mu) + hbar).  Each point is then labelled
    (column - column of mu, rank in its column).
    """
    pts = cloud.points
    if len(pts) < _MIN_REGION_POINTS:
        raise TooSparse(f"only {len(pts)} points")
    h = cloud.hbar
    cpt = np.asarray(c, float)
    d2 = np.sum((pts - cpt) ** 2, axis=1)
    near = np.where(d2 <= d2.min() + 1e-18)[0]
    mu_i = near[np.lexsort((pts[near, 1], pts[near, 0]))[0]]
    order, starts, sizes, colx = _columns(pts, h)
    c00 = int(np.searchsorted(starts, np.flatnonzero(order == mu_i)[0], side="right")) - 1
    if sizes[c00] < 2:
        raise EmptyStrip("column of mu has no point above lambda_(0,0)")
    if not np.any(np.abs(colx - (pts[mu_i, 0] + h)) <= 0.5 * h ** 1.5):
        raise EmptyStrip("no column one hbar to the right of mu")
    # admissibility: the bottom row, the closed-form column anchors, must
    # be a straight lattice line (affine in the column index); a kink means
    # the domain crosses a corner
    if len(np.unique(np.diff(_column_anchors(pts[order, 1], starts, sizes, colx, h)))) > 1:
        raise Disconnected("bottom row is not a lattice line (domain not admissible)")
    j, l = _column_labels(starts, sizes, c00, 0).T
    return Labelling(dict(zip(order.tolist(), zip(j.tolist(), l.tolist()))), HALF_LATTICE)


# ---------------------------------------------------------------------------
# transitions and gluing

def _inverse(t: np.ndarray) -> np.ndarray:
    """The exact inverse of a transition [[A, kappa], [0, 0, 1]]: A^-1 is
    the adjugate of A, since det A = +1."""
    (a, b, x), (c, d, y), _ = t.tolist()
    return np.array([[d, -b, b * y - d * x], [-c, a, c * x - a * y], [0, 0, 1]], dtype=np.int64)


def transition(lab1: Labelling, lab2: Labelling, cloud: PointCloud,
               overlap: Rect | None = None) -> np.ndarray:
    """The unique orientation-preserving integer affine map with
    lab2 = A lab1 + kappa on the overlap, as the (3, 3) int64 matrix
    [[A, kappa], [0, 0, 1]] acting on homogeneous labels (n, m, 1): one
    least-squares solve of [L1 | 1] M = L2 over all common points, rounded
    to integers and verified exactly on every one of them.  A disjoint
    overlap holds no common point and raises ``Inconsistent``."""
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
    if M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] != 1:
        raise Inconsistent("transition matrix must have determinant +1")
    return np.vstack([M.T, [0, 0, 1]])


@dataclass
class GlobalLabelling:
    transitions: dict                            # (i, j) -> (3, 3) int64 transition
    merged: Labelling                            # every chart's labels in chart 0's frame


def glue_global(cloud: PointCloud, charts: list[tuple[Rect, Labelling]]) -> GlobalLabelling:
    """Fix chart 0 and propagate its labelling along chains of overlaps.

    Each chart i gets the integer matrix G_i from its labels to chart 0's,
    built from products of the pairwise ``transition`` matrices; a pair
    whose overlap fixes no transition (disjoint, too small, collinear or
    inconsistent) is no edge.  Verifies the cocycle condition on every
    overlap cycle; a failing cycle means the union is not simply connected
    (or a chart is mislabelled).
    """
    n = len(charts)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            (ri, lab_i), (rj, lab_j) = charts[i], charts[j]
            try:
                edges[(i, j)] = transition(lab_i, lab_j, cloud, ri.intersection(rj))
            except Inconsistent:
                continue
    # breadth-first over the chart graph: G_j = G_i @ inv(T) along an edge (i, j)
    to_global = {0: np.eye(3, dtype=np.int64)}
    q = deque([0])
    while q:
        c = q.popleft()
        for (i, j), t in edges.items():
            if c == i and j not in to_global:
                to_global[j] = to_global[i] @ _inverse(t)
                q.append(j)
            elif c == j and i not in to_global:
                to_global[i] = to_global[j] @ t
                q.append(i)
    if len(to_global) < n:
        raise Disconnected("chart cover is not connected")
    # cocycle check on every edge; a tree edge closes exactly
    for (i, j), t in edges.items():
        residual = to_global[j] @ t - to_global[i]
        if residual[:2, :2].any():
            raise NonSimplyConnected(
                f"cycle through charts {i},{j} has nontrivial holonomy"
            )
        if residual.any():
            raise CocycleViolation(
                f"translation mismatch on cycle through charts {i},{j}"
            )
    glued = [lab.compose_affine(to_global[i][:2, :2], to_global[i][:2, 2])
             for i, (_, lab) in enumerate(charts)]
    merged: dict[int, tuple[int, int]] = {}
    for lab in glued:
        for idx, l in lab.assignment.items():
            if idx in merged and merged[idx] != l:
                raise CocycleViolation(f"point {idx} received two labels")
            merged[idx] = l
    return GlobalLabelling(edges, Labelling(merged, REGULAR))
