from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from semitoric import Rect
from semitoric.errors import (
    AmbiguousNeighbor,
    CocycleViolation,
    Disconnected,
    EmptyStrip,
    Inconsistent,
    InjectivityFailure,
    NonSimplyConnected,
    TooSparse,
)
from semitoric.lattice import (
    REGULAR,
    _AMBIGUITY_RATIO,
    _MIN_REGION_POINTS,
    _SEARCH_RADIUS,
    ChartSpec,
    Labelling,
    PointCloud,
    _kdtree,
    glue_global,
    label_half_lattice,
    label_regular,
    label_semitoric,
    lagrange_reduce,
    select_affine_basis,
    synth_lattice,
    transition,
)
from semitoric.testing import random_chart

IDENTITY = ChartSpec(lambda xi: xi.copy(), lambda xi: np.zeros(2), Rect(-0.5, 0.5, -0.5, 0.5))
SHEAR = ChartSpec(lambda xi: np.array([xi[0], xi[0] + xi[1]]), lambda xi: np.zeros(2),
                  Rect(-0.5, 0.5, -0.5, 0.5))


def affine_map_between(lab: Labelling, truth: np.ndarray):
    """The unique GA+(2,Z) map with lab = A truth + kappa, or raise."""
    items = sorted(lab.assignment.items())
    idx = [i for i, _ in items]
    T = truth[idx]
    G = np.array([l for _, l in items])
    d = T - T[0]
    for i in range(1, len(T)):
        for j in range(i + 1, len(T)):
            det = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
            if det != 0:
                D1 = np.array([d[i], d[j]]).T
                D2 = np.array([G[i] - G[0], G[j] - G[0]]).T
                adj = np.array([[D1[1, 1], -D1[0, 1]], [-D1[1, 0], D1[0, 0]]])
                A = (D2 @ adj) // det
                kap = G[0] - A @ T[0]
                if np.all((T @ A.T) + kap == G):
                    assert round(np.linalg.det(A)) == 1
                    return A, kap
                raise AssertionError("labelling differs from truth beyond one affine map")
    raise AssertionError("degenerate truth")


def test_synth_identity_grid():
    cloud = synth_lattice(IDENTITY, 10)
    grid = cloud.true_labels / 10.0
    assert np.allclose(cloud.points, grid, atol=1e-15)


def test_synth_shear_is_unipotent_image():
    cloud = synth_lattice(SHEAR, 10)
    T = np.array([[1, 0], [1, 1]])
    assert np.allclose(cloud.points, (cloud.true_labels @ T.T) / 10.0, atol=1e-15)


def test_synth_collision_raises():
    fold = ChartSpec(lambda xi: np.array([xi[0] ** 2, xi[1]]), lambda xi: np.zeros(2),
                     Rect(-0.5, 0.5, -0.5, 0.5))
    with pytest.raises(InjectivityFailure):
        synth_lattice(fold, 10)


def test_affine_basis_on_grid():
    cloud = synth_lattice(IDENTITY, 10)
    basis = select_affine_basis(cloud, (0.02, -0.01))
    vs = sorted([np.abs(basis.v1), np.abs(basis.v2)], key=lambda v: v[0])
    assert np.allclose(vs[0], [0.0, 0.1], atol=1e-12)
    assert np.allclose(vs[1], [0.1, 0.0], atol=1e-12)
    assert basis.v1[0] * basis.v2[1] - basis.v1[1] * basis.v2[0] > 0


def test_affine_basis_determinant_on_sheared_grid():
    k = 20
    cloud = synth_lattice(SHEAR, k)
    basis = select_affine_basis(cloud, (0.0, 0.0))
    det = abs(basis.v1[0] * basis.v2[1] - basis.v1[1] * basis.v2[0])
    assert det == pytest.approx(1.0 / k ** 2, rel=1e-9)  # |det dG0| = 1


def test_affine_basis_too_sparse():
    cloud = PointCloud(10, np.array([[0.0, 0.0], [0.1, 0.0]]))
    with pytest.raises(TooSparse):
        select_affine_basis(cloud, (0.0, 0.0))


def test_label_regular_identity_exact():
    cloud = synth_lattice(IDENTITY, 20)
    basis = select_affine_basis(cloud, (0.0, 0.0))
    lab = label_regular(cloud, basis)
    assert len(lab) == len(cloud.points)
    A, kap = affine_map_between(lab, cloud.true_labels)   # exact up to one map


@pytest.mark.parametrize("k", [20, 50])
def test_label_regular_nonlinear(k):
    rng = np.random.default_rng(3)
    chart = random_chart(rng)
    cloud = synth_lattice(chart, k)
    basis = select_affine_basis(cloud, cloud.points.mean(axis=0))
    lab = label_regular(cloud, basis)
    assert len(lab) == len(cloud.points)
    affine_map_between(lab, cloud.true_labels)


def test_label_semitoric_matches_truth():
    rng = np.random.default_rng(5)
    chart = random_chart(rng, half=True)   # semitoric structure, full lattice
    chart = ChartSpec(chart.g0, chart.g1, Rect(-0.5, 0.5, -0.5, 0.5), half=False)
    cloud = synth_lattice(chart, 40)
    lab = label_semitoric(cloud)
    assert len(lab) == len(cloud.points)
    affine_map_between(lab, cloud.true_labels)


def test_label_half_lattice_identity():
    chart = ChartSpec(lambda xi: xi.copy(), lambda xi: np.zeros(2),
                      Rect(-0.5, 0.5, 0.0, 0.9), half=True)
    cloud = synth_lattice(chart, 20)
    lab = label_half_lattice(cloud, (0.0, 0.3))
    assert lab.kind == "half-lattice"
    got = np.array([lab.assignment[i] for i in range(len(cloud.points))])
    shift = got[0] - cloud.true_labels[0]
    assert shift[1] == 0                      # no vertical freedom
    assert np.all(got == cloud.true_labels + shift)


@pytest.mark.parametrize("seed", [1, 2])
def test_label_half_lattice_nonlinear(seed):
    rng = np.random.default_rng(seed)
    chart = random_chart(rng, half=True)
    cloud = synth_lattice(chart, 50)
    lab = label_half_lattice(cloud, np.asarray(chart.g0(np.array([0.0, 0.2])), float))
    got = np.array([lab.assignment[i] for i in range(len(cloud.points))])
    # per the half-lattice uniqueness: identity matrix, horizontal shift only
    shift = got[0] - cloud.true_labels[0]
    assert shift[1] == 0
    assert np.all(got == cloud.true_labels + shift)


def test_half_lattice_empty_strip():
    pts = np.array([[i * 0.1, 0.0] for i in range(12)])   # single row
    cloud = PointCloud(10, pts)
    with pytest.raises(EmptyStrip):
        label_half_lattice(cloud, (0.5, 0.0))


# -- transitions and gluing --------------------------------------------------

def _grid_labelling(cloud):
    return Labelling({i: (int(a), int(b)) for i, (a, b) in enumerate(cloud.true_labels)})


def test_transition_identity():
    cloud = synth_lattice(IDENTITY, 12)
    lab = _grid_labelling(cloud)
    t = transition(lab, lab, cloud)
    assert t.is_identity()


def test_transition_constructed():
    cloud = synth_lattice(IDENTITY, 12)
    lab1 = _grid_labelling(cloud)
    A = np.array([[1, 0], [1, 1]])
    lab2 = lab1.compose_affine(A, (3, -1))
    t = transition(lab1, lab2, cloud)
    assert np.array_equal(t.a_matrix, A) and tuple(t.kappa) == (3, -1)
    # exactness on every common point
    relabelled = t.apply(lab1)
    assert relabelled.assignment == lab2.assignment


def test_transition_inconsistent():
    cloud = synth_lattice(IDENTITY, 12)
    lab1 = _grid_labelling(cloud)
    broken = dict(lab1.assignment)
    # far outside the grid, so the broken labelling stays injective
    broken[0] = (broken[0][0] + 500, broken[0][1])
    with pytest.raises(Inconsistent, match="fails on some common point"):
        transition(lab1, Labelling(broken), cloud)


def test_transition_collinear_overlap():
    # one label row fixes no affine map of the plane
    cloud = synth_lattice(IDENTITY, 12)
    lab = _grid_labelling(cloud)
    row = Labelling({i: l for i, l in lab.assignment.items() if l[1] == 0})
    with pytest.raises(Inconsistent, match="collinear"):
        transition(row, lab, cloud)


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 2 ** 31 - 1))
def test_transition_roundtrip_random_sl2(n, k1, k2, seed):
    rng = np.random.default_rng(seed)
    cloud = synth_lattice(IDENTITY, 8)
    lab1 = _grid_labelling(cloud)
    # random SL(2,Z) word from unipotent generators
    A = np.eye(2, dtype=int)
    L = np.array([[1, 0], [n, 1]])
    U = np.array([[1, int(rng.integers(-3, 4))], [0, 1]])
    A = L @ U
    lab2 = lab1.compose_affine(A, (k1, k2))
    t = transition(lab1, lab2, cloud)
    assert np.array_equal(t.a_matrix, A)
    assert tuple(t.kappa) == (k1, k2)
    assert t.compose(t.inverse()).is_identity() and t.inverse().compose(t).is_identity()


def test_glue_two_charts_and_order_independence():
    rng = np.random.default_rng(7)
    chart = random_chart(rng)
    cloud = synth_lattice(chart, 30)
    xs = cloud.points[:, 0]
    lo, hi = xs.min(), xs.max()
    r1 = Rect(lo - 0.1, lo + 0.62 * (hi - lo), -10, 10)
    r2 = Rect(lo + 0.38 * (hi - lo), hi + 0.1, -10, 10)
    charts = []
    for r in (r1, r2):
        sub = cloud.restrict(r)
        basis = select_affine_basis(sub, np.mean(sub.points, axis=0))
        sub_lab = label_regular(sub, basis)
        # re-express on the full cloud's indices
        orig = np.where(r.contains(cloud.points))[0]
        charts.append((r, Labelling({int(orig[i]): l for i, l in sub_lab.assignment.items()})))
    glob = glue_global(cloud, charts)
    assert len(glob.merged) == len(cloud.points)
    affine_map_between(glob.merged, cloud.true_labels)
    # permuting the charts changes the result by one affine map only
    glob2 = glue_global(cloud, charts[::-1])
    m1 = np.array([glob.merged.assignment[i] for i in range(len(cloud.points))])
    lab2 = Labelling({i: tuple(m1[i]) for i in range(len(m1))})
    t = transition(glob2.merged, lab2, cloud)    # exists and is exact
    assert round(np.linalg.det(np.asarray(t.a_matrix))) == 1


def test_glue_single_chart_identity():
    cloud = synth_lattice(IDENTITY, 12)
    lab = _grid_labelling(cloud)
    glob = glue_global(cloud, [(Rect(-1, 1, -1, 1), lab)])
    assert glob.merged.assignment == lab.assignment


def _ring_cover(a_matrix, kappa):
    """The identity grid under three charts that overlap pairwise: A on the
    left, B bottom right and C top right.  C is labelled piecewise: its
    points over A keep the true labels and those over B take the map
    (a_matrix, kappa).  C leaves out the triple overlap, so each piece alone
    fixes C's transition to its neighbour and only the cycle A-B-C sees both."""
    cloud = synth_lattice(IDENTITY, 12)
    lab = _grid_labelling(cloud)
    pts, x = cloud.points, cloud.points[:, 0]

    def part(mask):
        return {i: l for i, l in lab.assignment.items() if mask[i]}

    a, b, c = Rect(-1, 0.1, -1, 1), Rect(-0.1, 1, -1, 0.1), Rect(-0.1, 1, -0.1, 1)
    in_c = c.contains(pts) & ~Rect(-0.1, 0.1, -0.1, 0.1).contains(pts)
    over_b = Labelling(part(in_c & (x > 0.1))).compose_affine(a_matrix, kappa)
    c_lab = Labelling({**part(in_c & (x < 0.1)), **over_b.assignment})
    return cloud, [(a, Labelling(part(a.contains(pts)))),
                   (b, Labelling(part(b.contains(pts)))), (c, c_lab)]


def test_glue_three_chart_cycle():
    cloud, charts = _ring_cover(np.eye(2, dtype=int), (0, 0))
    glob = glue_global(cloud, charts)
    assert sorted(glob.transitions) == [(0, 1), (0, 2), (1, 2)]
    assert glob.merged.assignment == _grid_labelling(cloud).assignment


@pytest.mark.parametrize("a_matrix, kappa, error, match", [
    ([[1, 0], [0, 1]], (1, 0), CocycleViolation, "translation mismatch"),
    ([[1, 0], [1, 1]], (0, 0), NonSimplyConnected, "nontrivial holonomy"),
], ids=["translation", "matrix"])
def test_glue_cycle_holonomy_raises(a_matrix, kappa, error, match):
    cloud, charts = _ring_cover(np.array(a_matrix), kappa)
    with pytest.raises(error, match=match):
        glue_global(cloud, charts)


def test_glue_point_with_two_labels_raises():
    # a label A carries outside its region escapes every overlap check
    cloud, charts = _ring_cover(np.eye(2, dtype=int), (0, 0))
    region, lab = charts[0]
    stray = int(np.argmax(cloud.points.sum(axis=1)))     # top-right corner, in C only
    charts[0] = (region, Labelling({**lab.assignment, stray: (100, 100)}))
    with pytest.raises(CocycleViolation, match="received two labels"):
        glue_global(cloud, charts)


def test_separation_invariant():
    cloud = synth_lattice(IDENTITY, 10)
    assert cloud.check_separation() == pytest.approx(0.1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_lagrange_reduce_properties(seed):
    rng = np.random.default_rng(seed)
    v1 = rng.normal(size=2)
    v2 = rng.normal(size=2)
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if abs(det) < 1e-3:
        return
    a, b = lagrange_reduce(v1, v2)
    # same lattice: determinant preserved up to sign, orientation positive
    det2 = a[0] * b[1] - a[1] * b[0]
    assert det2 == pytest.approx(abs(det), rel=1e-9)
    # reduced: a is the shortest, b no longer than b +- a
    assert np.linalg.norm(a) <= np.linalg.norm(b) + 1e-12
    assert np.linalg.norm(b) <= min(np.linalg.norm(b + a), np.linalg.norm(b - a)) + 1e-9


# -- parity with the per-point reference implementations ---------------------

def synth_lattice_reference(chart: ChartSpec, k: int) -> PointCloud:
    """synth_lattice as one Rect.contains test and one chart call per grid point."""
    h = 1.0 / k
    dom = chart.domain
    b_lo = int(np.floor(dom.ymin / h))
    if chart.half:
        b_lo = max(b_lo, 0)
    labels, pts = [], []
    for a in range(int(np.floor(dom.xmin / h)), int(np.ceil(dom.xmax / h)) + 1):
        for b in range(b_lo, int(np.ceil(dom.ymax / h)) + 1):
            xi = np.array([a * h, b * h])
            if dom.contains(xi)[0]:
                labels.append((a, b))
                pts.append(np.asarray(chart.g0(xi), float) + h * np.asarray(chart.g1(xi), float))
    cloud = PointCloud(k, np.array(pts), np.array(labels, dtype=int))
    cloud.check_separation()
    return cloud


def label_regular_reference(cloud: PointCloud, basis) -> Labelling:
    """label_regular with numpy (2, 2) frames and np.linalg.norm distances."""
    pts = cloud.points
    if len(pts) < _MIN_REGION_POINTS:
        raise TooSparse(f"only {len(pts)} points")
    tree = _kdtree(pts)
    labels, by_label, frames = {}, {}, {}

    def put(i, lab, frame):
        labels[i] = lab
        by_label[lab] = i
        frames[i] = frame

    f0 = np.array([basis.v1, basis.v2], float)
    put(basis.lam00, (0, 0), f0)
    put(basis.lam10, (1, 0), f0)
    put(basis.lam01, (0, 1), f0)
    q = deque((basis.lam00, basis.lam10, basis.lam01))
    ambiguous = 0
    while q:
        i = q.popleft()
        p = pts[i]
        f = frames[i]
        lab = labels[i]
        radius = _SEARCH_RADIUS * min(np.linalg.norm(f[0]), np.linalg.norm(f[1]))
        for d, vec in (((1, 0), f[0]), ((-1, 0), -f[0]), ((0, 1), f[1]), ((0, -1), -f[1])):
            nl = (lab[0] + d[0], lab[1] + d[1])
            target = p + vec
            if nl in by_label:
                if np.linalg.norm(pts[by_label[nl]] - target) > 2.5 * radius:
                    raise AmbiguousNeighbor(
                        f"transport inconsistency at label {nl} (hbar too large?)"
                    )
                continue
            cand = [c for c in tree.query_ball_point(target, radius) if c not in labels]
            if not cand:
                continue
            ranked = sorted((np.linalg.norm(pts[c] - target), c) for c in cand)
            if len(ranked) > 1 and ranked[1][0] < _AMBIGUITY_RATIO * ranked[0][0]:
                ambiguous += 1
                continue
            j = ranked[0][1]
            nf = f.copy()
            if d[0]:
                nf[0] = (pts[j] - p) * d[0]
                prev = by_label.get((nl[0], nl[1] - 1))
                if prev is not None:
                    nf[1] = pts[j] - pts[prev]
            else:
                nf[1] = (pts[j] - p) * d[1]
                prev = by_label.get((nl[0] - 1, nl[1]))
                if prev is not None:
                    nf[0] = pts[j] - pts[prev]
            put(j, nl, nf)
            q.append(j)
    missed = len(pts) - len(labels)
    if missed > 0:
        raise Disconnected(f"{missed} points unreachable ({ambiguous} ambiguous searches)")
    return Labelling(dict(labels), REGULAR)


def _outcome(fn, *args):
    """The labelling's assignment, or the (type, message) of what fn raised."""
    try:
        return fn(*args).assignment
    except Exception as exc:
        return type(exc), str(exc)


def _regular_outcome(label_fn, cloud):
    return _outcome(lambda c: label_fn(c, select_affine_basis(c, c.points.mean(axis=0))), cloud)


def _nth_chart(seed, index, half):
    rng = np.random.default_rng(seed)
    return [random_chart(rng, half=half) for _ in range(index + 1)][index]


@pytest.mark.parametrize("k", [20, 50])
@pytest.mark.parametrize("half", [False, True], ids=["regular", "half"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synth_and_label_regular_match_references(seed, half, k):
    chart = random_chart(np.random.default_rng(seed), half=half)
    cloud, ref = synth_lattice(chart, k), synth_lattice_reference(chart, k)
    assert np.array_equal(cloud.points, ref.points)
    assert np.array_equal(cloud.true_labels, ref.true_labels)
    assert cloud.true_labels.dtype == ref.true_labels.dtype
    got = _regular_outcome(label_regular, cloud)
    assert isinstance(got, dict)
    assert got == _regular_outcome(label_regular_reference, ref)


# the four known labelling failures on freshly drawn charts:
# (rng seed, index among that seed's draws, half, k)
KNOWN_DEFECT_CHARTS = [(0, 2, False, 50), (60, 2, False, 100), (75, 2, False, 50),
                       (18, 0, True, 50)]


@pytest.mark.parametrize("seed,index,half,k", KNOWN_DEFECT_CHARTS)
def test_known_defects_raise_as_the_references(seed, index, half, k):
    chart = _nth_chart(seed, index, half)
    cloud, ref = synth_lattice(chart, k), synth_lattice_reference(chart, k)
    assert np.array_equal(cloud.points, ref.points)
    assert np.array_equal(cloud.true_labels, ref.true_labels)
    if half:
        anchor = np.asarray(chart.g0(np.array([0.0, 0.25])), float)
        got = _outcome(label_half_lattice, cloud, anchor)
        want = _outcome(label_half_lattice, ref, anchor)
        assert want == (Disconnected, "bottom row is not a lattice line (domain not admissible)")
    else:
        got = _regular_outcome(label_regular, cloud)
        want = _regular_outcome(label_regular_reference, ref)
    assert isinstance(want, tuple)
    assert got == want


def test_label_regular_needs_the_cross_frame_refresh():
    # with a new point's frame taken from its parent alone, and not also from
    # its labelled neighbour, transport on this chart ends in AmbiguousNeighbor
    cloud = synth_lattice(_nth_chart(10, 2, False), 50)
    lab = label_regular(cloud, select_affine_basis(cloud, cloud.points.mean(axis=0)))
    assert len(lab) == len(cloud.points)
    affine_map_between(lab, cloud.true_labels)


def test_compose_affine_matches_per_label_map():
    cloud = synth_lattice(random_chart(np.random.default_rng(4)), 20)
    lab = Labelling({i: (int(a), int(b)) for i, (a, b) in enumerate(cloud.true_labels)})
    A, kappa = np.array([[2, 1], [1, 1]]), (-3, 7)
    want = {i: tuple(A @ np.array(l) + np.array(kappa)) for i, l in lab.assignment.items()}
    got = lab.compose_affine(A, kappa)
    assert got.assignment == want and list(got.assignment) == list(want)
    assert Labelling({}).compose_affine(A, kappa).assignment == {}
