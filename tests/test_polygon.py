import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.errors import EdgeFitFailure
from semitoric.invariants import (
    hausdorff,
    polygon_recover,
    sample_polygon_region,
)
from semitoric.pipeline import (
    _vertex_errors,
    polygon_reference_distance,
    polygon_run,
)


def test_hausdorff_identical():
    a = np.random.default_rng(0).normal(size=(40, 2))
    assert hausdorff(a, a) == 0.0


def test_hausdorff_shifted_squares():
    sq = np.array([(x, y) for x in np.linspace(0, 1, 21) for y in np.linspace(0, 1, 21)])
    assert hausdorff(sq + [0.1, 0.0], sq) == pytest.approx(0.1, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_hausdorff_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(15, 2))
    b = rng.normal(size=(12, 2))
    assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), rel=1e-12)


def polygon_grid_cloud(k, slice_fn, strip):
    """Exact grid labels of a polygonal region: ideal cartographic cloud."""
    h = 1.0 / k
    pts, labels = [], []
    for j in range(int(strip[0] / h), int(strip[1] / h) + 1):
        lo, hi = slice_fn(j * h)
        for l in range(int(np.ceil(lo / h)), int(np.floor(hi / h)) + 1):
            pts.append((j * h, l * h))
            labels.append((j, l))
    return np.array(pts), np.array(labels)


def test_polygon_recover_exact_cloud():
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)
    k = 40
    strip = (-3.3, 3.1)
    pts, labels = polygon_grid_cloud(k, model.polygon_slice, strip)
    est = polygon_recover(pts, labels, 1.0 / k, [-1.5, 1.5], strip)
    verts = np.asarray(model.polygon_vertices, dtype=float)
    assert len(est.fitted_vertices) == 4
    for v in est.fitted_vertices:
        err = min(np.hypot(v[0] - a, v[1] - b) for a, b in verts)
        assert err < 1.5 / k   # discretization only


def test_polygon_recover_needs_columns():
    pts = np.array([[0.0, 0.0], [0.1, 0.0]])
    labels = np.array([[0, 0], [1, 0]])
    with pytest.raises(EdgeFitFailure):
        polygon_recover(pts, labels, 0.1, [], (0.0, 0.1))


def test_reference_slices_consistent_with_vertices():
    for model in (ModelSpec(SPIN_OSCILLATOR),
                  ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)):
        for (vx, vy) in model.polygon_vertices:
            lo, hi = model.polygon_slice(vx)
            assert lo - 1e-12 <= vy <= hi + 1e-12


def test_sample_polygon_region_inside():
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)
    pts = sample_polygon_region(model, (-3.0, 3.0), 0.1)
    for x, y in pts[::7]:
        lo, hi = model.polygon_slice(x)
        assert lo - 1e-9 <= y <= hi + 1e-9


class CountingTree(cKDTree):
    """A cKDTree that records how many points each query asks about."""

    def query(self, x, *args, **kwargs):
        self.sizes.append(len(x))
        return super().query(x, *args, **kwargs)


def counting_tree(points):
    tree = CountingTree(points)
    tree.sizes = []
    return tree


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 150), st.integers(3, 150),
       st.floats(0.3, 3.0), st.booleans(), st.booleans(),
       st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=8))
def test_hausdorff_memo_equals_plain(seed, n_a, n_b, spread, on_grid, far_ring, drawn):
    """Every memoised evaluation of a search is the plain distance, under
    ==: the first shift, a repeated shift, near shifts, a far shift after
    near ones, and the drawn shifts.  A is drawn wider or narrower than B,
    so either direction can attain the maximum, and on a grid, so that
    distances tie.  With a far ring added to B the maximum lies on the
    ring, so the repeated and near shifts query no point of A."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-spread, spread, size=(n_a, 2))
    b = rng.uniform(-1.0, 1.0, size=(n_b, 2))
    if on_grid:
        a, b = np.round(8 * a) / 8, np.round(8 * b) / 8
    if far_ring:
        b = np.vstack([b, [[50.0, 0.0], [-50.0, 0.0], [0.0, 50.0], [0.0, -50.0]]])
    tree = counting_tree(b)
    t0 = drawn[0]
    shifts = [t0, t0, t0 + 1e-12, t0 + 1e-3, t0 - 2e-3, t0 + 0.05, t0 + 3.0, t0 + 3.0 + 1e-3,
              *drawn[1:]]
    memo = {}
    for t in shifts:
        moved = a + np.array([0.0, t])
        assert hausdorff(moved, tree, memo=memo) == hausdorff(moved, b)
    if far_ring:
        assert tree.sizes[1:5] == [0, 0, 0, 0]


def test_hausdorff_memo_prunes_near_shifts():
    """A near shift re-measures fewer points than a full evaluation, and a
    memo kept for another tree or shape is not read."""
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(200, 2))
    b = rng.uniform(-1, 1, size=(400, 2))
    tree = counting_tree(b)
    memo = {}
    hausdorff(a, tree, memo=memo)
    assert tree.sizes == [200]
    assert hausdorff(a + [0.0, 1e-4], tree, memo=memo) == hausdorff(a + [0.0, 1e-4], b)
    assert tree.sizes[1] < 200
    other = counting_tree(b)
    assert hausdorff(a + [0.0, 1e-4], other, memo=memo) == hausdorff(a + [0.0, 1e-4], b)
    assert other.sizes == [200]
    assert hausdorff(a[:50], other, memo=memo) == hausdorff(a[:50], b)
    assert other.sizes == [200, 50]


def unpruned_reference_distance(model, est, k):
    """polygon_reference_distance's search with the plain hausdorff: the
    same sample, bracket and xtol."""
    h = 1.0 / k
    theory = sample_polygon_region(model, model.strip, 0.35 * h)
    theory_tree = cKDTree(theory)
    tx = est.x_translation

    def dist(ty):
        return hausdorff(est.cloud + np.array([tx, ty]), theory_tree)

    y0 = float(np.median(theory[:, 1])) - float(np.median(est.cloud[:, 1]))
    res = minimize_scalar(dist, bracket=(y0 - 2 * h, y0 + 2 * h),
                          method="brent", options={"xtol": 1e-4})
    shift = np.array([tx, float(res.x)])
    return float(res.fun), shift, _vertex_errors(est.fitted_vertices, model.polygon_vertices)


@pytest.mark.parametrize("model, k", [
    (ModelSpec(SPIN_OSCILLATOR), 12),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), 20),
])
def test_reference_distance_equals_unpruned_search(model, k):
    est = polygon_run(model, k)
    dist, shift, vert_err = polygon_reference_distance(model, est, k)
    want_dist, want_shift, want_err = unpruned_reference_distance(model, est, k)
    assert dist == want_dist
    assert shift.tolist() == want_shift.tolist()
    assert vert_err == want_err


@pytest.mark.parametrize("model, k", [
    (ModelSpec(SPIN_OSCILLATOR), 12),
    (ModelSpec(SPIN_OSCILLATOR), 25),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.35), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.6), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=0.5, r2=1.5, t=0.5), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.0, t=0.5), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.6), 40),
], ids=["spin-12", "spin-25", "coupled-0.35-20", "coupled-0.5-20", "coupled-0.6-20",
        "coupled-0.5-1.5-20", "coupled-1-2-20", "coupled-0.6-40"])
def test_polygon_within_two_columns(model, k):
    # the cloud leaves out only the cut, one column above the focus-focus
    # value, so the reference lies about one column from it; a band and
    # corner balls of radius max(3 hbar, 0.35 sqrt(hbar)) used to leave
    # 3.2-4.2 hbar, and at coupled (1, 5/2, 0.6), k = 40, exit 4
    est = polygon_run(model, k)
    dist, _, vert_err = polygon_reference_distance(model, est, k)
    assert dist <= 2.0 / k
    assert max(vert_err) <= 0.1
