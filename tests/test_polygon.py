import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from semitoric.invariants.polygon import _Columns
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


def column_set(x0, step, columns):
    """Points x = x0 + step * i, y = lo_i + step * m (m < n_i) of the
    drawn columns (lo_i, n_i), and each point's column."""
    pts = [(x0 + step * i, lo + step * m) for i, (lo, n) in enumerate(columns) for m in range(n)]
    col = [i for i, (_, n) in enumerate(columns) for _ in range(n)]
    return np.array(pts, dtype=float).reshape(-1, 2), np.array(col)


def two_column_distance(q, pts, col, x0, step):
    """The bound's oracle: the distance from each q to the nearest point of
    the two columns on either side of it (clamped to the drawn ones),
    searched over every row."""
    last = col.max()
    left = np.clip(np.floor((q[:, 0] - x0) / step), 0, last).astype(int)
    out = []
    for (qx, qy), c in zip(q, left):
        near = pts[(col == c) | (col == min(c + 1, last))]
        out.append(np.hypot(near[:, 0] - qx, near[:, 1] - qy).min(initial=np.inf))
    return np.array(out)


columns = st.lists(st.tuples(st.floats(-3.0, 3.0), st.integers(0, 9)), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(columns, columns, st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(-2.0, 2.0),
       st.floats(-6.0, 6.0), st.floats(-1.0, 1.0), st.integers(0, 11), st.integers(0, 8))
def test_column_bounds_hold_and_keep_the_distance(cols_a, cols_b, step_a, step_b, x0_b,
                                                  shift_rows, tx, cut_col, cut_row):
    """_Columns.bound is the distance to the nearest point of the two
    columns beside each query point, so it bounds the exact distance from
    above; with those bounds hausdorff returns the plain float.  A's
    columns are drawn with empty and one-point columns and one column cut
    from a row up, and A moves by up to several of B's rows."""
    if cut_col < len(cols_a):
        cols_a[cut_col] = (cols_a[cut_col][0], min(cols_a[cut_col][1], cut_row))
    a, col_a = column_set(0.0, step_a, cols_a)
    b, col_b = column_set(x0_b, step_b, cols_b)
    assume(len(a) and len(b))
    shift = (tx, shift_rows * step_b)
    moved = a + np.array(shift)
    bound_a = _Columns(b, step_b).bound(moved)
    bound_b = _Columns(a, step_a).bound(b, shift)
    # the oracle's abscissae start at the first non-empty column, as _Columns' do
    want_a = two_column_distance(moved, b, col_b - col_b.min(), b[:, 0].min(), step_b)
    want_b = two_column_distance(b, moved, col_a - col_a.min(), moved[:, 0].min(), step_a)
    np.testing.assert_allclose(bound_a, want_a, rtol=0, atol=1e-9)
    np.testing.assert_allclose(bound_b, want_b, rtol=0, atol=1e-9)
    assert np.all(bound_a >= cKDTree(b).query(moved)[0] - 1e-9)
    assert np.all(bound_b >= cKDTree(moved).query(b)[0] - 1e-9)
    assert hausdorff(moved, b, bounds=(bound_a, bound_b)) == hausdorff(moved, b)


def test_bounded_evaluation_queries_few_points(monkeypatch):
    """At the search's first shift, spin k = 25, the column bounds leave
    fewer than 1% of the cloud and sample points to query exactly."""
    queried = []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(np.atleast_2d(x)))
            return super().query(x, *args, **kwargs)

    model, k = ModelSpec(SPIN_OSCILLATOR), 25
    est = polygon_run(model, k)
    h = 1.0 / k
    theory = sample_polygon_region(model, model.strip, 0.35 * h)
    shift = (est.x_translation,
             float(np.median(theory[:, 1])) - float(np.median(est.cloud[:, 1])))
    moved = est.cloud + np.array(shift)
    bounds = (_Columns(theory, 0.35 * h).bound(moved),
              _Columns(est.cloud, h).bound(theory, shift))
    monkeypatch.setattr("scipy.spatial.cKDTree", CountingTree)
    got = hausdorff(moved, CountingTree(theory), bounds=bounds)
    assert 0 < sum(queried) < 0.01 * (len(moved) + len(theory))
    assert got == hausdorff(moved, theory)


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
    (ModelSpec(SPIN_OSCILLATOR), 25),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.6), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.6), 40),
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
