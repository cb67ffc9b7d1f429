import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.invariants import (
    hausdorff,
    polygon_recover,
    sample_polygon_region,
)
from semitoric.pipeline import polygon_reference_distance, polygon_run
from semitoric.reference import reference_rho


def two_tree_hausdorff(a, b):
    """The reference: every point of each set queried against a k-d tree
    of the other (the two-tree body ``hausdorff`` bounds its way around)."""
    from scipy.spatial import cKDTree

    return max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())


def test_hausdorff_identical():
    a = np.random.default_rng(0).normal(size=(40, 2))
    assert hausdorff(a, a, 0.1, (0.0, 0.0)) == 0.0


def test_hausdorff_shifted_squares():
    sq = np.array([(x, y) for x in np.linspace(0, 1, 21) for y in np.linspace(0, 1, 21)])
    assert hausdorff(sq, sq, 0.05, (0.1, 0.0)) == pytest.approx(0.1, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_hausdorff_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(15, 2))
    b = rng.normal(size=(12, 2))
    assert hausdorff(a, b, 0.1, (0.0, 0.0)) == pytest.approx(hausdorff(b, a, 0.1, (0.0, 0.0)),
                                                             rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 12), st.floats(0.2, 0.8),
       st.booleans(), st.sampled_from([0.0, 0.1]))
def test_hausdorff_on_a_lattice_cloud_is_the_brute_force_value(seed, k, step, cut, holes):
    """A lattice cloud, with or without a cut column and holes, at a
    random shift, against a column sample of its region whose ends miss
    the cloud's by up to a column (so some cloud points lie outside the
    sample): the bounded queries give the brute-force distance, bit for
    bit."""
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(seed)
    h = 1.0 / k
    cols = np.arange(-k, k + 1)
    lo = rng.integers(-k, 0, size=len(cols))
    hi = lo + rng.integers(0, 2 * k, size=len(cols))
    labels = np.array([(j, l) for j, a, b in zip(cols, lo, hi) for l in range(a, b + 1)])
    keep = (labels[:, 0] != (rng.choice(cols) if cut else k + 1)) & (rng.random(len(labels)) >= holes)
    cloud = h * labels[keep]
    shift = rng.uniform(-3 * h, 3 * h, size=2)
    xs = np.arange(rng.uniform(-1.1, -0.9), rng.uniform(0.9, 1.1), step * h)
    col = np.clip(np.rint(xs / h).astype(int) + k, 0, 2 * k)
    start = h * lo[col] - rng.uniform(-0.5 * h, h, size=len(xs))
    stop = np.maximum(h * hi[col] + rng.uniform(-0.5 * h, h, size=len(xs)), start) + step * h / 2
    ys = [np.arange(a, b, step * h) for a, b in zip(start, stop)]
    sample = np.column_stack((np.repeat(xs, [len(y) for y in ys]), np.concatenate(ys))) + shift
    d = cdist(cloud + shift, sample)
    assert hausdorff(cloud, sample, h, shift) == max(d.min(axis=1).max(), d.min(axis=0).max())


def test_hausdorff_attained_where_a_cloud_point_bounds_the_sample_point():
    """The corners of a sample grid that overhangs a full lattice block by
    0.45 hbar attain the distance, 0.45 sqrt(2) hbar; the one sample point
    with no cloud point on its node lies only 0.55 hbar off, so the
    maximum is reached among the points the first queries skip."""
    from scipy.spatial.distance import cdist

    h, n = 0.1, 6
    cloud = h * np.array([(j, l) for j in range(n + 1) for l in range(n + 1)], dtype=float)
    ticks = np.arange(-0.45 * h, (n + 0.46) * h, 0.3 * h)
    grid = np.array([(x, y) for x in ticks for y in ticks])
    sample = np.concatenate((grid, [((n + 0.55) * h, 0.0)]))
    d = cdist(cloud, sample)
    want = max(d.min(axis=1).max(), d.min(axis=0).max())
    assert want == pytest.approx(0.45 * np.sqrt(2) * h)
    assert hausdorff(cloud, sample, h, (0.0, 0.0)) == want


@pytest.mark.parametrize("model, k", [
    (ModelSpec(SPIN_OSCILLATOR), 100),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.7), 40),
], ids=["spin-100", "coupled-0.7-40"])
def test_hausdorff_to_reference_is_the_two_tree_value(model, k):
    est = polygon_run(model, k)
    dist, shift, _, _ = polygon_reference_distance(model, est, k)
    sample = sample_polygon_region(model, model.strip, 0.35 / k)
    assert dist == two_tree_hausdorff(est.cloud + shift, sample)


def polygon_grid_cloud(k, slice_fn, strip):
    """Exact grid labels of a polygonal region: ideal cartographic cloud.
    A slice end on the grid keeps its row although j * h rounds."""
    h = 1.0 / k
    pts, labels = [], []
    for j in range(int(strip[0] / h), int(strip[1] / h) + 1):
        lo, hi = slice_fn(j * h)
        for l in range(int(np.ceil(lo / h - 1e-9)), int(np.floor(hi / h + 1e-9)) + 1):
            pts.append((j * h, l * h))
            labels.append((j, l))
    return np.array(pts), np.array(labels)


def test_polygon_recover_exact_cloud():
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)
    k = 40
    strip = (-3.3, 3.1)
    pts, labels = polygon_grid_cloud(k, model.polygon_slice, strip)
    est = polygon_recover(pts, labels, 1.0 / k, [-1.5, 1.5], strip)
    assert np.allclose(est.fitted_vertices, model.polygon_vertices, rtol=0, atol=1e-12)


def test_polygon_recover_reads_a_half_integer_slope():
    """A bottom edge of slope 1/2 between lattice points, at k = 10: its
    column ends step 0, 1, 0, 1, ..., and the chain reads the slope from the
    segment's rise over run, so the crossing with the top edge beyond the
    strip end lands exactly at (6.4, 2.2)."""
    k = 10
    strip = (0.0, 6.0)
    pts, labels = polygon_grid_cloud(k, lambda x: (max(0.0, (x - 2.0) / 2), 2.2), strip)
    est = polygon_recover(pts, labels, 1.0 / k, [2.0], strip)
    assert np.allclose(est.fitted_vertices, [(2.0, 0.0), (6.4, 2.2)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("model, critical_xs", [
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), [-1.5, 1.5]),
    (ModelSpec(SPIN_OSCILLATOR), [1.0]),
], ids=["coupled", "spin"])
@pytest.mark.parametrize("p, q", [(0, 0), (7, -3), (-40, 11)])
def test_one_translation_for_every_check(model, critical_xs, p, q):
    """Labels offset by (p, q) move the cloud and its vertices by hbar (p,
    q) exactly; the closed-form translation undoes that, and the vertex
    errors are measured at the translation the report gives."""
    k = 40
    h = 1.0 / k
    pts, labels = polygon_grid_cloud(k, model.polygon_slice, model.strip)
    est = polygon_recover(pts, labels + (p, q), h, critical_xs, model.strip)
    _, shift, end_error, vert_err = polygon_reference_distance(model, est, k)
    assert shift[0] == pytest.approx(-p * h, abs=1e-12)
    assert shift[1] == pytest.approx(-q * h, abs=h / 2)
    assert end_error <= h / 2
    assert np.allclose(np.asarray(est.fitted_vertices) - (p * h, q * h), model.polygon_vertices,
                       rtol=0, atol=1e-12)
    moved = np.asarray(est.fitted_vertices) + shift
    assert vert_err == [min(np.hypot(vx - rx, vy - ry) for rx, ry in model.polygon_vertices)
                        for vx, vy in moved]


def scalar_slice(model, x):
    """The reference slice at one abscissa, as a scalar branch computes it."""
    if model.kind == SPIN_OSCILLATOR:
        return (0.0, -1.0) if x < -1.0 else (-1.0, min(x, 1.0))
    r1, r2 = model.r1, model.r2
    return (0.0, -1.0) if abs(x) > r1 + r2 else (max(-r1, x - r2), min(r1, x + r2))


@pytest.mark.parametrize("model, kinks", [
    (ModelSpec(SPIN_OSCILLATOR), [-1.0, 1.0]),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), [-3.5, -1.5, 1.5, 3.5]),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=0.5, r2=1.5, t=0.3), [-2.0, -1.0, 1.0, 2.0]),
], ids=["spin", "coupled", "coupled-0.5-1.5"])
def test_polygon_slice_of_an_array_is_the_scalar_slice(model, kinks):
    # every kink, a last bit to either side, the strip and DH-range ends
    x = np.array([*model.strip, *model.dh_range, *kinks])
    x = np.concatenate((x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        np.linspace(-5.0, 5.0, 101)))
    lo, hi = model.polygon_slice(x)
    want = np.array([scalar_slice(model, float(v)) for v in x])
    assert np.array_equal(lo, want[:, 0]) and np.array_equal(hi, want[:, 1])
    assert np.array_equal(reference_rho(model, x), [max(b - a, 0.0) for a, b in want])


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


@pytest.mark.parametrize("model, k", [
    (ModelSpec(SPIN_OSCILLATOR), 12),
    (ModelSpec(SPIN_OSCILLATOR), 25),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.35), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.6), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=0.5, r2=1.5, t=0.5), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.0, t=0.5), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.6), 40),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=1.025, t=0.5), 40),
], ids=["spin-12", "spin-25", "coupled-0.35-20", "coupled-0.5-20", "coupled-0.6-20",
        "coupled-0.5-1.5-20", "coupled-1-2-20", "coupled-0.6-40", "coupled-1-1.025-40"])
def test_polygon_within_two_columns(model, k):
    # the cloud leaves out only the cut, one column above the focus-focus
    # value, so the reference lies about one column from it; a band and
    # corner balls of radius max(3 hbar, 0.35 sqrt(hbar)) used to leave
    # 3.2-4.2 hbar, and at coupled (1, 5/2, 0.6), k = 40, exit 4.  Every
    # reference vertex inside the strip is found, the two of (1, 1.025) at
    # x = -0.025 and +0.025 as well, although only one column lies between
    # their kink columns at k = 40
    est = polygon_run(model, k)
    dist, shift, _, vert_err = polygon_reference_distance(model, est, k)
    assert dist <= 2.0 / k
    assert max(vert_err) <= 0.1
    moved = np.asarray(est.fitted_vertices) + shift
    for rx, ry in model.polygon_vertices:
        if model.strip[0] < rx < model.strip[1]:
            assert np.hypot(moved[:, 0] - rx, moved[:, 1] - ry).min() <= 0.1


@pytest.mark.parametrize("r2, k", [(1.0125, 40), (1.0125, 80), (1.025, 20)],
                         ids=["40", "80", "1.025-20"])
def test_close_corner_column_ends_within_half_a_column(r2, k):
    # at (1, 1.0125, 1/2) the corners x = -0.0125 (the focus-focus column)
    # and +0.0125 lie in adjacent columns at k = 40, one column apart at 80;
    # at (1, 1.025, 1/2) and k = 20 the corners x = -0.025 and +0.025 do as
    # well.  A corner next to the cut column must bend the anchors although
    # the cut's short top bends there too
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=r2, t=0.5)
    est = polygon_run(model, k)
    _, _, end_error, _ = polygon_reference_distance(model, est, k)
    assert end_error <= 0.5 / k + 1e-12
