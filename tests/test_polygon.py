import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.errors import EdgeFitFailure
from semitoric.invariants import (
    hausdorff,
    polygon_recover,
    sample_polygon_region,
)
from semitoric.pipeline import polygon_reference_distance, polygon_run


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
    verts = np.asarray(model.polygon_vertices, dtype=float)
    assert len(est.fitted_vertices) == 4
    for v in est.fitted_vertices:
        err = min(np.hypot(v[0] - a, v[1] - b) for a, b in verts)
        assert err < 1.5 / k   # discretization only


@pytest.mark.parametrize("model, critical_xs", [
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), [-1.5, 1.5]),
    (ModelSpec(SPIN_OSCILLATOR), [1.0]),
], ids=["coupled", "spin"])
@pytest.mark.parametrize("p, q", [(0, 0), (7, -3), (-40, 11)])
def test_one_translation_for_every_check(model, critical_xs, p, q):
    """Labels offset by (p, q) move the cloud by hbar (p, q); the closed-form
    translation undoes that, and the vertex errors are measured at the
    translation the report gives."""
    k = 40
    h = 1.0 / k
    pts, labels = polygon_grid_cloud(k, model.polygon_slice, model.strip)
    est = polygon_recover(pts, labels + (p, q), h, critical_xs, model.strip)
    _, shift, end_error, vert_err = polygon_reference_distance(model, est, k)
    assert shift[0] == pytest.approx(-p * h, abs=1e-12)
    assert shift[1] == pytest.approx(-q * h, abs=h / 2)
    assert end_error <= h / 2
    moved = np.asarray(est.fitted_vertices) + shift
    assert vert_err == [min(np.hypot(vx - rx, vy - ry) for rx, ry in model.polygon_vertices)
                        for vx, vy in moved]


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
    dist, _, _, vert_err = polygon_reference_distance(model, est, k)
    assert dist <= 2.0 / k
    assert max(vert_err) <= 0.1
