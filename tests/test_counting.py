import numpy as np
import pytest

from semitoric.errors import NoPeak, WindowTooNarrow
from semitoric.invariants import (
    CloudCounter,
    column_height,
    detect_kinks,
    dh_profile,
    height_invariant,
    locate_focus_focus,
)
from semitoric.models import COUPLED_ANGULAR_MOMENTA, ModelSpec
from semitoric.pipeline import ModelCounter, locate_critical_values, refine_origin


def uniform_cloud(k, x_range, y_range):
    h = 1.0 / k
    xs = np.arange(x_range[0], x_range[1] + h / 2, h)
    ys = np.arange(y_range[0], y_range[1] + h / 2, h)
    return np.array([(x, y) for x in xs for y in ys])


def test_cloud_counter():
    c = CloudCounter({10: np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])})
    assert c.count(10, 0.2, 1.2, 0.2, 0.7) == 1
    assert c.count(10, -1, 2) == 3


def test_height_on_uniform_grid():
    # flat density: the scaled sub-level count converges to (y0 - ymin)
    ks = [100, 150, 200, 250, 300]
    counter = CloudCounter({k: uniform_cloud(k, (-0.8, 0.8), (-0.6, 0.9)) for k in ks})
    val, info = height_invariant(counter, 0.0, 0.25, delta=0.4)
    # grid edge terms scale like hbar^0.6, not the fitted hbar^0.4 shape
    assert val == pytest.approx(0.85, abs=0.05)
    assert set(info["raw"]) == set(ks)


def test_height_window_too_narrow():
    counter = CloudCounter({100: np.array([[3.0, 0.0]])})
    with pytest.raises(WindowTooNarrow):
        height_invariant(counter, 0.0, 0.0)


def test_column_height_on_uniform_grid():
    # one column of the grid, counted up to y0 = 0.25 from ymin = -0.6
    ks = [100, 200, 400]
    counter = CloudCounter({k: uniform_cloud(k, (-0.8, 0.8), (-0.6, 0.9)) for k in ks})
    origins = {k: (np.round(0.1 * k) / k, 0.25 + 0.5 / k) for k in ks}
    val, info = column_height(counter, origins)
    assert info["raw"] == {k: (round(0.85 * k) + 1) / k for k in ks}
    assert val == pytest.approx(0.85, abs=1e-9)


def test_column_height_off_the_lattice():
    # an abscissa between two columns counts nothing: a typed error, never 0
    k = 100
    counter = CloudCounter({k: uniform_cloud(k, (-0.8, 0.8), (-0.6, 0.9))})
    with pytest.raises(WindowTooNarrow):
        column_height(counter, {k: (0.5 / k, 0.25)})


@pytest.mark.parametrize("r1, r2, t", [(0.5, 1.5, 0.5), (1.0, 2.0, 0.6)])
def test_column_height_matches_strip_count(r1, r2, t):
    # the paper's strip estimator, centred on the same focus-focus value,
    # is the reference for the count on the critical column
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=r1, r2=r2, t=t)
    ks = [100, 200, 300, 400, 500]
    origin, _ = locate_critical_values(model)
    counter = ModelCounter(model, ks)
    column, _ = column_height(counter, {k: refine_origin(model, k, origin) for k in ks})
    strip, _ = height_invariant(counter, *origin)
    assert abs(column - strip) <= 0.03


def test_dh_profile_flat_on_rectangle():
    k = 200
    counter = CloudCounter({k: uniform_cloud(k, (-1.0, 1.0), (-0.4, 0.8))})
    prof = dh_profile(counter, k, 0.25, np.linspace(-0.6, 0.6, 25))
    assert np.abs(prof.samples[:, 1] - 1.2).max() < 0.02
    assert detect_kinks(prof, half_window=0.3, min_jump=0.3) == []


def test_dh_kinks_on_trapezoid():
    # density with slope changes at x = -0.5 and 0.0; grid kept away from the
    # support edges where strip clipping bends the profile
    k = 300
    h = 1.0 / k
    pts = []
    for x in np.arange(-1.5, 1.5 + h / 2, h):
        top = min(0.5 + max(x + 0.5, 0.0), 1.0)
        pts.extend((x, y) for y in np.arange(0.0, top + h / 2, h))
    counter = CloudCounter({k: np.array(pts)})
    prof = dh_profile(counter, k, 0.25, np.arange(-1.0, 1.0, 0.02))
    kinks = detect_kinks(prof, half_window=0.25, min_jump=0.3)
    assert len(kinks) == 2
    assert abs(kinks[0] + 0.5) < 0.1 and abs(kinks[1] - 0.0) < 0.1


def synthetic_log_ladder(k, y0=0.12, lo=-1.0, hi=1.0):
    """Eigenvalue ladder accumulating logarithmically at y0: spacings
    proportional to 1/(C - ln|y - y0|)."""
    ys = [lo]
    while ys[-1] < hi:
        r = max(abs(ys[-1] - y0), 1e-9)
        ys.append(ys[-1] + (1.0 / k) / (1.5 - 0.4 * np.log(r)))
    return np.array(ys)


def test_locate_focus_focus_peak():
    k = 200

    def provider(k_, x):
        return x, synthetic_log_ladder(k_)

    found = locate_focus_focus(provider, k, [0.3])
    (x0, y0), = found
    assert x0 == pytest.approx(0.3)
    assert y0 == pytest.approx(0.12, abs=0.02)


def test_locate_focus_focus_no_peak():
    k = 200

    def provider(k_, x):
        return x, np.linspace(-1, 1, 180)   # regular ladder

    with pytest.raises(NoPeak):
        locate_focus_focus(provider, k, [0.0])
