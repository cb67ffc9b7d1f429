from types import SimpleNamespace

import numpy as np
import pytest

from semitoric.errors import NoPeak, WindowTooNarrow
from semitoric.invariants import (
    LabelledSpectrum,
    column_height,
    detect_kinks,
    dh_profile,
    height_invariant,
    locate_focus_focus,
)
from semitoric.models import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    BlockSequence,
    ModelSpec,
    build_blocks,
)
from semitoric.pipeline import (
    ModelCounter,
    build_probe_family,
    locate_critical_values,
)
from semitoric.reference import reference_rho
from semitoric.testing import strip_density

SPIN = ModelSpec(SPIN_OSCILLATOR)
COUPLED = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)


class CloudCounter:
    """Counter backed by explicit point arrays {k: (n,2) array}: the count
    interface of ModelCounter over a cloud the test writes down."""

    def __init__(self, clouds: dict[int, np.ndarray]):
        self.clouds = {k: np.asarray(p, dtype=float) for k, p in clouds.items()}
        self.ks = sorted(clouds)

    def count(self, k, xlo, xhi, ylo=-np.inf, yhi=np.inf) -> int:
        p = self.clouds[k]
        return int(np.sum((p[:, 0] >= xlo) & (p[:, 0] <= xhi)
                          & (p[:, 1] >= ylo) & (p[:, 1] <= yhi)))


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
    assert len(info["raw"]) == len(ks)


def test_height_window_too_narrow():
    counter = CloudCounter({100: np.array([[3.0, 0.0]])})
    with pytest.raises(WindowTooNarrow):
        height_invariant(counter, 0.0, 0.0)


def uniform_columns(k, x_range, y_range, origin):
    """A LabelledSpectrum of the uniform grid's columns, j = round(x k)."""
    h = 1.0 / k
    js = range(round(x_range[0] * k), round(x_range[1] * k) + 1)
    ys = np.arange(y_range[0], y_range[1] + h / 2, h)
    return LabelledSpectrum(k, {j: j * h for j in js},
                            lambda j: (np.arange(len(ys)), ys), origin)


def test_column_height_on_uniform_grid():
    # one column of the grid, counted up to y0 = 0.25 from ymin = -0.6
    ks = [100, 200, 400]
    family = {k: uniform_columns(k, (-0.8, 0.8), (-0.6, 0.9),
                                 (np.round(0.1 * k) / k, 0.25 + 0.5 / k)) for k in ks}
    val, info = column_height(family)
    assert info["raw"] == [(round(0.85 * k) + 1) / k for k in ks]
    assert val == pytest.approx(0.85, abs=1e-9)


def test_column_height_off_the_lattice():
    # an abscissa between two columns reads the nearest column, never an
    # empty count, and a column with fewer than 10 points below y0 is a
    # typed error, never a height near 0
    ks = [100, 200]

    def family(dx, y0):
        # column j's ladder is the uniform one raised by j / k, so each
        # column holds one point fewer below y0 than the column before it
        fam = {}
        for k in ks:
            h = 1.0 / k
            ys = np.arange(-0.6, 0.9 + h / 2, h)
            fam[k] = LabelledSpectrum(k, {j: j * h for j in range(-80, 81)},
                                      lambda j, ys=ys, h=h: (np.arange(len(ys)), ys + j * h),
                                      (0.1 + dx / k, y0))
        return fam

    _, on = column_height(family(0.0, 0.25))
    _, off = column_height(family(0.4, 0.25))
    _, next_column = column_height(family(1.0, 0.25))
    assert off["raw"] == on["raw"]
    assert next_column["raw"] == [n - 1 / k for n, k in zip(on["raw"], ks)]
    with pytest.raises(WindowTooNarrow):
        column_height(family(0.5, -0.555))


@pytest.mark.parametrize("r1, r2, t", [(0.5, 1.5, 0.5), (1.0, 2.0, 0.6)])
def test_column_height_matches_strip_count(r1, r2, t):
    # the family's count on each k's critical column is the Sturm count of
    # the same column below the same ordinate, and its limit agrees with
    # the paper's strip estimator centred on the located focus-focus value
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=r1, r2=r2, t=t)
    ks = [100, 200, 300, 400, 500]
    family = build_probe_family(model, ks)
    origin, _ = locate_critical_values(model, min(ks), family)
    column, info = column_height(family)
    counter = ModelCounter(model, ks)
    sturm = []
    for k in ks:
        x0, y0 = family[k].origin
        sturm.append(counter.count(k, x0 - 0.45 / k, x0 + 0.45 / k, -np.inf, y0) / k)
    assert info["raw"] == sturm
    strip, _ = height_invariant(counter, *origin)
    assert abs(column - strip) <= 0.03


def block_columns(k, sizes, descending=False):
    """A stand-in for a BlockSequence: column j of sizes[j] at x = j / k,
    with j from 0, listed in descending x when asked (as coupled angular
    momenta list theirs)."""
    js = np.arange(len(sizes))
    sizes = np.asarray(sizes)
    if descending:
        js, sizes = js[::-1], sizes[::-1]
    return SimpleNamespace(k=k, j_values=js / k, sizes=sizes)


def test_dh_profile_flat_on_rectangle():
    # every column of a rectangle of height 1.2 holds 1.2 k + 1 points; the
    # profile is in ascending x whichever way the blocks run
    k = 200
    for descending in (False, True):
        prof = dh_profile(block_columns(k, [241] * 401, descending))
        assert np.all(np.diff(prof[:, 0]) > 0)
        assert np.all(prof[:, 1] == 241 / k)
        assert detect_kinks(prof) == []


def test_dh_kinks_on_trapezoid():
    # density with slope changes at x = 1 and 1.5: flat, rising, flat; the
    # kinks are the exact columns, and the profile's ends are none
    k = 300
    j = np.arange(901)
    sizes = 1 + np.clip(j - k // 2, k // 2, k)
    prof = dh_profile(block_columns(k, sizes, descending=True))
    assert detect_kinks(prof) == [1.0, 1.5]
    assert detect_kinks(prof[:2]) == []


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

    x0, y0 = locate_focus_focus(provider, k, [0.3])
    assert x0 == pytest.approx(0.3)
    assert y0 == pytest.approx(0.12, abs=0.02)


def test_locate_focus_focus_stops_at_the_first_peak():
    # the first candidate with a peak is the answer: its one column is read
    # and the candidate after it is never solved
    k = 200
    calls = []

    def provider(k_, x):
        calls.append(x)
        if abs(x - 0.3) < 0.1:
            return x, synthetic_log_ladder(k_)
        return x, np.linspace(-1, 1, 180)

    x0, _ = locate_focus_focus(provider, k, [0.3, 0.0])
    assert x0 == pytest.approx(0.3)
    assert calls == [0.3]


@pytest.mark.parametrize("model", [SPIN, COUPLED], ids=["spin", "coupled"])
def test_located_ordinate_is_the_k200_refinement(model):
    # one formula for the focus-focus ordinate: the locate stage at k = 200
    # reads the same smallest-gap midpoint as the probe family's k = 200
    # critical column, whether the family holds that spectrum or not
    family = build_probe_family(model, [200])
    origin, _ = locate_critical_values(model, 200, family)
    assert family[200].origin == origin == locate_critical_values(model, 100)[0]


def test_locate_without_a_family_solves_no_origin_column(monkeypatch):
    # polygon and label read the focus alone: the only whole columns solved
    # are the locate stage's, at k = 200, and none at the caller's k = 20
    solved = []
    eigenvalues = BlockSequence.eigenvalues

    def recorded(self, i):
        solved.append(self.k)
        return eigenvalues(self, i)

    monkeypatch.setattr(BlockSequence, "eigenvalues", recorded)
    locate_critical_values(COUPLED, 20)
    assert solved and set(solved) == {200}
    family = build_probe_family(COUPLED, [20])
    locate_critical_values(COUPLED, 20, family)
    assert solved.count(20) == 1 and family[20].origin is not None


RADII = [(1.0, 2.5), (0.5, 1.5), (1.0, 2.0)]


@pytest.mark.parametrize("model", [SPIN] + [
    ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=r1, r2=r2, t=0.5) for r1, r2 in RADII
], ids=["spin", "coupled", "coupled-0.5-1.5", "coupled-1-2"])
def test_dh_kinks_exclude_the_grid_ends(model):
    # the located kinks are exact columns: J = 1 for the spin-oscillator and
    # J = r1 - r2, r2 - r1 for coupled angular momenta, at every k; no end
    # of the DH range is one (spin -0.89 and coupled +-3.38 used to be)
    origin, others = locate_critical_values(model, 200)
    kinks = sorted([origin[0], *others])
    if model.kind == SPIN_OSCILLATOR:
        assert kinks == [1.0]
    else:
        assert kinks == [model.r1 - model.r2, model.r2 - model.r1]
    for k in (20, 60, 200):
        assert detect_kinks(dh_profile(build_blocks(model, k, model.dh_range))) == kinks


@pytest.mark.parametrize("model, xs", [(SPIN, (-0.5, 0.0, 1.8)), (COUPLED, (-2.5, 0.0, 2.5))],
                         ids=["spin", "coupled"])
def test_weyl_law_strip_density_reads_the_column_profile(model, xs):
    # hbar times each column's size is rho_J to rounding, and the paper's
    # strip count of width 2 hbar^(1/4) reads the same density away from
    # the kinks to within its own resolution
    k = 500
    prof = dh_profile(build_blocks(model, k, model.dh_range))
    rho = np.array([reference_rho(model, x) for x in prof[:, 0]])
    assert np.abs(prof[:, 1] - rho).max() <= 1e-12
    for x in xs:
        column = prof[np.argmin(np.abs(prof[:, 0] - x)), 1]
        assert abs(strip_density(model, k, x, 0.25) - column) <= 0.01


def test_locate_focus_focus_no_peak():
    k = 200

    def provider(k_, x):
        return x, np.linspace(-1, 1, 180)   # regular ladder

    with pytest.raises(NoPeak):
        locate_focus_focus(provider, k, [0.0])
    # at (1/2, 3/2, 0.75) the critical column x0 = r1 - r2 = -1 shows no
    # qualifying peak at k = 200; a scan of neighbouring columns used to
    # return x0 = -0.99 instead, two columns off
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=0.5, r2=1.5, t=0.75)
    with pytest.raises(NoPeak):
        locate_critical_values(model, 200)
