from types import SimpleNamespace

import numpy as np
import pytest

from semitoric.config import ProbeConfig
from semitoric.errors import NoPeak, WindowTooNarrow
from semitoric.invariants import (
    LabelledSpectrum,
    column_height,
    detect_kinks,
    dh_profile,
    height_invariant,
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
    _set_origins,
    build_probe_family,
    locate_critical_values,
    locate_focus_focus,
    recover_all,
)
from semitoric.reference import reference_rho
from semitoric.testing import strip_density
from semitoric.tridiag import sturm_count_below

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


def notched_columns(k, y0, raise_by=0):
    """A LabelledSpectrum of the uniform grid's columns on [-0.8, 0.8] x
    [-0.6, 0.9], j = round(x k), column j's ladder raised by raise_by * j
    rows, and each ladder's rows above y0 + hbar/2 lowered by a quarter
    spacing: the one smallest gap of a column lies just above y0."""
    h = 1.0 / k
    js = range(round(-0.8 * k), round(0.8 * k) + 1)
    ys = np.arange(-0.6, 0.9 + h / 2, h)

    def ladder(j):
        raised = ys + raise_by * j * h
        return raised - 0.25 * h * (raised > y0 + h / 2)

    return LabelledSpectrum(k, {j: j * h for j in js}, ladder)


def origin_column_height(family, focus):
    """column_height on the counts the pipeline reads below each origin."""
    return column_height(sorted(family), _set_origins(family, focus))


def test_column_height_on_uniform_grid():
    # one column of the grid, counted up to y0 = 0.25 from ymin = -0.6
    ks = [100, 200, 400]
    family = {k: notched_columns(k, 0.25) for k in ks}
    val, info = origin_column_height(family, (0.1, 0.25))
    assert info["raw"] == [(round(0.85 * k) + 1) / k for k in ks]
    assert val == pytest.approx(0.85, abs=1e-9)


def test_column_height_off_the_lattice():
    # an abscissa between two columns reads the nearest column, never an
    # empty count, and a column with fewer than 10 points below y0 is a
    # typed error, never a height near 0
    ks = [100, 200]

    def height(dx, y0):
        # column j's ladder is the uniform one raised by j / k, so each
        # column holds one point fewer below y0 than the column before it;
        # column 0.1 k starts at -0.5
        counts = [_set_origins({k: notched_columns(k, y0, 1)}, (0.1 + dx / k, y0))[0]
                  for k in ks]
        return column_height(ks, counts)

    _, on = height(0.0, 0.25)
    _, off = height(0.4, 0.25)
    _, next_column = height(1.0, 0.25)
    assert off["raw"] == on["raw"]
    assert next_column["raw"] == [n - 1 / k for n, k in zip(on["raw"], ks)]
    with pytest.raises(WindowTooNarrow):
        height(0.5, -0.455)


@pytest.mark.parametrize("r1, r2, t", [(0.5, 1.5, 0.5), (1.0, 2.0, 0.6)])
def test_column_height_matches_strip_count(r1, r2, t):
    # the family's count on each k's critical column is the Sturm count of
    # the same column below the same ordinate, and its limit agrees with
    # the paper's strip estimator centred on the located focus-focus value
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=r1, r2=r2, t=t)
    ks = [100, 200, 300, 400, 500]
    family = build_probe_family(model, ks)
    origin, _ = locate_critical_values(model, min(ks), family)
    column, info = origin_column_height(family, origin)
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
        blocks = block_columns(k, [241] * 401, descending)
        prof = dh_profile(blocks)
        assert np.all(np.diff(prof[:, 0]) > 0)
        assert np.all(prof[:, 1] == 241 / k)
        assert detect_kinks(blocks) == []


def test_dh_kinks_on_trapezoid():
    # density with slope changes at x = 1 and 1.5: flat, rising, flat; the
    # kinks are the exact columns, and the profile's ends are none
    k = 300
    j = np.arange(901)
    sizes = 1 + np.clip(j - k // 2, k // 2, k)
    assert detect_kinks(block_columns(k, sizes, descending=True)) == [1.0, 1.5]
    assert detect_kinks(block_columns(k, sizes[:2])) == []


def synthetic_log_ladder(k, y0=0.12, lo=-1.0, hi=1.0):
    """Eigenvalue ladder accumulating logarithmically at y0: spacings
    proportional to 1/(C - ln|y - y0|)."""
    ys = [lo]
    while ys[-1] < hi:
        r = max(abs(ys[-1] - y0), 1e-9)
        ys.append(ys[-1] + (1.0 / k) / (1.5 - 0.4 * np.log(r)))
    return np.array(ys)


def ladder_spectrum(k, ladders, calls=None):
    """A LabelledSpectrum whose column j, at x = ladders[j][0], has the
    ladder ladders[j][1]; each column read whole is recorded in calls."""
    def solve(j):
        if calls is not None:
            calls.append(j)
        return ladders[j][1]

    return LabelledSpectrum(k, {j: x for j, (x, _) in enumerate(ladders)}, solve)


def test_locate_focus_focus_peak():
    k = 200
    spec = ladder_spectrum(k, [(0.3, synthetic_log_ladder(k))])
    x0, y0 = locate_focus_focus(spec, [0.3])
    assert x0 == pytest.approx(0.3)
    assert y0 == pytest.approx(0.12, abs=0.02)


def test_locate_focus_focus_stops_at_the_first_peak():
    # the first candidate with a peak is the answer: its one column is read
    # and the candidate after it is never solved
    k = 200
    calls = []
    spec = ladder_spectrum(k, [(0.0, np.linspace(-1, 1, 180)),
                               (0.3, synthetic_log_ladder(k))], calls)
    x0, _ = locate_focus_focus(spec, [0.3, 0.0])
    assert x0 == pytest.approx(0.3)
    assert calls == [1]


@pytest.mark.parametrize("model", [SPIN, COUPLED], ids=["spin", "coupled"])
def test_located_ordinate_is_the_k200_refinement(model):
    # one formula for the focus-focus ordinate: the locate stage at k = 200
    # reads the same smallest-gap midpoint of the k = 200 critical column
    # whether the family holds that spectrum or not, and sets no origin
    family = build_probe_family(model, [200])
    origin, _ = locate_critical_values(model, 200, family)
    assert origin == locate_critical_values(model, 100)[0]
    assert family[200].origin is None


def test_locate_without_a_family_solves_no_origin_column(monkeypatch):
    # polygon and label read the focus alone: the only whole columns solved
    # are the locate stage's, at k = 200, and none at the caller's k = 20;
    # with a family, each origin reads an index window, no whole column
    solved = []
    eigenvalues = BlockSequence.eigenvalues

    def recorded(self, i):
        solved.append(self.k)
        return eigenvalues(self, i)

    monkeypatch.setattr(BlockSequence, "eigenvalues", recorded)
    locate_critical_values(COUPLED, 20)
    assert solved and set(solved) == {200}
    family = build_probe_family(COUPLED, [20])
    _set_origins(family, locate_critical_values(COUPLED, 20, family)[0])
    assert 20 not in solved and family[20].origin is not None


# the focus-focus points of the coupled t sweep at k = 100 ... 500, and the
# two whose window offsets are largest at k = 1000 and 2000; at (1/2, 3/2,
# 0.35) the locate stage ends in NoPeak
SWEEP = [(SPIN, (100, 200, 300, 400, 500))] + [
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=r1, r2=r2, t=t), (100, 200, 300, 400, 500))
    for r1, r2 in ((1.0, 2.5), (0.5, 1.5), (1.0, 2.0))
    for t in (0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7)
    if (r1, r2, t) != (0.5, 1.5, 0.35)
] + [(ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=r1, r2=r2, t=t), (200, 1000, 2000))
     for r1, r2, t in ((1.0, 2.0, 0.7), (1.0, 2.5, 0.35))]


@pytest.mark.slow
@pytest.mark.parametrize("model, ks", SWEEP, ids=[
    ("spin" if m.kind == SPIN_OSCILLATOR else f"coupled-{m.r1}-{m.r2}-{m.t}") + f"-k{max(ks)}"
    for m, ks in SWEEP])
def test_window_origin_is_the_whole_ladders_smallest_gap(model, ks):
    # each origin, the located k's included, reads an index window around
    # the located ordinate's row; it must find the smallest gap of the
    # whole ladder, the same row, and its midpoint within rounding of the
    # whole ladder's.  The window's count of rows below it is the Sturm
    # count there, the count the height reads
    family = build_probe_family(model, ks)
    counts = _set_origins(family, locate_critical_values(model, min(ks), family)[0])
    for k, n in zip(sorted(family), counts):
        spec = family[k]
        x0, y0 = spec.origin
        i = spec.blocks.ids.index(spec._sign * spec.nearest_column(x0))
        ev = spec.blocks.eigenvalues(i)
        row = int(np.argmin(np.diff(ev)))
        assert int(np.searchsorted(ev, y0)) - 1 == row
        d, e = spec.blocks[i]
        assert n == sturm_count_below(d, e, y0)
        norm = np.max(np.abs(d) + np.append(np.abs(e), 0) + np.append(0, np.abs(e)))
        assert abs(y0 - 0.5 * (ev[row] + ev[row + 1])) <= 8 * np.finfo(float).eps * norm


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
        assert detect_kinks(build_blocks(model, k, model.dh_range)) == kinks


def test_a_kink_near_the_focus_is_another_critical_abscissa():
    # at (1, 1.025, 1/2) the corner x = r2 - r1 lies 0.05 from the focus
    # x0 = r1 - r2; every kink and x0 are the same exact column floats, so
    # only x0 itself is left out, however close the corner
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=1.025, t=0.5)
    (x0, _), others = locate_critical_values(model, 200)
    assert x0 == pytest.approx(-0.025) and others == [pytest.approx(0.025)]
    assert sorted([x0, *others]) == detect_kinks(build_blocks(model, 200, model.dh_range))


@pytest.mark.parametrize("model", [SPIN, COUPLED], ids=["spin", "coupled"])
def test_recovery_builds_one_block_sequence_per_k(model, monkeypatch):
    # the locate stage reads the probe family's k = 200 spectrum, blocks
    # and kinks included, and builds none of its own
    built = []
    init = BlockSequence.__init__

    def recorded(self, owner, k, ids):
        built.append(k)
        init(self, owner, k, ids)

    monkeypatch.setattr(BlockSequence, "__init__", recorded)
    recover_all(model)
    assert built == ProbeConfig().k_list


@pytest.mark.parametrize("model, xs", [(SPIN, (-0.5, 0.0, 1.8)), (COUPLED, (-2.5, 0.0, 2.5))],
                         ids=["spin", "coupled"])
def test_weyl_law_strip_density_reads_the_column_profile(model, xs):
    # hbar times each column's size is rho_J to rounding, and the paper's
    # strip count of width 2 hbar^(1/4) reads the same density away from
    # the kinks to within its own resolution
    k = 500
    prof = dh_profile(build_blocks(model, k, model.dh_range))
    rho = reference_rho(model, prof[:, 0])
    assert np.abs(prof[:, 1] - rho).max() <= 1e-12
    for x in xs:
        column = prof[np.argmin(np.abs(prof[:, 0] - x)), 1]
        assert abs(strip_density(model, k, x, 0.25) - column) <= 0.01


def test_locate_focus_focus_no_peak():
    k = 200
    spec = ladder_spectrum(k, [(0.0, np.linspace(-1, 1, 180))])   # regular ladder
    with pytest.raises(NoPeak):
        locate_focus_focus(spec, [0.0])
    # at (1/2, 3/2, 0.75) the critical column x0 = r1 - r2 = -1 shows no
    # qualifying peak at k = 200; a scan of neighbouring columns used to
    # return x0 = -0.99 instead, two columns off
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=0.5, r2=1.5, t=0.75)
    with pytest.raises(NoPeak):
        locate_critical_values(model, 200)


@pytest.mark.slow
@pytest.mark.parametrize("t", [0.2, 0.3, 0.35, 0.5, 0.7, 0.8, 0.9])
def test_coupled_recovery_reports_or_fails_typed(t):
    # across the coupling, a recovery either finds the focus-focus value at
    # ordinate 1 - 2t or ends in NoPeak; any other exception fails the test
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=t)
    try:
        report = recover_all(model)
    except NoPeak:
        return
    assert abs(report["focus_focus"][1] - (1 - 2 * t)) <= 2e-3
