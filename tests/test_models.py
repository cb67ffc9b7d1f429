import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from semitoric import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    ModelSpec,
    build_blocks,
    joint_spectrum,
)
from semitoric.cli import main
from semitoric.errors import (
    CommutatorViolation,
    ConfigurationError,
    DimensionMismatch,
    EmptyWindow,
)
from semitoric.pipeline import ModelCounter
from semitoric.testing import dense_oracle_spectrum, spectrum_columns
from semitoric.tridiag import sturm_count_below

SPIN = ModelSpec(SPIN_OSCILLATOR)
COUPLED = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)


def full_range(model: ModelSpec) -> tuple[float, float]:
    """The J-window that holds every block of a coupled model."""
    return (-(model.r1 + model.r2), model.r1 + model.r2)


def test_spin_k1_single_block():
    blocks = build_blocks(SPIN, 1, (0.9, 1.1))
    assert len(blocks) == 1
    diag, offdiag = blocks[0]
    assert blocks.sizes[0] == len(diag) == 2 and blocks.j_values[0] == pytest.approx(1.0)
    # chain (n=0,l=0),(n=1,l=1): coupling 1/(2 sqrt 2)
    assert offdiag == pytest.approx([1 / (2 * np.sqrt(2))])
    assert blocks.eigenvalues(0) == pytest.approx([-0.3535533905932738, 0.3535533905932738])


def test_coupled_t0_is_diagonal():
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.0)
    for _, offdiag in build_blocks(model, 2, (-3.5, 3.5)):
        assert np.all(offdiag == 0.0)


def test_coupled_t0_constant_lines():
    # H = (1-t) z1 term only: eigenvalues take at most 2*k*r1 distinct values
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.0)
    spec = joint_spectrum(model, 2, full_range(model))
    ys = np.unique(np.round(spec.y, 12))
    assert len(ys) <= round(2 * 2 * model.r1)


def test_coupled_total_dimension():
    blocks = build_blocks(COUPLED, 10, (-3.6, 3.6))
    assert sum(len(diag) for diag, _ in blocks) == 20 * 50


def test_coupled_spectrum_bounds():
    spec = joint_spectrum(COUPLED, 10, full_range(COUPLED))
    pts = spec.as_array()
    assert np.all(np.abs(pts[:, 0]) <= 3.5)
    assert np.all(np.abs(pts[:, 1]) <= 1.0 + 2.0 / 10)


def test_spin_k15_window():
    spec = joint_spectrum(SPIN, 15, (-1, 2))
    pts = spec.as_array()
    assert len(pts) > 300
    assert pts[:, 0].min() >= -1 and pts[:, 0].max() <= 2
    # y -> -y symmetry of the model
    ys = np.sort(pts[:, 1])
    assert np.allclose(ys, -ys[::-1], atol=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(deadline=None)
@given(twice_r1=st.integers(1, 6), twice_r2=st.integers(1, 6), t=st.floats(0.0, 1.0))
@example(twice_r1=2, twice_r2=5, t=0.5)
def test_oracle_equivalence_coupled(k, twice_r1, twice_r2, t):
    # half-integer spins 1/2 <= r1 < r2 <= 3, any coupling t
    assume(twice_r1 < twice_r2)
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=twice_r1 / 2, r2=twice_r2 / 2, t=t)
    spec = joint_spectrum(model, k, full_range(model))
    oracle = dense_oracle_spectrum(model, k)
    a, b = spectrum_columns(spec), spectrum_columns(oracle)
    assert set(a) == set(b)
    err = max(np.abs(a[i] - b[i]).max() for i in a)
    assert err < 1e-10
    assert len(spec) == (2 * k * model.r1) * (2 * k * model.r2)
    # (block, idx) strictly ascending, idx = 0 .. size-1 within each block
    db, di = np.diff(spec.block), np.diff(spec.idx)
    assert np.all((db > 0) | ((db == 0) & (di > 0)))
    _, starts, sizes = np.unique(spec.block, return_index=True, return_counts=True)
    assert np.array_equal(spec.idx, np.arange(len(spec)) - np.repeat(starts, sizes))


@st.composite
def small_models(draw):
    """(model, k, full x-range): a coupled model with half-integer spins
    1/2 <= r1 < r2 <= 3 and k <= 3, or the spin-oscillator with k <= 5."""
    if draw(st.booleans()):
        return SPIN, draw(st.integers(1, 5)), (-1.5, 3.5)
    twice_r1 = draw(st.integers(1, 5))
    twice_r2 = draw(st.integers(twice_r1 + 1, 6))
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=twice_r1 / 2, r2=twice_r2 / 2,
                      t=draw(st.floats(0.0, 1.0)))
    rsum = model.r1 + model.r2
    return model, draw(st.integers(1, 3)), (-rsum, rsum)


@settings(deadline=None)
@given(mk=small_models(), lo=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0))
def test_closed_form_sizes_and_unbounded_count(mk, lo, width):
    model, k, (xmin, xmax) = mk
    xlo = xmin + lo * (xmax - xmin)
    xhi = xlo + width * (xmax - xlo)
    spec = joint_spectrum(model, k, (xmin, xmax))
    # no column within rounding of a window edge
    assume(np.min(np.abs(np.unique(spec.x)[:, None] - [xlo, xhi])) > 1e-6)
    expected = int(np.sum((xlo <= spec.x) & (spec.x <= xhi)))
    assert ModelCounter(model, [k]).count(k, xlo, xhi) == expected
    try:
        blocks = build_blocks(model, k, (xlo, xhi))
    except EmptyWindow:
        assert expected == 0
        return
    assert blocks.sizes.tolist() == [len(diag) for diag, _ in blocks]


@settings(deadline=None, max_examples=500)
@given(spin=st.booleans(), twice_r1=st.integers(1, 9), t=st.floats(0.0, 1.0),
       k=st.integers(1, 300), data=st.data())
def test_window_ends_on_columns_select_exactly_their_blocks(spin, twice_r1, t, k, data):
    # the test above keeps every window edge away from a column; here both
    # edges are column abscissae, and both end columns belong to the window
    if spin:
        model = SPIN
    else:
        twice_r2 = data.draw(st.integers(twice_r1 + 1, 10), label="twice_r2")
        model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=twice_r1 / 2, r2=twice_r2 / 2, t=t)
    full = build_blocks(model, k, (-1.0, 3.0) if spin else full_range(model))
    i, j = (data.draw(st.integers(0, len(full) - 1)) for _ in range(2))
    xlo, xhi = sorted((full.j_values[i], full.j_values[j]))
    inside = (xlo <= full.j_values) & (full.j_values <= xhi)
    assert list(build_blocks(model, k, (xlo, xhi)).ids) == np.asarray(full.ids)[inside].tolist()


@settings(deadline=None)
@given(mk=small_models(), lo=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0),
       ylo=st.one_of(st.just(-np.inf), st.floats(-2.0, 2.0)),
       yhi=st.one_of(st.just(np.inf), st.floats(-2.0, 2.0)))
def test_sturm_counts_match_lapack(mk, lo, width, ylo, yhi):
    model, k, (xmin, xmax) = mk
    xlo = xmin + lo * (xmax - xmin)
    xhi = xlo + width * (xmax - xlo)
    assume(ylo <= yhi)
    try:
        blocks = build_blocks(model, k, (xlo, xhi))
    except EmptyWindow:
        return
    expected = 0
    for i, (diag, offdiag) in enumerate(blocks):
        ev = blocks.eigenvalues(i)
        # no eigenvalue within rounding of a y edge
        assume(np.min(np.abs(ev[:, None] - [ylo, yhi])) > 1e-9)
        below = np.searchsorted(ev, [ylo, yhi])
        for y, n in zip((ylo, yhi), below):
            if np.isfinite(y):
                assert sturm_count_below(diag, offdiag, y) == n
        expected += int(below[1] - below[0])
    assert ModelCounter(model, [k]).count(k, xlo, xhi, ylo, yhi) == expected


def test_j_check_guards_count_only_windows():
    # 2 k r2 is within 1e-9 of an integer, so the sizes are well defined, but
    # the J values in a block spread by 1.9e-11; a count with an unbounded y
    # range builds no block matrix, yet the check runs before it returns
    off_grid = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5 + 1e-11, t=0.5)
    with pytest.raises(DimensionMismatch, match="J eigenvalue spread"):
        ModelCounter(off_grid, [3]).count(3, -1.0, 1.0)


def j_spread_reference(model: ModelSpec, k: int) -> float:
    """Largest |J(l1, l2) - J value of block l1 + l2| over every basis state,
    from the per-factor Z eigenvalues: the per-state loop that
    ``check_dimensions``'s closed-form corner bound replaces."""
    n1, n2 = round(2 * k * model.r1), round(2 * k * model.r2)
    z1 = model.r1 * (n1 - 1 - 2 * np.arange(n1)) / n1
    z2 = model.r2 * (n2 - 1 - 2 * np.arange(n2)) / n2
    j_value = model.r1 + model.r2 - (1 + np.arange(n1 + n2 - 1)) / k
    spread = np.zeros(n1 + n2 - 1)
    for l1 in range(n1):
        row = spread[l1:l1 + n2]
        np.maximum(row, np.abs(z1[l1] + z2 - j_value[l1:l1 + n2]), out=row)
    return float(spread.max())


@settings(deadline=None)
@given(twice_r1=st.integers(1, 7), twice_r2=st.integers(2, 8), k=st.integers(1, 60),
       e1=st.floats(-1.0, 1.0), e2=st.floats(-1.0, 1.0), decades=st.integers(0, 6))
def test_closed_form_j_check_matches_the_per_state_loop(twice_r1, twice_r2, k, e1, e2, decades):
    # half-integer radii 1/2 <= r1 < r2 <= 4 moved by up to 1e-9 / (2k), so
    # 2 k r stays within 1e-9 of an integer and only the J check can refuse
    assume(twice_r1 < twice_r2)
    scale = 1e-9 / (2 * k) * 10.0 ** -decades
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=twice_r1 / 2 + e1 * scale,
                      r2=twice_r2 / 2 + e2 * scale)
    spread, limit = j_spread_reference(model, k), 1e-12 * (model.r1 + model.r2)
    assume(abs(spread - limit) > 1e-14)
    try:
        model.check_dimensions(k)
    except DimensionMismatch:
        assert spread > limit
    else:
        assert spread <= limit


@pytest.mark.parametrize("k", [1, 2])
def test_oracle_equivalence_spin(k):
    n_max = 40
    spec = joint_spectrum(SPIN, k, (0.0, 1 + (n_max - 2 * k) / k))
    oracle = dense_oracle_spectrum(SPIN, k, n_max=n_max)
    a, b = spectrum_columns(spec), spectrum_columns(oracle)
    for m in a:
        if m <= n_max - 2 * k:   # untouched by the Bargmann truncation
            assert np.abs(a[m] - b[m]).max() < 1e-9


def test_block_enumeration_order_independent():
    s1 = joint_spectrum(COUPLED, 3, full_range(COUPLED)).as_array()
    s2 = joint_spectrum(COUPLED, 3, full_range(COUPLED)).as_array()
    assert np.array_equal(s1, s2)
    blocks = build_blocks(COUPLED, 3, (-3.6, 3.6))
    order = range(len(blocks))
    ev_fwd = np.sort(np.concatenate([blocks.eigenvalues(i) for i in order]))
    ev_rev = np.sort(np.concatenate([blocks.eigenvalues(i) for i in reversed(order)]))
    assert np.abs(ev_fwd - ev_rev).max() < 1e-12


def test_blocks_monotone_simple():
    blocks = build_blocks(COUPLED, 5, (-3.0, 3.0))
    for i in range(len(blocks)):
        ev = blocks.eigenvalues(i)
        if len(ev) > 1:
            assert np.all(np.diff(ev) > 0)


def test_a_block_sequence_keeps_the_last_matrix_built(monkeypatch):
    # a probe's Sturm count and index windows on one column read one
    # matrix: it is built once, until another block is read
    blocks = build_blocks(COUPLED, 5, (-3.0, 3.0))
    built = []
    block = type(COUPLED)._block
    monkeypatch.setattr(type(COUPLED), "_block",
                        lambda self, k, s: built.append(s) or block(self, k, s))
    matrix = blocks[3]
    assert blocks[3] is matrix
    window = blocks.eigenvalue_window(3, 1, 2)
    assert np.abs(window - blocks.eigenvalues(3)[1:3]).max() < 1e-12
    blocks[4]
    assert blocks[3] is not matrix
    assert built == [blocks.ids[3], blocks.ids[4], blocks.ids[3]]


def test_a_repeated_eigenvalue_is_a_commutator_violation(monkeypatch, tmp_path, capsys):
    # H has a simple spectrum on each J-eigenspace; a block with a double
    # eigenvalue fails both solves, and the error names the block's id
    monkeypatch.setattr(type(SPIN), "_block", lambda self, k, m: (np.zeros(2), np.zeros(1)))
    blocks = build_blocks(SPIN, 2, (0.4, 1.6))
    assert list(blocks.ids) == [-1, 0, 1]
    with pytest.raises(CommutatorViolation, match="in block 1$"):
        blocks.eigenvalues(2)
    with pytest.raises(CommutatorViolation, match="in block -1$"):
        blocks.eigenvalue_window(0, 0, 1)
    assert main(["spectrum", "--k", "2", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical failure: non-simple spectrum in block -3\n"


def test_dimension_mismatch():
    bad = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.3, t=0.5)
    with pytest.raises(DimensionMismatch):
        build_blocks(bad, 2, (-3, 3))


def test_empty_window():
    with pytest.raises(EmptyWindow):
        build_blocks(COUPLED, 2, (10.0, 11.0))


@pytest.mark.parametrize("model", [SPIN, COUPLED], ids=["spin", "coupled"])
@pytest.mark.parametrize("window", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)],
                         ids=["to-inf", "from-inf", "nan-lo", "nan-hi"])
def test_a_non_finite_window_end_is_a_configuration_error(model, window):
    # a typed error, and not EmptyWindow, which a count reads as 0
    for call in (lambda: build_blocks(model, 4, window),
                 lambda: joint_spectrum(model, 4, window),
                 lambda: ModelCounter(model, [4]).count(4, *window)):
        with pytest.raises(ConfigurationError, match="finite ends") as err:
            call()
        assert not isinstance(err.value, EmptyWindow)


def test_model_validation():
    with pytest.raises(ValueError):
        ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=2.5, r2=1.0)
    with pytest.raises(ValueError):
        ModelSpec("pendulum")


def test_bad_model_parameters_raise_configuration_error():
    with pytest.raises(ConfigurationError, match="r2 > r1 > 0"):
        ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=3.0, r2=2.5)
    for kind in (None, ["coupled"]):
        with pytest.raises(ConfigurationError, match="unknown model kind"):
            ModelSpec(kind)


def test_a_model_is_its_kinds_subclass_with_value_semantics():
    # ModelSpec(kind, ...) returns the kind's subclass; equality, hashing,
    # replace, copy and pickle work on it as on the plain dataclass, and
    # replace validates through the subclass
    other = dataclasses.replace(COUPLED, t=0.3)
    assert type(other) is type(COUPLED) is not type(SPIN)
    assert isinstance(SPIN, ModelSpec) and other.kind == COUPLED_ANGULAR_MOMENTA
    assert other != COUPLED and dataclasses.replace(other, t=0.5) == COUPLED
    assert hash(ModelSpec(SPIN_OSCILLATOR)) == hash(SPIN)
    assert copy.copy(COUPLED) == COUPLED == pickle.loads(pickle.dumps(COUPLED))
    with pytest.raises(ConfigurationError, match="t must lie"):
        dataclasses.replace(COUPLED, t=2.0)


def test_exports(tmp_path):
    # the files of `semitoric spectrum`, read against the spectrum they hold:
    # every block of the strip, whole, with idx = 0 .. size - 1
    for model in (SPIN, COUPLED):
        out = tmp_path / model.kind
        assert main(["spectrum", "--model", model.kind, "--k", "2", "--out", str(out)]) == 0
        spec = joint_spectrum(model, 2, model.strip)
        lines = (out / "spectrum_k2.csv").read_text().strip().split("\n")
        assert lines[0] == "k,x,y,block,idx"
        rows = np.loadtxt(out / "spectrum_k2.csv", delimiter=",", skiprows=1, ndmin=2)
        blocks = build_blocks(model, 2, model.strip)
        ids, sizes = np.unique(rows[:, 3], return_counts=True)
        assert ids.tolist() == list(blocks.ids) and sizes.tolist() == blocks.sizes.tolist()
        assert rows[:, 4].tolist() == [i for n in sizes for i in range(n)]
        # the CSV is the spectrum's one copy: every x and y round-trips bit
        # for bit
        assert sorted(p.name for p in out.iterdir()) == ["spectrum_k2.csv"]
        assert len(rows) == len(spec)
        assert [float(line.split(",")[1]) for line in lines[1:]] == spec.x.tolist()
        assert [float(line.split(",")[2]) for line in lines[1:]] == spec.y.tolist()
