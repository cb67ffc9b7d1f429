import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.errors import ActionDiscontinuity, MissingNeighbor, SignError
from semitoric.lattice import label_semitoric
from semitoric.invariants import (
    LabelledSpectrum,
    hbar_limit,
    recover_S01,
    ray_samples,
    recover_fr_gradient,
    recover_sigma1,
)
from semitoric.invariants.spacings import _interp_cubic
from semitoric.models import build_blocks
from semitoric.pipeline import _set_origins, build_probe_family, locate_critical_values
from semitoric.tridiag import eigs_in_window


def grid_spectrum(k, alpha, beta, x_range=(-0.4, 0.4), y_range=(-0.4, 0.4)):
    """Labelled lattice with chart G0(xi) = (xi1, alpha xi1 + beta xi2):
    the inverse Jacobian has a1 = -alpha/beta, a2 = 1/beta."""
    h = 1.0 / k
    js = range(int(x_range[0] / h), int(x_range[1] / h) + 1)
    ls = np.arange(int(y_range[0] / h), int(y_range[1] / h) + 1)
    return LabelledSpectrum(k, {j: h * j for j in js},
                            lambda j: alpha * h * j + beta * h * ls)


def test_identity_chart_a1_a2():
    ls = grid_spectrum(20, 0.0, 1.0)
    a1, a2 = ls.a1a2_interpolated((0.0, 0.013))
    assert a1 == pytest.approx(0.0, abs=1e-12)
    assert a2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.7, 1.3), (-0.4, 0.8)])
def test_linear_chart_inverse_jacobian(alpha, beta):
    ls = grid_spectrum(50, alpha, beta)
    a1, a2 = ls.a1a2_interpolated((2.5 / 50, 0.01))
    assert a2 == pytest.approx(1.0 / beta, rel=1e-8)
    assert a1 == pytest.approx(-alpha / beta, rel=1e-6, abs=1e-9)


def two_columns(ys0, ys1, k=10):
    """Columns j = 0, 1 with the given ladders."""
    return LabelledSpectrum(k, {0: 0.0, 1: 1.0 / k}, lambda j: (ys0, ys1)[j])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=12),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(0.0, 1.0))
def test_interpolation_reproduces_cubics(gaps, coeffs, t):
    # column 1 sits below column 0 by p(height) for a cubic p, so the row
    # difference interpolated at y must be p(y) exactly; |p'| <= 0.6 on
    # [-1, 1] keeps column 1 ascending
    nodes = np.concatenate([[0.0], np.cumsum(gaps)])
    nodes = 2.0 * nodes / nodes[-1] - 1.0
    p = np.polynomial.Polynomial(0.1 * np.asarray(coeffs))
    y = -1.0 + 2.0 * t
    spec = two_columns(nodes, nodes - p(nodes))
    a1, a2 = spec.a1a2_interpolated((0.0, y))
    assert a1 / a2 * spec.hbar == pytest.approx(p(y), abs=1e-9)


def exact_stencil_value(xs, ys, x):
    """The stencil cubic's value at x in exact rational arithmetic: the
    Lagrange form through the same nodes as ``_interp_cubic``, every float
    read as the Fraction it is."""
    i = min(max(int(np.searchsorted(xs, x)) - 2, 0), max(len(xs) - 4, 0))
    t = [Fraction(v) for v in xs[i:i + 4]]
    x = Fraction(x)
    return float(sum(Fraction(y) * math.prod((x - tb) / (ta - tb) for tb in t if tb != ta)
                     for ta, y in zip(t, ys[i:i + 4])))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.1, 2.0), min_size=0, max_size=3),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(-10.0, 10.0), st.floats(-1.0, 1.0), st.floats(-0.5, 1.5))
# np.polyfit, the former oracle, is 1.34e-12 off the exact value here
@example([1.75, 0.1015625, 0.1015625], [0.0, 0.0, 0.0, 1.0], 0.0, 0.0, 0.0)
def test_stencil_cubic_is_the_exact_lagrange_value(gaps, ys, x0, scale, t):
    # 1-4 ascending nodes, x from a gap below the first to a gap above the last
    xs = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    ys = np.ldexp(np.asarray(ys[:len(xs)]), int(8 * scale))
    x = xs[0] + t * (xs[-1] - xs[0]) + (t - 0.5) * 0.2
    assert abs(_interp_cubic(xs, ys, x) - exact_stencil_value(xs, ys, x)) <= 1e-12 * np.abs(ys).max()


def test_interpolation_has_no_tie_on_symmetric_nodes():
    # the nodes are exactly symmetric about y = 1 in floating point, so a
    # stencil chosen by distance to y would be picked by y's last bit
    y = 1.0
    ys0 = y + np.array([-2.5, -1.5, -0.75, -0.25, 0.25, 0.75, 1.5, 2.5])
    spec = two_columns(ys0, ys0 - 0.05 * np.sin(ys0))
    at = spec.a1a2_interpolated((0.0, y))
    for step in (np.inf, -np.inf):
        near = spec.a1a2_interpolated((0.0, np.nextafter(y, step)))
        assert near == pytest.approx(at, abs=1e-12)


def test_spin_probe_ignores_subulp_noise_in_height():
    # every spin-oscillator column is symmetric under H -> -H, so its ladder
    # is symmetric about the probe height y = 0
    family = build_probe_family(ModelSpec(SPIN_OSCILLATOR), [200])
    _set_origins(family, locate_critical_values(ModelSpec(SPIN_OSCILLATOR), 200, family)[0])
    sp = family[200]
    x = sp.origin[0] + 0.01
    a1 = [sp.a1a2_interpolated((x, y))[0] for y in (0.0, 1e-18, -1e-18)]
    assert a1[1] == pytest.approx(a1[0], abs=1e-12)
    assert a1[2] == pytest.approx(a1[0], abs=1e-12)


def whole_ladder_probe(ys0, ys1, y, hbar):
    """(a1, a2) read off two whole ladders: the spacing cubic over all of
    column j, the row-difference cubic over every row the columns share."""
    s_t = _interp_cubic(0.5 * (ys0[1:] + ys0[:-1]), np.diff(ys0), y)
    m = min(len(ys0), len(ys1))
    d_t = _interp_cubic(ys0[:m], ys0[:m] - ys1[:m], y)
    return d_t / s_t, hbar / s_t


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 30), st.integers(1, 30), st.integers(0, 2 ** 31 - 1),
       st.floats(-0.2, 1.2))
def test_index_windows_read_the_whole_ladder_stencils(n0, n1, seed, t):
    # the windows a probe reads hold every node the whole-ladder stencils
    # use, for any height, including heights past either end and above a
    # shorter column j + 1
    rng = np.random.default_rng(seed)
    ys0 = np.cumsum(rng.uniform(0.5, 1.5, n0))
    ys1 = np.cumsum(rng.uniform(0.5, 1.5, n1))
    spec = LabelledSpectrum(10, {0: 0.0, 1: 0.1}, lambda j: (ys0, ys1)[j])
    y = ys0[0] + t * (ys0[-1] - ys0[0])
    if n1 < 2:
        with pytest.raises(MissingNeighbor):
            spec.a1a2_interpolated((0.0, y))
    else:
        assert spec.a1a2_interpolated((0.0, y)) == whole_ladder_probe(ys0, ys1, y, 0.1)


@pytest.mark.parametrize("model,offsets,far_xs", [
    (ModelSpec(SPIN_OSCILLATOR), (-7, -3, -1, 1, 4), (1.6,)),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), (-6, -1, 2), (2.5, 3.3)),
], ids=["spin-oscillator", "coupled"])
def test_windowed_probes_equal_whole_ladder_probes(model, offsets, far_xs):
    # a probe on a block spectrum solves index windows of two blocks; the
    # same probe on whole ladders of the same blocks must agree.  Columns
    # next to the focus-focus value and far from it (coupled: columns
    # j + 1 one row shorter than j), heights at both ends of column j, in
    # its middle and at the located height y0 ~ -1e-18: spin columns of
    # odd size hold an eigenvalue at 0, which the Sturm count and the
    # bisection solve put on opposite sides of y0
    family = build_probe_family(model, [100])
    _set_origins(family, locate_critical_values(model, 100, family)[0])
    sp = family[100]
    x0, y0 = sp.origin

    def bisected(j):
        x = sp.column_x[j]
        (diag, offdiag), = build_blocks(model, sp.k, (x - 0.25 / sp.k, x + 0.25 / sp.k))
        return eigs_in_window(diag, offdiag, 0, len(diag) - 1)

    by_bisection = LabelledSpectrum(sp.k, sp.column_x, bisected)
    by_full_solve = LabelledSpectrum(sp.k, sp.column_x, sp.ladder)
    j0 = sp.nearest_column(x0)
    js = [j0 + d for d in offsets] + [sp.nearest_column(x) for x in far_xs]
    worst_bisection = worst_full_solve = 0.0
    for j in js:
        ys, top1 = sp.ladder(j), sp.ladder(j + 1)[-1]
        n = len(ys)
        heights = [ys[0], ys[1], 0.5 * (ys[1] + ys[2]), ys[2], ys[n // 2],
                   np.nextafter(ys[n // 2], np.inf), np.nextafter(ys[n // 2], -np.inf),
                   0.5 * (ys[n // 2] + ys[n // 2 + 1]), y0, 0.0, -1e-18, 1e-18,
                   ys[-3], ys[-2], 0.5 * (ys[-2] + ys[-1]), ys[-1],
                   top1, 0.5 * (top1 + ys[-1])]
        for y in heights:
            if not ys[0] <= y <= ys[-1]:
                continue
            c = (sp.column_x[j], y)
            got = np.array(sp.a1a2_interpolated(c))
            worst_bisection = max(worst_bisection,
                                  np.abs(got - by_bisection.a1a2_interpolated(c)).max())
            worst_full_solve = max(worst_full_solve,
                                   np.abs(got - by_full_solve.a1a2_interpolated(c)).max())
    assert worst_bisection <= 1e-12
    # the QL/QR full solve is off by up to ~10 ulp at a column's ends
    # (1.5e-15 against bisection's 1e-16), and a spacing of 1/k turns that
    # into up to 2.3e-12 of a1 and a2 at k = 100
    assert worst_full_solve <= 1e-11


def test_nearest_column_ties_and_ends():
    # an abscissa exactly between two columns reads the smaller j, and one
    # past either end reads the end column
    ls = grid_spectrum(8, 0.0, 1.0, x_range=(-0.5, 0.5))
    assert [ls.nearest_column(x) for x in (-0.0625, 0.0625, 0.1875)] == [-1, 0, 1]
    assert ls.nearest_column(-3.0) == min(ls.column_x) == -4
    assert ls.nearest_column(3.0) == max(ls.column_x) == 4
    # the labels, not the order they are given in, decide a tie
    reversed_x = LabelledSpectrum(10, {1: 0.1, 0: 0.0}, lambda j: None)
    assert reversed_x.nearest_column(0.05) == 0


def test_missing_neighbor():
    # the last column has no right neighbour to difference against
    ls = grid_spectrum(10, 0.0, 1.0)
    last = max(ls.column_x)
    with pytest.raises(MissingNeighbor, match=f"no column j={last + 1}"):
        ls.a1a2_interpolated((ls.column_x[last], 0.0))
    # a column j + 1 of a single row shares one row with column j: no row
    # difference
    apart = LabelledSpectrum(10, {0: 0.0, 1: 0.1},
                             lambda j: np.linspace(-1.0, 1.0, 4)[:4 - 3 * j])
    with pytest.raises(MissingNeighbor, match="fewer than 2 rows"):
        apart.a1a2_interpolated((0.0, 0.0))


@pytest.mark.parametrize("model,origin", [
    (ModelSpec(SPIN_OSCILLATOR), (1.0, 0.0)),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), (-1.5, 0.0)),
], ids=["spin-oscillator", "coupled"])
def test_block_labels_are_column_transport_labels(model, origin):
    # J's spectrum is an exact hbar-lattice of columns, so the probe family's
    # (sign * block, idx) labels are label_semitoric's labels of the same
    # points up to one translation: its closed-form column anchors have
    # slope 0 on the columns from x0 - 0.45/k to x0 + 0.24 + 4/k, the
    # probes' reach.  Across a bottom-edge vertex the anchors bend
    x0 = origin[0]
    family = build_probe_family(model, [40, 80])
    for k, sp in family.items():
        ladders = {j: sp.ladder(j) for j, x in sp.column_x.items()
                   if x0 - 0.45 / k <= x <= x0 + 0.24 + 4.0 / k}
        pts = np.concatenate([np.column_stack((np.full(len(ys), sp.column_x[j]), ys))
                              for j, ys in ladders.items()])
        labels = np.concatenate([np.column_stack((np.full(len(ys), j), np.arange(len(ys))))
                                 for j, ys in ladders.items()])
        got, transport = label_semitoric(pts, k)
        # the labeller returns the rows in (column, height) order
        idx = np.lexsort((pts[:, 1], pts[:, 0]))
        assert np.array_equal(got, pts[idx])
        shift = transport - labels[idx]
        assert len(shift) > 300
        assert (shift == shift[0]).all()


# -- manufactured spectra with a prescribed normal form ----------------------

class ManufacturedFamily(dict):
    """Family stub whose spacing functionals follow the smooth-extension
    model exactly: a2 = (sigma2 - ln|w|/2pi) dy f_r, a1 = sigma1
    - arg(w)/2pi + (same) dx f_r, with w = x + i f_r(x, y)."""

    def __init__(self, jet: dict, s10, s01, ks):
        super().__init__()
        self.jet = jet
        self.s10, self.s01 = s10, s01
        for k in ks:
            self[k] = _ManufacturedSpectrum(self, k)


class _ManufacturedSpectrum:
    def __init__(self, fam, k):
        self.fam = fam
        self.k = k
        self.origin = (0.0, 0.0)

    def a1a2_interpolated(self, c):
        x, y = c
        jet = self.fam.jet
        fr = sum(v * x ** a * y ** b / (math.factorial(a) * math.factorial(b))
                 for (a, b), v in jet.items())
        dxf = sum(v * a * x ** (a - 1) * y ** b / (math.factorial(a) * math.factorial(b))
                  for (a, b), v in jet.items() if a >= 1)
        dyf = sum(v * b * x ** a * y ** (b - 1) / (math.factorial(a) * math.factorial(b))
                  for (a, b), v in jet.items() if b >= 1)
        w = x + 1j * fr
        tau2 = self.fam.s01 - np.log(abs(w)) / (2 * np.pi)
        tau1 = self.fam.s10 - np.angle(w) / (2 * np.pi)
        a2 = tau2 * dyf
        a1 = tau1 + tau2 * dxf
        # O(hbar) imperfection so the extrapolation has work to do
        a1 += 0.3 / self.k
        a2 -= 0.2 / self.k
        return a1, a2


JET01 = {(1, 0): 0.0, (0, 1): 1.0}


def gradient(fam, x=0.01):
    """recover_fr_gradient on the family's probe table of slope 0 at x and 2 x."""
    xs = [x, 2 * x]
    return recover_fr_gradient(sorted(fam), xs, *ray_samples(fam, 0.0, xs))


def test_manufactured_gradient_01():
    fam = ManufacturedFamily(JET01, s10=0.25, s01=0.4, ks=[100, 200, 300, 400])
    dx, dy, _ = gradient(fam)
    assert dx == pytest.approx(0.0, abs=2e-3)
    assert dy == pytest.approx(1.0, abs=5e-3)


def test_manufactured_gradient_generic():
    jet = {(1, 0): -0.5, (0, 1): 2.5}
    fam = ManufacturedFamily(jet, s10=0.1, s01=0.7, ks=[100, 200, 300, 400])
    dx, dy, info = gradient(fam)
    assert dx == pytest.approx(-0.5, abs=2e-2)
    assert dy == pytest.approx(2.5, abs=2e-2)
    # one row per k of the (dx, dy) samples the hbar limits were fitted to
    assert info["per_k"].shape == (4, 2) and len(info["hbar_slopes"]) == 2
    assert hbar_limit(sorted(fam), info["per_k"][:, 1])[0] == pytest.approx(dy, rel=1e-12)


def test_manufactured_sigma1_and_s01():
    jet = {(1, 0): -0.5, (0, 1): 2.5}
    fam = ManufacturedFamily(jet, s10=0.3, s01=0.65, ks=[100, 200, 300, 400])
    s0 = -jet[1, 0] / jet[0, 1]
    ks, xs = sorted(fam), [0.04, 0.03, 0.02, 0.01]
    a1, a2 = ray_samples(fam, s0, xs)
    sig, sig_info = recover_sigma1(ks, xs, a1, a2, s0)
    assert sig == pytest.approx(0.3, abs=5e-3)
    s01, s01_info = recover_S01(ks, xs, a2, 2.5)
    assert s01 == pytest.approx(0.65, abs=5e-3)
    # the k x x tables fitted, and per-x series aligned with xs
    for info in (sig_info, s01_info):
        assert info["per_k"].shape == (len(ks), len(xs))
        assert len(info["per_x"]) == len(info["hbar_slopes"]) == len(xs)
        assert info["per_x"][-1] == pytest.approx(
            hbar_limit(ks, info["per_k"][:, -1])[0], rel=1e-12)



def test_hbar_limit_counts_no_error_at_rounding_level():
    ks = np.array([100, 200, 300, 400, 500], dtype=float)
    # a value that vanishes by symmetry, read with rounding noise only: no
    # convergence order can be read off it
    noise = np.array([1.1e-15, -4e-16, 7e-16, 0.0, -1.4e-15])
    assert hbar_limit(ks, noise)[1]["slope"] is None
    # the same noise on a value with an hbar term keeps that term's order
    assert hbar_limit(ks, 0.3 + 2 / ks + noise)[1]["slope"] == pytest.approx(-1.0, abs=1e-6)
    # errors 4.8e-12 and 1.2e-12 at k = 100 and 200, below 1e-12 after:
    # both lie above the rounding level, 1e-12 of max(1, |sample|), so the
    # slope is the hbar^2 term's order, read off those two
    assert hbar_limit(ks, 0.5 + 4.8e-8 / ks ** 2)[1]["slope"] == pytest.approx(-2.0, abs=1e-3)


def test_hbar_limit_rms_is_the_root_mean_square_residual():
    # a quadratic in hbar plus a residual r orthogonal to 1, hbar and
    # hbar^2 (the weights of the third divided difference at the four hbar
    # nodes): the fit returns the quadratic and rms = |r| / sqrt(4)
    ks = np.array([100, 200, 300, 400], dtype=float)
    hb = 1 / ks
    w = np.array([1 / np.prod([a - b for b in hb if b != a]) for a in hb])
    r = 2e-3 * w / np.linalg.norm(w)
    lim, info = hbar_limit(ks, 0.5 + 3 * hb - 40 * hb ** 2 + r)
    assert lim == pytest.approx(0.5, abs=1e-9)
    assert info["rms"] == pytest.approx(1e-3, rel=1e-6)


def test_sigma1_row_an_integer_off_raises_action_discontinuity():
    # one k's probes an integer above the other ks' mean that k's labels
    # chose another action: a refusal naming that k and x, never a silent
    # relabelling of the odd k out
    jet = {(1, 0): -0.5, (0, 1): 2.5}
    s0 = -jet[1, 0] / jet[0, 1]
    fam = ManufacturedFamily(jet, s10=0.3, s01=0.65, ks=[100, 200, 300])
    xs = [0.04, 0.03, 0.02, 0.01]
    a1, a2 = ray_samples(fam, s0, xs)
    a1[1] += 1.0
    with pytest.raises(ActionDiscontinuity, match=r"k=200, x=0.04 lies \+1 from the median"):
        recover_sigma1(sorted(fam), xs, a1, a2, s0)


def test_sigma1_column_an_integer_off_raises_action_discontinuity():
    # a whole x column an integer above the others passes the per-k check
    # and keeps its offset, so the action changed chart across the schedule
    jet = {(1, 0): -0.5, (0, 1): 2.5}
    s0 = -jet[1, 0] / jet[0, 1]
    fam = ManufacturedFamily(jet, s10=0.3, s01=0.65, ks=[100, 200, 300])
    xs = [0.04, 0.03, 0.02, 0.01]
    a1, a2 = ray_samples(fam, s0, xs)
    a1[:, 1] += 1.0
    with pytest.raises(ActionDiscontinuity, match="jump by"):
        recover_sigma1(sorted(fam), xs, a1, a2, s0)


def test_gradient_sign_error():
    jet = {(1, 0): 0.0, (0, 1): 1.0}

    class FlippedSpectrum(_ManufacturedSpectrum):
        def a1a2_interpolated(self, c):
            a1, a2 = super().a1a2_interpolated(c)
            # wrong-sign logarithm: recovered dy f_r comes out negative
            return a1, 2 * self.fam.s01 - a2

    base = ManufacturedFamily(jet, s10=0.0, s01=0.5, ks=[100, 200])
    fam = {k: FlippedSpectrum(base, k) for k in (100, 200)}
    with pytest.raises(SignError):
        gradient(fam)
    # equal a2 columns at x and 2 x: the dy samples and their hbar limit
    # are exactly 0, which the orientation convention refuses as well
    a1 = np.array([[0.3, 0.1], [0.31, 0.11], [0.32, 0.12]])
    with pytest.raises(SignError, match="= 0.0000 <= 0"):
        recover_fr_gradient([100, 200, 300], [0.01, 0.02], a1, np.full((3, 2), 0.7))


def test_relabelling_covariance_manufactured():
    # shifting l -> l + n*j multiplies the action by a unipotent and shifts
    # sigma1 by exactly -n
    jet = {(1, 0): 0.0, (0, 1): 1.0}
    base = ManufacturedFamily(jet, s10=0.4, s01=0.6, ks=[100, 200, 300])

    class Sheared(_ManufacturedSpectrum):
        def __init__(self, fam, k, n):
            super().__init__(fam, k)
            self.n = n

        def a1a2_interpolated(self, c):
            a1, a2 = super().a1a2_interpolated(c)
            return a1 - self.n, a2

    for n in (-2, -1, 1, 2):
        fam = {k: Sheared(base, k, n) for k in (100, 200, 300)}
        a1, a2 = ray_samples(fam, 0.0, [0.02, 0.01])
        sig, _ = recover_sigma1(sorted(fam), [0.02, 0.01], a1, a2, 0.0)
        assert sig == pytest.approx(0.4 - n, abs=5e-3)


@pytest.mark.parametrize("sigma1,p", [(-3e-14, 0), (2.8e-14, 0), (1 - 1e-13, 1),
                                      (2.3, 2), (-0.5, -1), (1 - 1e-8, 0)])
def test_twisting_number_reads_near_integers_as_integers(sigma1, p):
    from semitoric.invariants import twisting_number

    got, _ = twisting_number(sigma1)
    assert got == p
    assert type(got) is int


@pytest.mark.parametrize("sigma1,p", [(-1e-17, 0), (3 - 1e-15, 3)])
def test_residue_of_a_sigma1_snapped_up_is_zero(sigma1, p):
    # S_{1,0} = sigma1 - p lies in [0, 1): a sigma1 just below an integer
    # snaps up to it, and its residue must not read a tiny negative number
    from semitoric.invariants import twisting_number

    assert twisting_number(sigma1) == (p, 0.0)
    assert twisting_number(p + 0.25) == (p, 0.25)
