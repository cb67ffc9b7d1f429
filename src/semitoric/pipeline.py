"""End-to-end orchestration: model -> labelled spectra -> invariants.

The recovery is self-contained: the focus-focus value is located from the
spectrum (Duistermaat-Heckman kinks read off J's exact column sizes, then
the peak of inverse level spacings), each k's columns are labelled by
(J-block, position in the block) in one spectrum that the locate stage and
every probe read, and every invariant is extracted by the double-limit
schedules; the height is a count on the critical column.
"""

from __future__ import annotations

import numpy as np

from .config import ProbeConfig
from .errors import ConfigurationError, EmptyWindow, MissingNeighbor, NoPeak
from .invariants import (
    FrJet,
    LabelledSpectrum,
    PolygonEstimate,
    column_height,
    detect_kinks,
    dh_profile,
    fit_log_expansion,
    g_mu_sample,
    hausdorff,
    polygon_recover,
    ray_samples,
    recover_S01,
    recover_fr_gradient,
    recover_sigma1,
    sample_polygon_region,
    smallest_gap_midpoint,
    solve_jet_order,
    solve_mixed,
    solve_taylor_order,
    twisting_number,
)
from .lattice import label_semitoric
from .models import ModelSpec, build_blocks, joint_spectrum
from .tridiag import sturm_count_below

__all__ = [
    "ModelCounter",
    "BlockSpectrum",
    "column_ladder",
    "locate_focus_focus",
    "build_probe_family",
    "locate_critical_values",
    "label_strip",
    "recover_all",
    "polygon_run",
    "dh_profile",
    "detect_kinks",
]


class ModelCounter:
    """Eigenvalue counts in strips, for the paper's strip route
    (``height_invariant`` and the Weyl-law density oracle of
    ``semitoric.testing``): an unbounded-y strip sums the closed-form block
    sizes with no eigensolve, and a finite y-range builds the blocks for
    Sturm counts.  The program's own reads need no strip: J's columns are
    exact, so ``dh_profile`` reads their sizes and ``column_height`` the
    critical column."""

    def __init__(self, model: ModelSpec, ks):
        self.model = model
        self.ks = sorted(ks)

    def count(self, k, xlo, xhi, ylo=-np.inf, yhi=np.inf) -> int:
        try:
            blocks = build_blocks(self.model, k, (xlo, xhi))
        except EmptyWindow:
            return 0
        if not (np.isfinite(ylo) or np.isfinite(yhi)):
            return int(blocks.sizes.sum())
        total = 0
        for diag, off in blocks:
            n_hi = sturm_count_below(diag, off, yhi) if np.isfinite(yhi) else len(diag)
            n_lo = sturm_count_below(diag, off, ylo) if np.isfinite(ylo) else 0
            total += n_hi - n_lo
        return total


def column_ladder(spec: LabelledSpectrum, x: float):
    """(x_actual, ascending eigenvalues) of the column of spec nearest x."""
    j = spec.nearest_column(x)
    return spec.column_x[j], spec.ladder(j)[1]


_PEAK_FACTOR = 1.8    # least ratio of the hbar/spacing peak to its column median


def locate_focus_focus(spec: LabelledSpectrum, x_candidates) -> tuple[float, float]:
    """The first candidate abscissa whose column of spec shows the
    log-divergence of inverse level spacings of a focus-focus value.

    A focus-focus value shows an interior peak of hbar/spacing growing like
    -C ln|y - y0|; elliptic candidates do not.  Each candidate is an exact
    column abscissa, so only its own column is read (``column_ladder``): a
    peak at least _PEAK_FACTOR times the median inside the middle 90% of
    the ladder gives (x_actual, smallest_gap_midpoint).  Raises NoPeak if
    no candidate qualifies.
    """
    for xc in x_candidates:
        x_act, ev = column_ladder(spec, xc)
        if len(ev) < 8:
            continue
        i, y = smallest_gap_midpoint(ev)
        span = ev[-1] - ev[0]
        if not (ev[0] + 0.05 * span < y < ev[-1] - 0.05 * span):
            continue
        inv = spec.hbar / np.diff(ev)
        if inv[i] / np.median(inv) >= _PEAK_FACTOR:
            return float(x_act), y
    raise NoPeak("no interior spacing peak among the candidates")


class BlockSpectrum(LabelledSpectrum):
    """The labelled spectrum of a window's J-blocks ``blocks``: (j, l) =
    (sign * block id, idx), a lattice label since J's spectrum is an exact
    hbar-lattice of columns; sign makes j grow with x.  A column read whole
    is its block's full solve, kept; an index window of rows (an origin's
    or a probe's) is a bisection solve of those rows alone, each window
    solved once and kept, on the block matrix that ``blocks`` keeps; a
    Sturm count solves nothing, and a column's size is closed-form."""

    def __init__(self, blocks):
        self.blocks = blocks
        self._sign = blocks.model.j_sign(blocks.k)
        self._windows: dict[tuple[int, int, int], np.ndarray] = {}
        js = self._sign * np.asarray(blocks.ids)
        super().__init__(blocks.k, dict(zip(js.tolist(), blocks.j_values.tolist())),
                         self._whole_column)

    def _whole_column(self, j: int):
        ev = self.blocks.eigenvalues(self._position(j))
        return np.arange(len(ev)), ev

    def _position(self, j: int) -> int:
        if j not in self.column_x:
            raise MissingNeighbor(f"no column j={j}")
        return self.blocks.ids.index(self._sign * j)

    def _column(self, j: int) -> tuple[int, int]:
        return 0, int(self.blocks.sizes[self._position(j)])

    def _count_below(self, j: int, y: float) -> int:
        return sturm_count_below(*self.blocks[self._position(j)], y)

    def _heights(self, j: int, lo: int, hi: int) -> np.ndarray:
        i = self._position(j)
        if (i, lo, hi) not in self._windows:
            self._windows[i, lo, hi] = self.blocks.eigenvalue_window(i, lo, hi - 1)
        return self._windows[i, lo, hi]


def build_probe_family(model: ModelSpec, ks) -> dict[int, BlockSpectrum]:
    """One labelled spectrum per k of ks over the model's ``dh_range``,
    where the locate stage and every probe read their columns.  Nothing is
    solved here, so every k's dimensions are checked before the first
    eigensolve; ``locate_critical_values`` sets the origins."""
    return {k: BlockSpectrum(build_blocks(model, k, model.dh_range)) for k in ks}


def locate_critical_values(model: ModelSpec, k0: int,
                           family: dict[int, BlockSpectrum] | None = None):
    """DH kinks -> candidate columns -> spacing-peak classification, in one
    spectrum: that of the smallest multiple of k0 that is at least 200,
    read from ``family`` when it holds that k and built otherwise.  k0's
    dimensions are checked first, and a multiple of it is then on the
    radii's 1/(2k) grid.  The candidates are the kinks of that spectrum's
    blocks, which ``semitoric dh`` reports too.  The located column is the
    one column the run solves whole.

    Each spectrum of ``family`` then gets its .origin, that k's focus-focus
    value: the critical column's abscissa and the smallest-gap midpoint of
    an index window of its ladder around the located ordinate
    (``_window_origin``), so that no other column is solved whole; the
    located spectrum's is the located value, its whole ladder's.  Probes
    measure offsets from it, and a1 responds to an ordinate error like
    e2/(2 pi x), so the error must shrink like hbar for the extrapolations
    to converge: the one-off located ordinate would leave a floor.  Only
    the probes read origins, so a caller that reads the focus alone passes
    no family.

    Returns (focus (x0, y0), other kink abscissae).
    """
    model.check_dimensions(k0)
    family = family or {}
    k_locate = k0 * -(-200 // k0)
    spec = family.get(k_locate) or BlockSpectrum(build_blocks(model, k_locate, model.dh_range))
    kinks = detect_kinks(spec.blocks)
    if not kinks:
        raise NoPeak("no kinks in the Duistermaat-Heckman profile")

    x0, y0 = locate_focus_focus(spec, kinks)
    for sp in family.values():
        sp.origin = (x0, y0) if sp is spec else _window_origin(sp, x0, y0)
    # every kink is an exact column abscissa, x0 among them
    others = [x for x in kinks if x != x0]
    return (x0, y0), others


# half-width, in rows, of an origin's first index window, and the least
# distance, in rows, from the window's smallest gap to a window edge that
# is not a column end
_ORIGIN_ROWS = 8
_ORIGIN_MARGIN = 4


def _window_origin(spec: LabelledSpectrum, x0: float, y0: float) -> tuple[float, float]:
    """(x, y): the abscissa of the column of spec nearest x0 and the
    smallest-gap midpoint of that column's rows r - h .. r + h, r the count
    of its heights below y0, clipped to the column.  The window's smallest
    gap is the whole ladder's as long as no smaller gap lies outside it;
    the peak of a focus-focus column falls within a few rows of r (y0 is
    the k = 200 estimate, so the offset grows like k), and a smallest gap
    within _ORIGIN_MARGIN rows of an inner window edge doubles h."""
    j = spec.nearest_column(x0)
    _, n = spec._column(j)
    r = spec._count_below(j, y0)
    h = _ORIGIN_ROWS
    while True:
        lo, hi = max(r - h, 0), min(r + h + 1, n)
        i, y = smallest_gap_midpoint(spec._heights(j, lo, hi))
        if (lo == 0 or i >= _ORIGIN_MARGIN) and (hi == n or hi - lo - 2 - i >= _ORIGIN_MARGIN):
            return spec.column_x[j], y
        h *= 2


def label_strip(model: ModelSpec, k: int, origin) -> tuple[np.ndarray, np.ndarray]:
    """The labelled spectrum that ``semitoric label`` writes and
    ``polygon_run`` fits: the joint spectrum on the model's strip less the
    cut above the focus-focus value origin = (x0, y0), labelled by
    ``label_semitoric``'s closed-form column anchors, (0, 0) at the lowest
    point of the strip's last column.  The cut is the points of the column
    nearest x0 at and above y0; a nan origin (none located) cuts nothing.
    Returns (points, labels), matching (n, 2) arrays in (column, height)
    order."""
    pts = joint_spectrum(model, k, model.strip).as_array()
    x0, y0 = origin
    cut = (np.abs(pts[:, 0] - x0) < 0.5 / k) & (pts[:, 1] >= y0)
    return label_semitoric(pts[~cut], k)


def _check_column_resolution(probes: ProbeConfig) -> None:
    """The coarsest k must resolve the probe offsets: a probe closer to x0
    than one column reads the critical column itself, an O(1) error with no
    failure to show for it.  The gradient's offsets x and 2 x then lie a
    column apart as well."""
    k = probes.k_list[0]
    x_any = min(min(probes.x_schedule), min(probes.x_taylor))
    if k * x_any < 1:
        raise ConfigurationError(
            f"min(k_list) * min(x_schedule, x_taylor) = {k * x_any:g} must be at least 1: "
            f"every probe must lie at least one column (1/k) from x0")


def recover_all(model: ModelSpec, probes: ProbeConfig | None = None) -> dict:
    """Full invariant recovery; returns the report dictionary."""
    probes = probes or ProbeConfig()
    probes.validate()
    _check_column_resolution(probes)
    family = build_probe_family(model, probes.k_list)
    origin, other_kinks = locate_critical_values(model, min(family), family)

    # the gradient is read at the smallest offset, the last of the
    # decreasing schedule; the figures show the per-k samples there
    ks, xs = sorted(family), list(probes.x_schedule)
    x_probe = xs[-1]
    dxfr, dyfr, grad_info = recover_fr_gradient(family, x_probe)
    jet1 = FrJet({(1, 0): dxfr, (0, 1): dyfr})
    s0 = jet1.slope_s0

    # sigma1 and S01 read one probe table on the radial ray (x, s0 x)
    a1, a2 = ray_samples(family, s0, xs)
    sigma1, sig_info = recover_sigma1(ks, xs, a1, a2, s0)
    p, s10 = twisting_number(sigma1)
    s01, s01_info = recover_S01(ks, xs, a2, dyfr)

    s00, height_info = column_height(family)

    # order-1 log expansion over the mu list -> quadratic jet and S coefficients.
    # (c0, d0) are refit from the same samples rather than assembled from the
    # recovered linear invariants: the order-1 residual divides by x ln x, so
    # any bias in an assembled c0 would be amplified by 1/(x ln x).  The x
    # schedule is capped per mu to keep the probes (x, mu x) equally close to
    # the critical value across the mu list.
    mus = list(probes.mu_list)
    x_top = max(probes.x_taylor)
    c1s, d1s = [], []
    fit_conds = {}
    for mu in mus:
        xs_mu = [x for x in probes.x_taylor if x * abs(mu) <= x_top + 1e-12]
        if len(xs_mu) < 6:
            xs_mu = sorted(probes.x_taylor)[:6]
        xs_mu = sorted(xs_mu, reverse=True)
        g = g_mu_sample(family, mu, xs_mu)
        _, _, c1, d1, fit_info = fit_log_expansion(xs_mu, g)
        c1s.append(c1)
        d1s.append(d1)
        fit_conds[str(mu)] = fit_info["cond"]
    jet2 = solve_jet_order(mus, d1s)
    s2 = solve_taylor_order(mus, c1s, FrJet({**jet1.derivs, **jet2}), s01)

    # the order-2 leaves at the one mu nearest 1 under the purely-mixed
    # hypothesis, dx^2 f_r = dy^2 f_r = S20 = S02 = 0 (exact for the
    # spin-oscillator), in closed form; far better conditioned than the
    # 3-mu solve
    mu_star = min(mus, key=lambda m: abs(m - 1.0))
    i_star = mus.index(mu_star)
    dxdy_mixed, s11_mixed = solve_mixed(mu_star, c1s[i_star], d1s[i_star], jet1, s01)

    return {
        "model": model.kind,
        "focus_focus": [origin[0], origin[1]],
        "other_critical_abscissae": other_kinks,
        "fr_jet": {
            "1,0": dxfr, "0,1": dyfr,
            "2,0": jet2[(2, 0)], "1,1": jet2[(1, 1)], "0,2": jet2[(0, 2)],
        },
        "radial_slope": s0,
        "sigma1_0": sigma1,
        "twisting_p": p,
        "S": {"0,0": s00, "0,1": s01, "0,2": s2[(0, 2)],
              "1,0": s10, "1,1": s2[(1, 1)], "2,0": s2[(2, 0)]},
        "quadratic_mixed": {
            "dxdy_fr": dxdy_mixed,
            "S11": s11_mixed,
            "mu": mu_star,
        },
        "diagnostics": {
            # the per-k samples behind the hbar -> 0 limits at the smallest
            # probe offset; the CLI writes them as the fig_*.csv rows
            "per_k": {
                "k": ks,
                "x": x_probe,
                "dxfr": grad_info["per_k"][:, 0].tolist(),
                "dyfr": grad_info["per_k"][:, 1].tolist(),
                "sigma1": sig_info["per_k"][:, -1].tolist(),
                "S01": s01_info["per_k"][:, -1].tolist(),
                "height": height_info["raw"],
            },
            "sigma1_per_x": _by_x(xs, sig_info["per_x"].tolist()),
            "s01_per_x": _by_x(xs, s01_info["per_x"].tolist()),
            "d1_by_mu": dict(zip(map(str, mus), d1s)),
            "c1_by_mu": dict(zip(map(str, mus), c1s)),
            "convergence_slopes": {
                "gradient_hbar": _by_x([x_probe], [grad_info["hbar_slopes"]]),
                "sigma1_hbar": _by_x(xs, sig_info["hbar_slopes"]),
                "s01_hbar": _by_x(xs, s01_info["hbar_slopes"]),
                "height": height_info["slope"],
            },
            "condition_numbers": {
                "sigma1_x_fit": sig_info["cond"],
                "s01_x_fit": s01_info["cond"],
                "log_expansion_by_mu": fit_conds,
            },
        },
    }


def _by_x(xs, values) -> dict:
    """A per-x series as the report holds it: keyed by the offset's text."""
    return {f"{x}": v for x, v in zip(xs, values)}


# ---------------------------------------------------------------------------
# polygon pipeline

def polygon_run(model: ModelSpec, k: int) -> PolygonEstimate:
    """Quantum cartographic cloud on the model's strip and the
    polygon read off it.

    The critical values are located from the spectrum first, and the
    cloud is ``label_strip``'s, the labels ``semitoric label`` writes; its
    column-end chains are split at the focus-focus and corner abscissae.
    """
    origin, corner_xs = locate_critical_values(model, k)
    points, labels = label_strip(model, k, origin)
    return polygon_recover(points, labels, 1.0 / k, [origin[0]] + list(corner_xs), model.strip)


def polygon_reference_distance(model: ModelSpec, est: PolygonEstimate, k: int):
    """polygon_run's cloud against the reference polygon clipped to the
    model's strip, at one translation (the undetermined nu): returns
    (Hausdorff distance, translation, column end error, vertex errors).

    The x component is the exact column alignment (the abscissae are an
    exact hbar grid).  The y component is closed form: over every column,
    the reference slice ``model.polygon_slice`` less the column's lowest
    and highest point (the cut column's lowest only) gives signed end
    residuals, and the translation is the midpoint of their range, whose
    half is the column end error.  At that translation the cloud is
    measured against a 0.35 hbar sample of the reference, and each vertex
    against the nearest reference vertex.
    """
    tx = est.x_translation
    x, lo, hi = est.columns.T
    ref_lo, ref_hi = model.polygon_slice(x + tx)
    resid = np.concatenate((ref_lo - lo, (ref_hi - hi)[~np.isnan(hi)]))
    shift = np.array([tx, (resid.min() + resid.max()) / 2])
    end_error = float(resid.max() - resid.min()) / 2
    theory = sample_polygon_region(model, model.strip, 0.35 * (1.0 / k))
    dist = hausdorff(est.cloud, theory, 1.0 / k, shift)
    moved = np.reshape(est.fitted_vertices, (-1, 1, 2)) + shift
    gap = moved - np.asarray(model.polygon_vertices, dtype=float)
    vert_err = np.hypot(gap[..., 0], gap[..., 1]).min(axis=1).tolist()
    return dist, shift, end_error, vert_err
