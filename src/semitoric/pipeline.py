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
from .geometry import Rect
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
    locate_focus_focus,
    polygon_recover,
    ray_samples,
    recover_S01,
    recover_fr_gradient,
    recover_sigma1,
    sample_polygon_region,
    smallest_gap_midpoint,
    solve_jet_order,
    solve_taylor_order,
    twisting_number,
)
from .lattice import PointCloud, label_semitoric
from .models import ModelSpec, build_blocks, joint_spectrum
from .tridiag import sturm_count_below

__all__ = [
    "ModelCounter",
    "BlockSpectrum",
    "column_ladder",
    "build_probe_family",
    "locate_critical_values",
    "cut_cloud",
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


class BlockSpectrum(LabelledSpectrum):
    """The labelled spectrum of a window's J-blocks: (j, l) = (sign * block
    id, idx), a lattice label since J's spectrum is an exact hbar-lattice of
    columns; sign makes j grow with x.  A column read whole is its block's
    full solve, kept; a probe's index windows are a Sturm count and
    bisection solves of the rows it reads, never kept, and a column's size
    is closed-form."""

    def __init__(self, blocks):
        self._blocks = blocks
        self._sign = blocks.model.j_sign(blocks.k)
        js = self._sign * np.asarray(blocks.ids)
        super().__init__(blocks.k, dict(zip(js.tolist(), blocks.j_values.tolist())),
                         self._whole_column)

    def _whole_column(self, j: int):
        ev = self._blocks.eigenvalues(self._position(j))
        return np.arange(len(ev)), ev

    def _position(self, j: int) -> int:
        if j not in self.column_x:
            raise MissingNeighbor(f"no column j={j}")
        return self._blocks.ids.index(self._sign * j)

    def _column(self, j: int) -> tuple[int, int]:
        return 0, int(self._blocks.sizes[self._position(j)])

    def _count_below(self, j: int, y: float) -> int:
        return sturm_count_below(*self._blocks[self._position(j)], y)

    def _heights(self, j: int, lo: int, hi: int) -> np.ndarray:
        return self._blocks.eigenvalue_window(self._position(j), lo, hi - 1)


def build_probe_family(model: ModelSpec, ks) -> dict[int, LabelledSpectrum]:
    """One labelled spectrum per k of ks over the model's ``dh_range``,
    where the locate stage and every probe read their columns.  Nothing is
    solved here, so every k's dimensions are checked before the first
    eigensolve; ``locate_critical_values`` sets the origins."""
    return {k: BlockSpectrum(build_blocks(model, k, model.dh_range)) for k in ks}


def locate_critical_values(model: ModelSpec, k0: int,
                           family: dict[int, LabelledSpectrum] | None = None):
    """DH kinks -> candidate columns -> spacing-peak classification, at the
    smallest multiple of k0 that is at least 200, read from that k's
    spectrum of ``family`` when it holds one.  k0's dimensions are checked
    first, and a multiple of it is then on the radii's 1/(2k) grid.
    The candidates are the kinks of that k's ``dh_profile``, which
    ``semitoric dh`` reports too.

    Each spectrum of ``family`` then gets its .origin, that k's focus-focus
    value: the critical column's abscissa and the smallest-gap midpoint of
    its ladder, which solves that column whole.  Probes measure offsets
    from it, and a1 responds to an ordinate error like e2/(2 pi x), so the
    error must shrink like hbar for the extrapolations to converge: the
    one-off located ordinate would leave a floor.  Only the probes read
    origins, so a caller that reads the focus alone passes no family.

    Returns (focus (x0, y0), other kink abscissae).
    """
    model.check_dimensions(k0)
    family = family or {}
    k_locate = k0 * -(-200 // k0)
    blocks = build_blocks(model, k_locate, model.dh_range)
    kinks = detect_kinks(dh_profile(blocks))
    if not kinks:
        raise NoPeak("no kinks in the Duistermaat-Heckman profile")

    spec = family.get(k_locate) or BlockSpectrum(blocks)
    x0, y0 = locate_focus_focus(lambda k, x: column_ladder(spec, x), k_locate, kinks)
    for sp in family.values():
        x, ev = column_ladder(sp, x0)
        sp.origin = (x, smallest_gap_midpoint(ev)[1])
    others = [x for x in kinks if abs(x - x0) > 0.1]
    return (x0, y0), others


def cut_cloud(k: int, points: np.ndarray, origin) -> PointCloud:
    """The cloud of ``points`` less the cut above the focus-focus value
    origin = (x0, y0): the points of the column nearest x0 at and above
    y0, which no column transport crosses.  A nan origin (none located)
    cuts nothing."""
    x0, y0 = origin
    cut = (np.abs(points[:, 0] - x0) < 0.5 / k) & (points[:, 1] >= y0)
    return PointCloud(k, points[~cut])


def _check_column_resolution(probes: ProbeConfig) -> None:
    """The coarsest k must resolve the probe offsets: a probe closer to x0
    than one column reads the critical column itself, and the gradient's
    offsets x and mu x in one column difference a column with itself.
    Either gives an O(1) error with no failure to show for it."""
    k, x = probes.k_list[0], min(probes.x_schedule)
    x_any = min(x, min(probes.x_taylor))
    if k * x_any < 1:
        raise ConfigurationError(
            f"min(k_list) * min(x_schedule, x_taylor) = {k * x_any:g} must be at least 1: "
            f"every probe must lie at least one column (1/k) from x0")
    if k * x * abs(probes.mu - 1) < 1:
        raise ConfigurationError(
            f"min(k_list) * min(x_schedule) * |mu - 1| = {k * x * abs(probes.mu - 1):g} "
            f"must be at least 1: the gradient's offsets x and mu x must lie a column apart")


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
    dxfr, dyfr, grad_info = recover_fr_gradient(family, x_probe, probes.mu)
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
    s_known = {(1, 0): sigma1, (0, 1): s01}
    x_top = max(probes.x_taylor)
    c1s, d1s = [], []
    fit_conds = {}
    for mu in mus:
        xs_mu = [x for x in probes.x_taylor if x * abs(mu) <= x_top + 1e-12]
        if len(xs_mu) < 6:
            xs_mu = sorted(probes.x_taylor)[:6]
        xs_mu = sorted(xs_mu, reverse=True)
        g = g_mu_sample(family, mu, xs_mu)
        c0, d0, info0 = fit_log_expansion(xs_mu, g, 0, [], [])
        c1, d1, info1 = fit_log_expansion(xs_mu, g, 1, [c0], [d0])
        c1s.append(c1)
        d1s.append(d1)
        fit_conds[str(mu)] = [info0["cond"], info1["cond"]]
    jet2 = solve_jet_order(1, mus, d1s)
    full_jet = FrJet({**jet1.derivs, **jet2})
    s2 = solve_taylor_order(1, mus, c1s, full_jet, s_known)

    # the same order-1 solves at the one mu nearest 1 under the purely-mixed
    # hypothesis, dx^2 f_r = dy^2 f_r = S20 = S02 = 0 (exact for the
    # spin-oscillator); far better conditioned than the 3-mu solve
    mu_star = min(mus, key=lambda m: abs(m - 1.0))
    i_star = mus.index(mu_star)
    pure = {(2, 0): 0.0, (0, 2): 0.0}
    jet2_mixed = solve_jet_order(1, [mu_star], [d1s[i_star]], fixed=pure)
    s2_mixed = solve_taylor_order(1, [mu_star], [c1s[i_star]],
                                  FrJet({**jet1.derivs, **jet2_mixed}), s_known, fixed=pure)

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
            "dxdy_fr": jet2_mixed[(1, 1)],
            "S11": s2_mixed[(1, 1)],
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
    fitted polygon.

    The critical values are located from the spectrum first.  The cloud
    leaves out the cut alone (``cut_cloud``, as ``semitoric label`` does);
    the edge fits keep away from the focus-focus and corner abscissae.
    """
    strip = model.strip
    origin, corner_xs = locate_critical_values(model, k)
    window = Rect(*strip, -model.polygon_ymax, model.polygon_ymax)
    cloud = cut_cloud(k, joint_spectrum(model, k, window).as_array(), origin)
    lab = label_semitoric(cloud, seed_x=strip[1] - 0.1 * (strip[1] - strip[0]))
    points, labels, _ = lab.arrays(cloud)
    return polygon_recover(points, labels, 1.0 / k, [origin[0]] + list(corner_xs), strip)


def polygon_reference_distance(model: ModelSpec, est: PolygonEstimate, k: int):
    """Translation-optimized Hausdorff distance of polygon_run's cloud at
    this k against the reference polygon clipped to the model's strip, plus
    vertex errors.

    The x component of the translation is the exact column alignment (the
    abscissae are an exact hbar grid), so only the vertical freedom (the
    undetermined nu) is optimized; this avoids wandering on the Hausdorff
    plateau created by the cut.

    Each Brent step moves the cloud by a vertical shift t alone, and both
    directed distances are 1-Lipschitz in t: every point's distance at t
    lies within |t - t'| of its distance at the last fully evaluated t'.
    The search passes one ``hausdorff`` memo to every step, so a step
    re-queries only the points whose bound still reaches the running
    maximum (less a rounding slack of 1e-9); each value Brent sees is the
    float an unpruned evaluation returns, and the search takes the same
    path.
    """
    from scipy.optimize import minimize_scalar
    from scipy.spatial import cKDTree

    h = 1.0 / k
    theory = sample_polygon_region(model, model.strip, 0.35 * h)
    theory_tree = cKDTree(theory)
    tx = est.x_translation
    memo = {}

    def dist(ty):
        return hausdorff(est.cloud + np.array([tx, ty]), theory_tree, memo=memo)

    y0 = float(np.median(theory[:, 1])) - float(np.median(est.cloud[:, 1]))
    res = minimize_scalar(dist, bracket=(y0 - 2 * h, y0 + 2 * h),
                          method="brent", options={"xtol": 1e-4})
    shift = np.array([tx, float(res.x)])
    vert_err = _vertex_errors(est.fitted_vertices, model.polygon_vertices)
    return float(res.fun), shift, vert_err


def _vertex_errors(fitted, reference):
    """Per-vertex distances to the nearest reference vertex, minimized over a
    common translation (the undetermined nu applies to vertices as well)."""
    from scipy.optimize import minimize

    if not fitted:
        return []
    F = np.asarray(fitted, dtype=float)
    R = np.asarray(reference, dtype=float)

    def worst_simple(t):
        shifted = F + t
        return max(min(np.hypot(v[0] - r[0], v[1] - r[1]) for r in R) for v in shifted)

    t0 = R.mean(axis=0) - F.mean(axis=0)
    res = minimize(worst_simple, t0, method="Nelder-Mead",
                   options={"xatol": 1e-4, "fatol": 1e-4})
    shifted = F + res.x
    return [float(min(np.hypot(v[0] - r[0], v[1] - r[1]) for r in R)) for v in shifted]
