"""End-to-end orchestration: model -> labelled spectra -> invariants.

The recovery is self-contained: the focus-focus value is located from the
spectrum (Duistermaat-Heckman kinks, then the log-peak of inverse level
spacings), probe neighborhoods to its right are labelled by (J-block,
position in the block), and every invariant is extracted by the
double-limit schedules; the height is a count on the critical column.
"""

from __future__ import annotations

import numpy as np

from .config import ProbeConfig, RunConfig
from .errors import EmptyWindow, NoPeak
from .geometry import Rect
from .invariants import (
    FrJet,
    TaylorInvariant,
    LabelledSpectrum,
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
    reference_polygon_vertices,
    sample_polygon_region,
    solve_jet_order,
    solve_taylor_order,
    twisting_number,
)
from .lattice import PointCloud, label_semitoric
from .models import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    ModelSpec,
    block_spectrum,
    build_blocks,
    joint_spectrum,
)
from .tridiag import sturm_count_below

__all__ = [
    "ModelCounter",
    "column_ladder",
    "build_probe_family",
    "locate_critical_values",
    "recover_all",
    "polygon_run",
    "default_strip",
    "default_dh_grid",
]


def default_strip(model: ModelSpec) -> tuple[float, float]:
    if model.kind == SPIN_OSCILLATOR:
        return (-0.8, 2.0)
    r = model.r1 + model.r2
    return (-r + 0.2, r - 0.4)


def default_dh_grid(model: ModelSpec, k: int) -> np.ndarray:
    if model.kind == SPIN_OSCILLATOR:
        lo, hi = -0.95, 2.5
    else:
        r = model.r1 + model.r2
        lo, hi = -r + 0.06, r - 0.06
    return np.arange(lo, hi + 1e-9, 0.02)


class ModelCounter:
    """Eigenvalue counts in strips, with no eigensolve: an unbounded-y strip
    sums the closed-form block sizes, and only a finite y-range (the height
    count on the critical column) builds the blocks for Sturm counts."""

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
        for b in blocks:
            n_hi = sturm_count_below(b.diag, b.offdiag, yhi) if np.isfinite(yhi) else b.size
            n_lo = sturm_count_below(b.diag, b.offdiag, ylo) if np.isfinite(ylo) else 0
            total += n_hi - n_lo
        return total


def column_ladder(model: ModelSpec, k: int, x: float, y_window=None):
    """(x_actual, ascending eigenvalues) of the spectral column nearest x."""
    h = 1.0 / k
    blocks = build_blocks(model, k, (x - 0.55 * h, x + 0.55 * h))
    b = min(blocks, key=lambda bb: abs(bb.j_value - x))
    return b.j_value, b.eigenvalues(y_window)


def refine_origin(model: ModelSpec, k: int, origin) -> tuple[float, float]:
    """Per-k estimate of the focus-focus value: exact column abscissa plus
    the spacing-minimum ordinate at this k.  Probes measure offsets from the
    estimated singular value, and a1 responds to an ordinate error like
    e2/(2 pi x), so the error must shrink like hbar for the extrapolations
    to converge: a one-off estimate would leave a floor."""
    x0, y0 = origin
    x_act, ev = column_ladder(model, k, x0, (y0 - 0.45, y0 + 0.45))
    if len(ev) < 4:
        return (float(x_act), float(y0))
    gaps = np.diff(ev)
    i = int(np.argmin(gaps))
    return (float(x_act), float(0.5 * (ev[i] + ev[i + 1])))


def build_probe_family(model: ModelSpec, origin, probes: ProbeConfig) -> dict[int, LabelledSpectrum]:
    """Labelled spectra covering all radial probes, one per k.

    Each LabelledSpectrum carries its own per-k refinement of the
    focus-focus value in the .origin attribute.
    """
    all_x = list(probes.x_schedule) + list(probes.x_taylor or [])
    reach = max([probes.mu] + list(probes.mu_list)) * max(all_x)
    family = {}
    for k in probes.k_list:
        ox, oy = refine_origin(model, k, origin)
        x_window = (ox + 0.45 * min(all_x), ox + reach + 4.0 / k)
        family[k] = _block_labelled(model, k, x_window, (ox, oy))
    return family


def _block_labelled(model: ModelSpec, k: int, x_window, origin) -> LabelledSpectrum:
    """The window's columns labelled (j, l) = (sign * block id, idx), a
    lattice label since J's spectrum is an exact hbar-lattice of columns;
    sign makes j grow with x.  A column's ladder is its whole block
    spectrum, solved when the column is first read."""
    blocks = build_blocks(model, k, x_window)
    sign = 1 if model.kind == SPIN_OSCILLATOR else -1

    def ladder(j):
        i = blocks.ids.index(sign * j)
        spec = block_spectrum(blocks[i:i + 1])
        return spec.idx, spec.y

    js = sign * np.asarray(blocks.ids)
    return LabelledSpectrum(k, dict(zip(js.tolist(), blocks.j_values.tolist())), ladder, origin)


def locate_critical_values(model: ModelSpec):
    """DH kinks -> candidate abscissae -> log-peak classification, at
    k = 200 with strips of half-width hbar^0.25.

    Returns (focus (x0, y0), other kink abscissae).
    """
    k_locate = 200
    counter = ModelCounter(model, [k_locate])
    grid = default_dh_grid(model, k_locate)
    profile = dh_profile(counter, k_locate, 0.25, grid)
    kinks = detect_kinks(profile)
    if not kinks:
        raise NoPeak("no kinks in the Duistermaat-Heckman profile")

    def ladder(k, x):
        return column_ladder(model, k, x)

    found = locate_focus_focus(ladder, k_locate, kinks)
    x0, y0 = found[0]
    others = [x for x in kinks if abs(x - x0) > 0.1]
    return (x0, y0), others


def recover_all(model: ModelSpec, config: RunConfig | None = None) -> dict:
    """Full invariant recovery; returns the report dictionary."""
    config = config or RunConfig(model=model.kind, r1=model.r1, r2=model.r2, t=model.t)
    probes = config.probes
    probes.validate()
    origin, other_kinks = locate_critical_values(model)
    family = build_probe_family(model, origin, probes)

    x_probe = min(probes.x_schedule)
    dxfr, dyfr, grad_info = recover_fr_gradient(family, x_probe, probes.mu)
    jet1 = FrJet({(1, 0): dxfr, (0, 1): dyfr})
    s0 = jet1.slope_s0

    # sigma1 and S01 read one probe table on the radial ray (x, s0 x)
    ks, xs = sorted(family), list(probes.x_schedule)
    a1, a2 = ray_samples(family, s0, xs)
    sigma1, sig_info = recover_sigma1(ks, xs, a1, a2, s0)
    p = twisting_number(sigma1)
    sigma1_priv = sigma1 - p

    s01, s01_info = recover_S01(ks, xs, a2, dyfr)

    s00, height_info = column_height(ModelCounter(model, probes.k_list),
                                     {k: spec.origin for k, spec in family.items()})

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
        xs_mu = [x for x in probes.x_taylor if x * mu <= x_top + 1e-12]
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
    taylor = TaylorInvariant(sigma1, p, {
        (0, 0): s00, (0, 1): s01, (1, 0): sigma1_priv,
        (1, 1): s2[(1, 1)], (2, 0): s2[(2, 0)], (0, 2): s2[(0, 2)],
    })

    # the same order-1 solves at the one mu nearest 1 under the purely-mixed
    # hypothesis, dx^2 f_r = dy^2 f_r = S20 = S02 = 0 (exact for the
    # spin-oscillator); far better conditioned than the 3-mu solve
    mu_star = min(mus, key=lambda m: abs(m - 1.0))
    i_star = mus.index(mu_star)
    pure = {(2, 0): 0.0, (0, 2): 0.0}
    jet2_mixed = solve_jet_order(1, [mu_star], [d1s[i_star]], fixed=pure)
    s2_mixed = solve_taylor_order(1, [mu_star], [c1s[i_star]],
                                  FrJet({**jet1.derivs, **jet2_mixed}), s_known, fixed=pure)

    report = {
        "model": model.kind,
        "focus_focus": [origin[0], origin[1]],
        "other_critical_abscissae": other_kinks,
        "fr_jet": {
            "1,0": dxfr, "0,1": dyfr,
            "2,0": jet2[(2, 0)], "1,1": jet2[(1, 1)], "0,2": jet2[(0, 2)],
        },
        "radial_slope": s0,
        "sigma1_0": taylor.sigma1_0,
        "twisting_p": taylor.twisting_p,
        "S": {f"{l},{m}": v for (l, m), v in sorted(taylor.s_coeffs.items())},
        "quadratic_mixed": {
            "dxdy_fr": jet2_mixed[(1, 1)],
            "S11": s2_mixed[(1, 1)],
            "mu": mu_star,
        },
        "diagnostics": {
            # the per-k samples behind the hbar -> 0 limits at the smallest
            # probe offset; the CLI writes them as the fig_*.csv rows
            "per_k": {
                "k": list(probes.k_list),
                "x": x_probe,
                "dxfr": grad_info["per_k"][x_probe][0],
                "dyfr": grad_info["per_k"][x_probe][1],
                "sigma1": sig_info["per_k"][x_probe],
                "S01": s01_info["per_k"][x_probe],
                "height": [height_info["raw"][k] for k in probes.k_list],
            },
            "sigma1_per_x": {f"{x}": v for x, v in sig_info["per_x"].items()},
            "s01_per_x": {f"{x}": v for x, v in s01_info["per_x"].items()},
            "d1_by_mu": dict(zip(map(str, mus), d1s)),
            "c1_by_mu": dict(zip(map(str, mus), c1s)),
            "convergence_slopes": {
                "gradient_hbar": {f"{x}": v for x, v in grad_info["hbar_slopes"].items()},
                "sigma1_hbar": {f"{x}": v for x, v in sig_info["hbar_slopes"].items()},
                "s01_hbar": {f"{x}": v for x, v in s01_info["hbar_slopes"].items()},
                "height": height_info["slope"],
            },
            "condition_numbers": {
                "sigma1_x_fit": sig_info["cond"],
                "s01_x_fit": s01_info["cond"],
                "log_expansion_by_mu": fit_conds,
            },
        },
    }
    return report


# ---------------------------------------------------------------------------
# polygon pipeline

def polygon_run(model: ModelSpec, k: int, strip=None):
    """Quantum cartographic cloud on the strip and the fitted polygon.

    The critical values are located from the spectrum first.  Exclusions: a
    vertical band of half-width eps above the focus-focus value (the cut)
    and balls of radius eps at the column ends over every other critical
    abscissa (corners), eps = max(3 hbar, 0.35 sqrt(hbar)).
    """
    strip = default_strip(model) if strip is None else strip
    h = 1.0 / k
    eps = max(3 * h, 0.35 * np.sqrt(h))
    origin, corner_xs = locate_critical_values(model)
    x0, y0 = origin
    ymax = 1.2 if model.kind == COUPLED_ANGULAR_MOMENTA else 2.6
    window = Rect(strip[0], strip[1], -ymax, ymax)
    spec = joint_spectrum(model, k, window)
    pts = spec.as_array()
    keep = ~((np.abs(pts[:, 0] - x0) <= eps) & (pts[:, 1] >= y0 - eps))
    for xc in corner_xs:
        if strip[0] - eps < xc < strip[1] + eps:
            col = pts[np.abs(pts[:, 0] - xc) <= 0.55 * h]
            if len(col):
                for yc in (col[:, 1].min(), col[:, 1].max()):
                    keep &= np.hypot(pts[:, 0] - xc, pts[:, 1] - yc) > eps
    cloud = PointCloud(k, pts[keep])
    lab = label_semitoric(cloud, seed_x=strip[1] - 0.1 * (strip[1] - strip[0]))
    points, labels, _ = lab.arrays(cloud)
    est = polygon_recover(points, labels, h, [x0] + list(corner_xs), strip)
    return points, labels, est


def polygon_reference_distance(model: ModelSpec, est, strip, h: float):
    """Translation-optimized Hausdorff distance of the cloud against the
    reference polygon clipped to the strip, plus vertex errors.

    The x component of the translation is the exact column alignment (the
    abscissae are an exact hbar grid), so only the vertical freedom (the
    undetermined nu) is optimized; this avoids wandering on the Hausdorff
    plateau created by the exclusion holes.
    """
    from scipy.optimize import minimize_scalar
    from scipy.spatial import cKDTree

    theory = sample_polygon_region(model, strip, 0.35 * h)
    theory_tree = cKDTree(theory)
    tx = est.x_translation

    def dist(ty):
        return hausdorff(est.cloud + np.array([tx, ty]), theory_tree)

    y0 = float(np.median(theory[:, 1])) - float(np.median(est.cloud[:, 1]))
    res = minimize_scalar(dist, bracket=(y0 - 2 * h, y0, y0 + 2 * h),
                          method="brent", options={"xtol": 1e-4})
    shift = np.array([tx, float(res.x)])
    vert_err = _vertex_errors(est.fitted_vertices, reference_polygon_vertices(model))
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
