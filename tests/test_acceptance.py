"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The two model pipelines are executed once (the session-scoped
fixtures of conftest.py) and shared across criteria.
"""

import json

import numpy as np

from semitoric import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    ModelSpec,
    build_blocks,
    joint_spectrum,
)
from semitoric.invariants import (
    detect_kinks,
    dh_profile,
    loglog_slope,
    ray_samples,
    recover_fr_gradient,
)
from semitoric.lattice import (
    Labelling,
    label_half_lattice,
    label_regular,
    select_affine_basis,
    synth_lattice,
    transition,
)
from semitoric.pipeline import (
    ModelCounter,
    _set_origins,
    build_probe_family,
    locate_critical_values,
    polygon_reference_distance,
    polygon_run,
)
from semitoric.config import ProbeConfig
from semitoric.reference import reference_invariants, reference_rho
from semitoric.testing import (
    dense_oracle_spectrum,
    random_chart,
    spectrum_columns,
    strip_density,
)

SPIN = ModelSpec(SPIN_OSCILLATOR)
COUPLED = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5)


def circle_distance(a: float, b: float) -> float:
    """Distance between a and b in R/Z."""
    return abs((a - b + 0.5) % 1.0 - 0.5)


def report(criterion, name, value, tol, ok=None):
    ok = (value <= tol) if ok is None else ok
    print(f"ACCEPTANCE {criterion} [{name}]: "
          f"{'PASS' if ok else 'FAIL'} (value {value:.4g}, budget {tol:.4g})")
    assert ok, f"{name}: {value} exceeds {tol}"


# -- criterion 1: oracle equivalence ----------------------------------------

def test_criterion_1_oracle_equivalence():
    worst_eig, worst_comm = 0.0, 0.0
    for k in (1, 2, 3):
        spec = joint_spectrum(COUPLED, k, (-3.5, 3.5))
        oracle = dense_oracle_spectrum(COUPLED, k)       # checks commutator
        a, b = spectrum_columns(spec), spectrum_columns(oracle)
        worst_eig = max(worst_eig, max(np.abs(a[i] - b[i]).max() for i in a))
    n_max = 60
    for k in (1, 2, 3):
        spec = joint_spectrum(SPIN, k, (0.0, 1 + (n_max - 2 * k) / k + 0.01))
        oracle = dense_oracle_spectrum(SPIN, k, n_max=n_max)
        a, b = spectrum_columns(spec), spectrum_columns(oracle)
        interior = [m for m in a if m <= n_max - 2 * k]
        worst_eig = max(worst_eig, max(np.abs(a[m] - b[m]).max() for m in interior))
    report(1, "joint spectrum vs dense oracle", worst_eig, 1e-9)


# -- criterion 2: synthetic labelling ----------------------------------------

def _matches_truth_up_to_affine(lab: Labelling, truth: np.ndarray):
    """(mislabelled count, identification matrix) for the best integer
    affine identification of labels with ground truth."""
    items = sorted(lab.assignment.items())
    T = truth[[i for i, _ in items]].astype(np.int64)
    G = np.array([l for _, l in items], dtype=np.int64)
    d = T - T[0]
    for i in range(1, len(T)):
        for j in range(i + 1, min(i + 60, len(T))):
            det = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
            if det == 0:
                continue
            D1 = np.array([d[i], d[j]]).T
            D2 = np.array([G[i] - G[0], G[j] - G[0]]).T
            adj = np.array([[D1[1, 1], -D1[0, 1]], [-D1[1, 0], D1[0, 0]]])
            if np.any((D2 @ adj) % det != 0):
                return len(T), None
            A = (D2 @ adj) // det
            kap = G[0] - A @ T[0]
            return int(np.sum(np.any((T @ A.T) + kap != G, axis=1))), A
    return len(T), None


def test_criterion_2_synthetic_labelling():
    rng = np.random.default_rng(20260811)
    mislabelled = 0
    total = 0
    stable = True
    for trial in range(3):
        chart = random_chart(rng)
        maps = []
        for k in (20, 50, 100):
            cloud = synth_lattice(chart, k)
            basis = select_affine_basis(cloud, cloud.points.mean(axis=0))
            lab = label_regular(cloud, basis)
            assert len(lab) == len(cloud.points)
            miss, A = _matches_truth_up_to_affine(lab, cloud.true_labels)
            mislabelled += miss
            total += len(lab)
            maps.append(A)
        # identification is one affine map per region, constant over k >= 20
        stable &= all(np.array_equal(maps[0], m) for m in maps[1:])
    for trial in range(3):
        chart = random_chart(rng, half=True)
        maps = []
        for k in (20, 50, 100):
            cloud = synth_lattice(chart, k)
            c = np.asarray(chart.g0(np.array([0.0, 0.25])), float)
            lab = label_half_lattice(cloud, c)
            assert len(lab) == len(cloud.points)
            miss, A = _matches_truth_up_to_affine(lab, cloud.true_labels)
            mislabelled += miss
            total += len(lab)
            maps.append(A)
            # bottom row must walk monotonically in x
            bottoms = {j: None for j, l in lab.assignment.values() if l == 0}
            for i, (j, l) in lab.assignment.items():
                if l == 0:
                    bottoms[j] = cloud.points[i, 0]
            xs = [bottoms[j] for j in sorted(bottoms)]
            assert all(a < b for a, b in zip(xs, xs[1:]))
        stable &= all(np.array_equal(maps[0], m) for m in maps[1:])
    ok = mislabelled == 0 and stable
    print(f"ACCEPTANCE 2 [six charts, k in (20,50,100), {total} points]: "
          f"{'PASS' if ok else 'FAIL'} ({mislabelled} mislabelled, "
          f"identification constant in k from k0=20: {stable})")
    assert ok


# -- criteria 3 and 4: model invariants ---------------------------------------

def test_criterion_3_spin_invariants(spin_report):
    ref = reference_invariants(SPIN)
    rep = spin_report
    report(3, "spin dx f_r", abs(rep["fr_jet"]["1,0"] - ref["dx_fr"]), 0.05)
    report(3, "spin dy f_r", abs(rep["fr_jet"]["0,1"] - ref["dy_fr"]), 0.1)
    report(3, "spin sigma1^p", circle_distance(rep["S"]["1,0"], ref["sigma1_priv"]), 0.05)
    report(3, "spin S01", abs(rep["S"]["0,1"] - ref["S01"]), 0.05)
    report(3, "spin S00", abs(rep["S"]["0,0"] - ref["S00"]), 0.1)
    report(3, "spin dxdy f_r", abs(rep["quadratic_mixed"]["dxdy_fr"] - ref["dxdy_fr"]), 0.15)
    report(3, "spin S11", abs(rep["quadratic_mixed"]["S11"] - ref["S11"]), 0.03)


def test_criterion_4_coupled_invariants(coupled_report):
    ref = reference_invariants(COUPLED)
    rep = coupled_report
    report(4, "coupled dx f_r", abs(rep["fr_jet"]["1,0"] - ref["dx_fr"]), 0.05)
    report(4, "coupled dy f_r", abs(rep["fr_jet"]["0,1"] - ref["dy_fr"]), 0.15)
    report(4, "coupled sigma1^p", circle_distance(rep["S"]["1,0"], ref["sigma1_priv"]), 0.05)
    report(4, "coupled S01", abs(rep["S"]["0,1"] - ref["S01"]), 0.05)
    report(4, "coupled S00", abs(rep["S"]["0,0"] - ref["S00"]), 0.1)


def test_spin_height_counts_exactly(spin_report):
    # the critical column holds exactly k eigenvalues below the focus-focus
    # ordinate at every k, so the height needs no extrapolation
    assert spin_report["S"]["0,0"] == 1.0
    assert spin_report["diagnostics"]["per_k"]["height"] == [1.0] * 5
    assert spin_report["diagnostics"]["convergence_slopes"]["height"] is None


def test_spin_symmetric_leaves_have_no_convergence_slope(spin_report):
    # sigma1 and dx f_r vanish by symmetry, so every per-k sample lies
    # within rounding of its limit and no hbar convergence order exists
    slopes = spin_report["diagnostics"]["convergence_slopes"]
    assert all(v is None for v in slopes["sigma1_hbar"].values())
    assert [v[0] for v in slopes["gradient_hbar"].values()] == [None]


def test_coupled_height_from_the_critical_column(coupled_report):
    ref = reference_invariants(COUPLED)["S00"]
    report(4, "coupled S00 from the column count", abs(coupled_report["S"]["0,0"] - ref), 1e-3)


def test_reports_are_strict_json(spin_report, coupled_report):
    for rep in (spin_report, coupled_report):
        json.dumps(rep, allow_nan=False)


# -- criterion 5: focus-focus location ----------------------------------------

def test_criterion_5_focus_focus_location(spin_report, coupled_report):
    # the fixtures located it with locate_critical_values at k = 200
    for model, rep, ref in ((SPIN, spin_report, (1.0, 0.0)),
                            (COUPLED, coupled_report, (-1.5, 0.0))):
        x0, y0 = rep["focus_focus"]
        report(5, f"{model.kind} x0", abs(x0 - ref[0]), 0.05)
        report(5, f"{model.kind} y0", abs(y0 - ref[1]), 0.05)


# -- criterion 6: Duistermaat-Heckman profile ---------------------------------

def test_criterion_6_dh_profile():
    # hbar times the size of each column of the DH range
    k = 200
    blocks = build_blocks(COUPLED, k, COUPLED.dh_range)
    profile = dh_profile(blocks)
    x = profile[:, 0]
    rho = reference_rho(COUPLED, x)
    kinks_theory = [-3.5, -1.5, 1.5, 3.5]   # slope changes of rho_J incl. support ends
    mask = np.ones(len(x), dtype=bool)
    for c in kinks_theory:
        mask &= np.abs(x - c) >= 0.3
    sup_err = np.abs(profile[:, 1] - rho)[mask].max()
    report(6, "DH sup error away from kinks", sup_err, 0.08)
    kinks = detect_kinks(blocks)
    for target in (-1.5, 1.5):
        err = min(abs(kk - target) for kk in kinks)
        report(6, f"kink near {target}", err, 0.2)


# -- criterion 7: polygon ------------------------------------------------------

def test_criterion_7_polygon():
    for model, k, mult in ((SPIN, 25, 6), (COUPLED, 20, 8)):
        est = polygon_run(model, k)
        dist, _, _, vert_err = polygon_reference_distance(model, est, k)
        report(7, f"{model.kind} Hausdorff", dist, mult / k)
        report(7, f"{model.kind} vertices", max(vert_err), 0.1)


# -- criterion 8: convergence rate ---------------------------------------------

def located_family(model, ks):
    """The probe family of ks with each k's origin set from the located focus."""
    family = build_probe_family(model, ks)
    _set_origins(family, locate_critical_values(model, min(ks), family)[0])
    return family


def sigma1_per_k(model, s0, x, ks):
    """Per-k sigma1 estimates a1 + s0 a2 at the single probe (x, s0 x)."""
    a1, a2 = ray_samples(located_family(model, ks), s0, [x])
    return (a1 + s0 * a2)[:, 0]


def test_criterion_8_convergence_rate(coupled_report):
    # spin-oscillator: every column is symmetric under H -> -H, so the
    # sigma1 probe on the symmetry axis is exact at each k up to rounding
    ests = sigma1_per_k(SPIN, 0.0, 0.01, [100, 200, 300, 400, 500])
    errs = [circle_distance(est, 0.0) for est in ests]
    report(8, "spin sigma1 error at y = 0, worst k", max(errs), 1e-12)
    # coupled: the hbar -> 0 rate at x = 0.02, read off the successive
    # differences |s_k - s_2k|, which need no reference value
    ks = [100, 200, 400, 800]
    ests = sigma1_per_k(COUPLED, coupled_report["radial_slope"], 0.02, ks)
    diffs = np.array([circle_distance(a, b) for a, b in zip(ests, ests[1:])])
    report(8, "coupled sigma1 |s_k - s_2k|, smallest", float(diffs.min()), 1e-10,
           ok=diffs.min() > 1e-10)
    report(8, "coupled sigma1 log-log slope of |s_k - s_2k|",
           loglog_slope(ks[:-1], diffs), -0.8)


# -- criterion 9: property suite -----------------------------------------------

def test_criterion_9_relabelling_covariance():
    from semitoric.invariants import LabelledSpectrum, recover_sigma1

    probes = ProbeConfig(k_list=[100, 200, 300, 400, 500], x_schedule=[0.02, 0.01],
                         x_taylor=[0.02], mu_list=[])
    family = located_family(COUPLED, probes.k_list)
    s0 = 0.1
    ks, xs = probes.k_list, probes.x_schedule

    def sigma1(fam):
        a1, a2 = ray_samples(fam, s0, xs)
        return recover_sigma1(ks, xs, a1, a2, s0)[0]

    base = sigma1(family)

    def shear(sp, n):
        # the spectrum relabelled as lambda'_{j,l} = lambda_{j, l+n*j}: rows
        # are numbered from each column's bottom, so column j drops its
        # lowest 40 + n (j - j0) rows, 18 .. 62 on the columns the probes
        # read (j - j0 <= 0.02 k + 1), fewer than the rows below y0
        j0 = sp.nearest_column(sp.origin[0])
        return LabelledSpectrum(sp.k, sp.column_x, lambda j: sp.ladder(j)[40 + n * (j - j0):],
                                origin=sp.origin)

    worst = 0.0
    for n in (-2, -1, 1, 2):
        sheared = {k: shear(sp, n) for k, sp in family.items()}
        sig = sigma1(sheared)
        worst = max(worst, abs((sig - base) - (-n)))
    report(9, "relabelling shifts sigma1 by -n", worst, 0.02)


def test_criterion_9_privileged_idempotence(spin_report, coupled_report):
    for rep in (spin_report, coupled_report):
        frac = rep["S"]["1,0"]
        ok = 0.0 <= frac < 1.0 and int(np.floor(frac)) == 0
        report(9, f"{rep['model']} privileged in [0,1) with p=0", 0.0 if ok else 1.0, 0.5, ok=ok)


def gradient(family, ks, xs):
    """recover_fr_gradient on the family's probe table of slope 0 at xs."""
    return recover_fr_gradient(ks, xs, *ray_samples(family, 0.0, xs))


def test_criterion_9_mu_independence():
    ks = [100, 200, 300, 400, 500]
    family = located_family(COUPLED, ks)
    grads = [gradient(family, ks, [0.01, mu * 0.01]) for mu in (2.0, 3.0, 4.0)]
    spread_dx = max(g[0] for g in grads) - min(g[0] for g in grads)
    spread_dy = max(g[1] for g in grads) - min(g[1] for g in grads)
    report(9, "jet recovery mu-independence (dx)", spread_dx, 0.05)
    report(9, "jet recovery mu-independence (dy)", spread_dy, 0.1)


def test_criterion_9_glue_order_independence():
    from semitoric.lattice import glue_global
    from semitoric.geometry import Rect as R

    rng = np.random.default_rng(99)
    chart = random_chart(rng)
    cloud = synth_lattice(chart, 30)
    xs = cloud.points[:, 0]
    lo, hi = xs.min(), xs.max()
    rects = [R(lo - 0.1, lo + 0.45 * (hi - lo), -10, 10),
             R(lo + 0.3 * (hi - lo), lo + 0.72 * (hi - lo), -10, 10),
             R(lo + 0.55 * (hi - lo), hi + 0.1, -10, 10)]
    charts = []
    for r in rects:
        sub = cloud.restrict(r)
        basis = select_affine_basis(sub, np.mean(sub.points, axis=0))
        lab = label_regular(sub, basis)
        orig = np.where(r.contains(cloud.points))[0]
        charts.append((r, Labelling({int(orig[i]): l for i, l in lab.assignment.items()})))
    g1 = glue_global(cloud, charts)
    g2 = glue_global(cloud, charts[::-1])
    t = transition(g2.merged, g1.merged, cloud)   # must exist: one affine map
    relabelled = g2.merged.compose_affine(t[:2, :2], t[:2, 2])
    same = relabelled.assignment == g1.merged.assignment
    report(9, "glue order-independence", 0.0 if same else 1.0, 0.5, ok=same)


def test_criterion_9_d0_consistency():
    # d0(mu) fitted from g_mu must match -(dx f_r + mu dy f_r)/2pi from the
    # spacing-difference gradient, mu in {1, 2, 4}
    from semitoric.invariants import fit_log_expansion, hbar_limits

    probes = ProbeConfig(k_list=[100, 200, 300, 400, 500],
                         x_schedule=[0.01], x_taylor=[0.04, 0.03, 0.02, 0.01],
                         mu_list=[1.0, 2.0, 4.0])
    family = located_family(SPIN, probes.k_list)
    ks = probes.k_list
    dx, dy, _ = gradient(family, ks, [0.01, 0.02])
    worst = 0.0
    for mu in (1.0, 2.0, 4.0):
        a1, a2 = ray_samples(family, mu, probes.x_taylor)
        g = hbar_limits(ks, a1 + mu * a2)[0]
        _, d0, *_ = fit_log_expansion(probes.x_taylor, g)
        worst = max(worst, abs(d0 - (-(dx + mu * dy) / (2 * np.pi))))
    report(9, "d0(mu) vs gradient, mu in {1,2,4}", worst, 0.05)


def test_criterion_9_height_splits_reduced_volume():
    # counting below plus above the critical ordinate recovers the strip
    # density at x0 (same strips, so biases cancel)
    from semitoric.invariants import height_invariant

    for model, x0 in ((SPIN, 1.0), (COUPLED, -1.5)):
        ks = [150, 200, 250, 300]
        counter = ModelCounter(model, ks)

        class Above:
            ks = counter.ks

            def count(self, k, xlo, xhi, ylo=-np.inf, yhi=np.inf):
                return counter.count(k, xlo, xhi, 0.0, np.inf)

        below, _ = height_invariant(counter, x0, 0.0, 0.4)
        above, _ = height_invariant(Above(), x0, 0.0, 0.4)
        rho = strip_density(model, ks[-1], x0, 0.4)
        report(9, f"{model.kind} height below+above vs rho_J(x0)",
               abs(below + above - rho) / rho, 0.05)


def test_criterion_9_spacing_peak_k50():
    # inverse level spacings along the critical column at k=50 peak at the
    # focus-focus ordinate
    from semitoric.pipeline import column_ladder

    x_act, ev = column_ladder(build_probe_family(COUPLED, [50])[50], -1.5)
    inv = np.diff(ev) ** -1
    mids = 0.5 * (ev[1:] + ev[:-1])
    i = int(np.argmax(inv))
    report(9, "coupled k=50 spacing peak ordinate", abs(mids[i]), 0.05)
    ok = inv[i] > 1.8 * np.median(inv)
    report(9, "coupled k=50 peak prominence", float(inv[i] / np.median(inv)), 1.8,
           ok=ok)


def test_criterion_9_transition_exactness():
    rng = np.random.default_rng(123)
    chart = random_chart(rng)
    cloud = synth_lattice(chart, 25)
    lab1 = Labelling({i: (int(a), int(b)) for i, (a, b) in enumerate(cloud.true_labels)})
    A = np.array([[2, 1], [1, 1]])
    lab2 = lab1.compose_affine(A, (-4, 7))
    t = transition(lab1, lab2, cloud)
    exact = lab1.compose_affine(t[:2, :2], t[:2, 2]).assignment == lab2.assignment
    report(9, "transition exact on every common point", 0.0 if exact else 1.0, 0.5, ok=exact)
