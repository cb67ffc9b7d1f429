"""Command-line driver.

Subcommands: spectrum, label, invariants, polygon, dh, synth.  All outputs
are deterministic CSV/JSON ('.' decimal separator, fixed column order).
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 labelling failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import (
    ConfigurationError,
    DimensionMismatch,
    LabellingError,
    NoPeak,
    NumericalFailure,
    SemitoricError,
)
from .geometry import Rect
from .lattice import (
    PointCloud,
    label_half_lattice,
    label_regular,
    label_semitoric,
    select_affine_basis,
    synth_lattice,
)
from .models import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    ModelSpec,
    joint_spectrum,
    spectrum_to_csv,
    spectrum_to_json,
)
from .pipeline import (
    ModelCounter,
    detect_kinks,
    dh_profile,
    locate_critical_values,
    polygon_reference_distance,
    polygon_run,
    recover_all,
)
from .reference import reference_invariants, reference_rho

MODEL_NAMES = {
    "spin-oscillator": SPIN_OSCILLATOR,
    "coupled": COUPLED_ANGULAR_MOMENTA,
    "coupled-angular-momenta": COUPLED_ANGULAR_MOMENTA,
}

# figure name -> reference key of its theory column
FIGURES = (("dxfr", "dx_fr"), ("dyfr", "dy_fr"), ("sigma1", "sigma1_priv"),
           ("S01", "S01"), ("height", "S00"))


def _model(cfg: RunConfig) -> ModelSpec:
    """The configured model, its dimensions checked at every k of the
    schedule before any command solves."""
    kind = MODEL_NAMES.get(cfg.model)
    if kind is None:
        raise ConfigurationError(f"unknown model {cfg.model!r}")
    model = ModelSpec(kind, r1=cfg.r1, r2=cfg.r2, t=cfg.t)
    for k in cfg.probes.k_list:
        model.check_dimensions(k)
    return model


def _config_from_args(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_json(args.config)
    else:
        cfg = RunConfig()
    # flags override the file
    for name in ("model", "r1", "r2", "t"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    if getattr(args, "k", None):
        cfg.probes.k_list = sorted(args.k)
    if getattr(args, "k_max", None) is not None:
        cfg.probes.k_list = [k for k in cfg.probes.k_list if k <= args.k_max]
    if getattr(args, "x", None):
        cfg.probes.x_schedule = sorted(args.x, reverse=True)
    if getattr(args, "mu", None) is not None:
        cfg.probes.mu = args.mu
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    cfg.validate()
    return cfg


def _outdir(cfg) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:   # a regular file in the way, or no permission
        raise ConfigurationError(f"cannot create output directory {out}: {e.strerror}") from e
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    cfg = _config_from_args(args)
    model = _model(cfg)
    out = _outdir(cfg)
    for k in cfg.probes.k_list:
        spec = joint_spectrum(model, k, Rect(*model.strip, -2.6, 2.6))
        _write(out / f"spectrum_k{k}.csv", spectrum_to_csv(spec))
        _write(out / f"spectrum_k{k}.json", spectrum_to_json(spec))
    return 0


def cmd_label(args) -> int:
    cfg = _config_from_args(args)
    model = _model(cfg)
    out = _outdir(cfg)
    # leave out the cut, the located focus-focus column at and above y0,
    # which no column transport crosses.  With no value located (NoPeak, or
    # radii off the grid of the locate stage's k), nan cuts nothing.
    try:
        (x0, y0), _ = locate_critical_values(model)
    except (NoPeak, DimensionMismatch):
        x0 = y0 = np.nan
    for k in cfg.probes.k_list:
        pts = joint_spectrum(model, k, Rect(*model.strip, -2.6, 2.6)).as_array()
        cut = (np.abs(pts[:, 0] - x0) < 0.5 / k) & (pts[:, 1] >= y0)
        cloud = PointCloud(k, pts[~cut])
        pts, labs, _ = label_semitoric(cloud, seed_x=model.strip[1]).arrays(cloud)
        lines = ["k,x,y,j,l"]
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        for i in order:
            lines.append(f"{k},{pts[i,0]:.17g},{pts[i,1]:.17g},{labs[i,0]},{labs[i,1]}")
        _write(out / f"labels_k{k}.csv", "\n".join(lines) + "\n")
    return 0


def cmd_invariants(args) -> int:
    cfg = _config_from_args(args)
    model = _model(cfg)
    out = _outdir(cfg)
    report = recover_all(model, cfg.probes)
    _write(out / "invariants.json", json.dumps(report, indent=2, sort_keys=True))
    _write_figures(out, model, report)
    return 0


def _write_figures(out: Path, model: ModelSpec, report: dict) -> None:
    """Per-figure CSVs (k, estimate, theory): the per-k samples that the
    recovery's hbar -> 0 fits used, read from the report."""
    ref = reference_invariants(model) or {}
    per_k = report["diagnostics"]["per_k"]
    for name, ref_key in FIGURES:
        theory = ref.get(ref_key)
        lines = ["abscissa,estimate,theory"]
        for k, est in zip(per_k["k"], per_k[name]):
            lines.append(f"{k},{est:.17g},{'' if theory is None else format(theory, '.17g')}")
        _write(out / f"fig_{name}.csv", "\n".join(lines) + "\n")


def cmd_polygon(args) -> int:
    cfg = _config_from_args(args)
    model = _model(cfg)
    out = _outdir(cfg)
    k = cfg.probes.k_list[-1]
    est = polygon_run(model, k)
    dist, shift, vert_err = polygon_reference_distance(model, est, k)
    lines = ["u,v"]
    for u, v in est.cloud[np.lexsort((est.cloud[:, 1], est.cloud[:, 0]))]:
        lines.append(f"{u:.17g},{v:.17g}")
    _write(out / f"polygon_cloud_k{k}.csv", "\n".join(lines) + "\n")
    _write(out / "polygon_report.json", json.dumps({
        "k": k,
        "hausdorff_to_reference": dist,
        "hausdorff_budget": model.hausdorff_budget / k,
        "translation": list(shift),
        "fitted_vertices": [list(v) for v in est.fitted_vertices],
        "vertex_errors": vert_err,
    }, indent=2))
    return 0


def cmd_dh(args) -> int:
    cfg = _config_from_args(args)
    model = _model(cfg)
    out = _outdir(cfg)
    k = cfg.probes.k_list[-1]
    delta = args.delta if args.delta is not None else 0.25
    counter = ModelCounter(model, [k])
    profile = dh_profile(counter, k, delta, model.dh_grid)
    kinks = detect_kinks(profile)
    lines = ["abscissa,estimate,theory"]
    for xx, val in profile:
        lines.append(f"{xx:.17g},{val:.17g},{reference_rho(model, xx):.17g}")
    _write(out / f"dh_profile_k{k}.csv", "\n".join(lines) + "\n")
    _write(out / "dh_report.json", json.dumps(
        {"k": k, "delta": delta, "kinks": kinks}, indent=2))
    return 0


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    out = _outdir(cfg)
    rng = np.random.default_rng(cfg.seed)
    from .testing import random_chart  # deterministic chart generator

    chart = random_chart(rng, half=args.half)
    k = cfg.probes.k_list[-1]
    cloud = synth_lattice(chart, k)
    if args.half:
        lab = label_half_lattice(cloud, (0.0, 0.0))
    else:
        basis = select_affine_basis(cloud, np.mean(cloud.points, axis=0))
        lab = label_regular(cloud, basis)
    lines = ["k,x,y,j,l,true_j,true_l"]
    for i, (j, l) in sorted(lab.assignment.items()):
        x, y = cloud.points[i]
        tj, tl = cloud.true_labels[i]
        lines.append(f"{k},{x:.17g},{y:.17g},{j},{l},{tj},{tl}")
    _write(out / f"synth_k{k}.csv", "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="semitoric",
                                description="joint spectra of quantum semitoric "
                                            "models and invariant recovery")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("label", cmd_label),
                     ("invariants", cmd_invariants), ("polygon", cmd_polygon),
                     ("dh", cmd_dh), ("synth", cmd_synth)):
        q = sub.add_parser(name)
        q.set_defaults(func=fn)
        q.add_argument("--model", default=None, choices=sorted(MODEL_NAMES))
        q.add_argument("--r1", type=float, default=None)
        q.add_argument("--r2", type=float, default=None)
        q.add_argument("--t", type=float, default=None)
        q.add_argument("--k", type=int, action="append",
                       help="k value; repeat for a schedule")
        q.add_argument("--k-max", type=int, default=None)
        q.add_argument("--x", type=float, action="append",
                       help="probe offset; repeat for a schedule")
        q.add_argument("--mu", type=float, default=None)
        q.add_argument("--out", default=None)
        q.add_argument("--config", default=None, help="JSON RunConfig file")
        if name == "dh":
            q.add_argument("--delta", type=float, default=None,
                           help="strip half-width exponent, in (0, 1/2); default 0.25")
        if name == "synth":
            q.add_argument("--half", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except LabellingError as e:
        print(f"labelling failure: {e}", file=sys.stderr)
        return 4
    except SemitoricError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
