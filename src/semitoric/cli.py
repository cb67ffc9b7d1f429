"""Command-line driver.

Subcommands: spectrum, label, invariants, polygon, dh; each runs on the
configured model.  All outputs are deterministic CSV/JSON ('.' decimal
separator, fixed column order).
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
    LabellingError,
    NoPeak,
    NumericalFailure,
    SemitoricError,
)
from .models import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    ModelSpec,
    build_blocks,
    joint_spectrum,
)
from .pipeline import (
    detect_kinks,
    dh_profile,
    label_strip,
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
        v = getattr(args, name)
        if v is not None:
            setattr(cfg, name, v)
    if args.k:
        cfg.probes.k_list = sorted(args.k)
    if getattr(args, "x", None):   # invariants alone reads --x
        cfg.probes.x_schedule = sorted(args.x, reverse=True)
    if args.out:
        cfg.output_dir = args.out
    cfg.probes.validate()
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


def _write_csv(path: Path, header: str, rows) -> None:
    """One CSV line per row: a float (numpy's float64 is one) at full
    precision (.17g), any other value as its text.  Each column holds one
    type, so the first row's types make the one format of every line."""
    rows = [tuple(row) for row in rows]
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n" if rows else ""
    _write(path, header + "\n" + "".join([line % row for row in rows]))


# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig, model: ModelSpec, out: Path) -> int:
    for k in cfg.probes.k_list:
        spec = joint_spectrum(model, k, model.strip)
        _write_csv(out / f"spectrum_k{k}.csv", "k,x,y,block,idx",
                   ((k, *row) for row in zip(spec.x.tolist(), spec.y.tolist(),
                                             spec.block.tolist(), spec.idx.tolist())))
    return 0


def cmd_label(cfg: RunConfig, model: ModelSpec, out: Path) -> int:
    # with no focus-focus value located there is no cut
    try:
        origin, _ = locate_critical_values(model, cfg.probes.k_list[0])
    except NoPeak:
        origin = (np.nan, np.nan)
    for k in cfg.probes.k_list:
        pts, labs = label_strip(model, k, origin)   # in (column, height) order
        _write_csv(out / f"labels_k{k}.csv", "k,x,y,j,l",
                   ((k, *p, *l) for p, l in zip(pts.tolist(), labs.tolist())))
    return 0


def cmd_invariants(cfg: RunConfig, model: ModelSpec, out: Path) -> int:
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
        theory = ref.get(ref_key, "")
        _write_csv(out / f"fig_{name}.csv", "abscissa,estimate,theory",
                   ((k, est, theory) for k, est in zip(per_k["k"], per_k[name])))


def cmd_polygon(cfg: RunConfig, model: ModelSpec, out: Path) -> int:
    k = cfg.probes.k_list[-1]
    est = polygon_run(model, k)
    dist, shift, end_error, vert_err = polygon_reference_distance(model, est, k)
    # label_strip's (column, height) order
    _write_csv(out / f"polygon_cloud_k{k}.csv", "u,v", est.cloud.tolist())
    _write(out / "polygon_report.json", json.dumps({
        "k": k,
        "hausdorff_to_reference": dist,
        "hausdorff_budget": model.hausdorff_budget / k,
        "column_end_error": end_error,
        "translation": list(shift),
        "fitted_vertices": [list(v) for v in est.fitted_vertices],
        "vertex_errors": vert_err,
    }, indent=2))
    return 0


def cmd_dh(cfg: RunConfig, model: ModelSpec, out: Path) -> int:
    k = cfg.probes.k_list[-1]
    blocks = build_blocks(model, k, model.dh_range)
    profile = dh_profile(blocks)
    _write_csv(out / f"dh_profile_k{k}.csv", "abscissa,estimate,theory",
               zip(*profile.T.tolist(), reference_rho(model, profile[:, 0]).tolist()))
    _write(out / "dh_report.json", json.dumps(
        {"k": k, "kinks": detect_kinks(blocks)}, indent=2))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # the flags every command reads, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default=None, choices=sorted(MODEL_NAMES))
    common.add_argument("--r1", type=float, default=None)
    common.add_argument("--r2", type=float, default=None)
    common.add_argument("--t", type=float, default=None)
    common.add_argument("--k", type=int, action="append",
                        help="k value; repeat for a schedule")
    common.add_argument("--out", default=None)
    common.add_argument("--config", default=None, help="JSON RunConfig file")
    p = argparse.ArgumentParser(prog="semitoric",
                                description="joint spectra of quantum semitoric "
                                            "models and invariant recovery")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("label", cmd_label),
                     ("invariants", cmd_invariants), ("polygon", cmd_polygon),
                     ("dh", cmd_dh)):
        # each command takes only the flags it reads
        q = sub.add_parser(name, parents=[common])
        q.set_defaults(func=fn)
        if name == "invariants":
            q.add_argument("--x", type=float, action="append",
                           help="probe offset; repeat for a schedule")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return args.func(cfg, _model(cfg), _outdir(cfg))
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
