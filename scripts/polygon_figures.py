#!/usr/bin/env python3
"""Emit the polygon-recovery clouds and Duistermaat-Heckman profiles for both
models as CSV, ready to plot against the reference shapes."""

import argparse
from pathlib import Path

import numpy as np

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.invariants import detect_kinks, dh_profile
from semitoric.models import build_blocks
from semitoric.pipeline import polygon_reference_distance, polygon_run
from semitoric.reference import reference_rho


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    runs = (
        (ModelSpec(SPIN_OSCILLATOR), 25),
        (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), 20),
    )
    for model, k in runs:
        est = polygon_run(model, k)
        dist, shift, end_error, vert_err = polygon_reference_distance(model, est, k)
        path = out / f"polygon_{model.kind}_k{k}.csv"
        with path.open("w") as f:
            f.write("u,v\n")
            for u, v in est.cloud + shift:
                f.write(f"{u:.17g},{v:.17g}\n")
        print(f"{model.kind}: Hausdorff {dist:.4f} "
              f"(budget {model.hausdorff_budget:g}/k), "
              f"column end error {end_error * k:.2f} hbar, "
              f"max vertex error {max(vert_err):.4f} -> {path}")

        kdh = 200
        blocks = build_blocks(model, kdh, model.dh_range)
        prof = dh_profile(blocks)
        path = out / f"dh_{model.kind}_k{kdh}.csv"
        with path.open("w") as f:
            f.write("x,estimate,reference\n")
            for x, val, rho in zip(*prof.T, reference_rho(model, prof[:, 0])):
                f.write(f"{x:.17g},{val:.17g},{rho:.17g}\n")
        print(f"{model.kind}: DH kinks {np.round(detect_kinks(blocks), 3)} -> {path}")


if __name__ == "__main__":
    main()
