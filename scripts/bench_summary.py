#!/usr/bin/env python3
"""Summarize benchmark result files of a parent and a change as one record.

    python scripts/bench_summary.py --what "..." --out bench.json \\
        --parent ../parent/perfbench/results/cartography-seed3*-trace0.json \\
        --change perfbench/results/cartography-seed3*-trace0.json

Each file is one ``perfbench/run.py --trace 0`` run.  Runs pair up by
workload and seed, so both sides must hold the same seeds of a workload.
For every end-to-end metric of ``BENCHMARK.json`` the record gives each
side's median and quartiles (inclusive method), the change's relative
difference of medians and the pairs where the change reads better; the
pairs' ``wall_s`` values are listed in seed order.  The runs must share
one environment (machine, versions, thread caps, run length).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# per-run fields of a result's environment; every other field must agree
PER_RUN = ("commit", "src_sha256", "workload", "seed", "trace")


def _load(paths) -> list[dict]:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    for p, run in zip(paths, runs):
        if run["environment"]["trace"] != 0:
            raise ValueError(f"{p}: a traced run has no end-to-end metrics")
    return runs


def _value(run, metric: str) -> float:
    return run["summary"]["metrics"][metric]["value"]


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _side(runs, metrics) -> dict:
    side = {m: _spread([_value(r, m) for r in runs]) for m in metrics}
    side["correct"] = all(r["summary"]["correct"] for r in runs)
    side["failed_ops"] = sum(r["summary"]["failed"] for r in runs)
    side["attempted_ops"] = sum(r["summary"]["attempted"] for r in runs)
    return side


def _by_workload(runs) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for run in runs:
        env = run["environment"]
        if env["seed"] in out.setdefault(env["workload"], {}):
            raise ValueError(f"two runs of {env['workload']} with seed {env['seed']}")
        out[env["workload"]][env["seed"]] = run
    return out


def _environment(runs) -> dict:
    env = {k: v for k, v in runs[0]["environment"].items() if k not in PER_RUN}
    for run in runs[1:]:
        other = {k: v for k, v in run["environment"].items() if k not in PER_RUN}
        if other != env:
            raise ValueError(f"runs from different environments: {env} and {other}")
    return env


def _commit(runs, side: str):
    commits = {r["environment"]["commit"] for r in runs}
    if len(commits) != 1:
        raise ValueError(f"{side} runs come from several commits: {sorted(map(str, commits))}")
    return commits.pop()


def summarize(parent_runs, change_runs, what: str, spec: dict) -> dict:
    """The record of the two lists of loaded result files."""
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = _by_workload(parent_runs), _by_workload(change_runs)
    if sorted(parent) != sorted(change):
        raise ValueError(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    env = _environment(parent_runs + change_runs)
    workloads = {}
    for name in sorted(parent):
        seeds = sorted(parent[name])
        if seeds != sorted(change[name]):
            raise ValueError(f"{name}: parent seeds {seeds}, change seeds {sorted(change[name])}")
        p = [parent[name][s] for s in seeds]
        c = [change[name][s] for s in seeds]
        p_side, c_side = _side(p, metrics), _side(c, metrics)
        wins = {m: sum(_value(y, m) < _value(x, m) if better == "lower" else
                       _value(y, m) > _value(x, m) for x, y in zip(p, c))
                for m, better in metrics.items()}
        workloads[name] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "parent": p_side,
            "change": c_side,
            "change_vs_parent_median": {
                m: (c_side[m]["median"] - p_side[m]["median"]) / p_side[m]["median"]
                for m in metrics},
            "change_wins": {m: f"{n}/{len(seeds)}" for m, n in wins.items()},
            "wall_s_runs": {"parent": [_value(r, "wall_s") for r in p],
                            "change": [_value(r, "wall_s") for r in c]},
        }
    return {
        "what": what,
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {env['seconds']:g} "
                    "--trace 0, parent and change run from separate checkouts"),
        "environment": env,
        "workloads": workloads,
        "note": ("Medians and quartiles over the listed seeds; change_wins counts "
                 "the pairs where the change read better."),
        "parent_commit": _commit(parent_runs, "parent"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--change", nargs="+", required=True, help="result files of the change")
    ap.add_argument("--what", required=True, help="the change being measured")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        record = summarize(_load(args.parent), _load(args.change), args.what, spec)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
