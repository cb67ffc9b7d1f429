"""Benchmark of the ``semitoric`` package: run one workload for a while and
print its metrics.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` of
that checkout, never from an installed copy.  The run

1. times ``import semitoric.cli`` plus building the parser in fresh
   interpreters (``setup_s``, the median of several);
2. makes the workload's inputs from ``--seed``;
3. runs units of the workload one after another until ``--seconds`` have
   passed (at least one), checking every operation of every unit;
4. with ``--trace 1``, runs one untraced unit for reference and then traced
   units, and reports per-module spans instead of end-to-end metrics;
5. writes everything, with an environment record, to
   ``perfbench/results/<workload>-seed<seed>-trace<t>.json`` and prints the
   summary as one JSON object on the last line of standard output.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("invariants", "cartography", "lattice-synth")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import semitoric.cli\n"
    "semitoric.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
MIN_COVERAGE = 0.95


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads(nproc: int) -> dict[str, str]:
    """At most ``nproc`` BLAS threads; must run before numpy is imported."""
    for var in BLAS_VARS:
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return {var: os.environ[var] for var in BLAS_VARS}


def measure_setup() -> list[float]:
    """Seconds to import ``semitoric.cli`` and build its parser, one fresh
    interpreter per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "semitoric").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, nproc: int, caps: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_caps": caps,
        "machine": platform.machine(),
        "commit": commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_unit(workload, inputs, out: Path):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    results = workload.run_unit(inputs, out)
    return time.perf_counter() - w0, time.process_time() - c0, results


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semitoric" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'semitoric'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    caps = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import semitoric

    if Path(semitoric.__file__).resolve().parent != SRC / "semitoric":
        print(f"error: imported semitoric from {semitoric.__file__}", file=sys.stderr)
        return 2
    from tracing import Recorder, span_cost
    from workloads import WORKLOADS, known_defects

    workload = WORKLOADS[args.workload]
    setup = measure_setup()
    inputs = workload.make_inputs(args.seed)
    out = HERE / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)

    ops = []            # (unit, op, error, [Check])

    def record(unit: str, results) -> None:
        for name, error, checks in workload.evaluate(results, out):
            ops.append((unit, name, error, checks))

    start = time.perf_counter()
    units = []
    traced = []
    if args.trace:
        ref_wall, _, results = timed_unit(workload, inputs, out)
        record("reference", results)
        reference = workload.fingerprint(results, out)
        while not traced or time.perf_counter() - start < args.seconds:
            rec = Recorder()
            with rec.installed():
                wall, _, results = timed_unit(workload, inputs, out)
            record(f"traced{len(traced)}", results)
            traced.append((wall, rec, workload.fingerprint(results, out) == reference))
    else:
        while not units or time.perf_counter() - start < args.seconds:
            wall, cpu, results = timed_unit(workload, inputs, out)
            record(f"unit{len(units)}", results)
            units.append((wall, cpu))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    drift = workload.drift(out)

    if args.trace:
        from checks import Check

        coverage = min(rec.top_s / wall for wall, rec, _ in traced)
        mismatched = sum(not same for _, _, same in traced)
        ops.append(("trace", "trace", None, [
            Check("traced outputs equal untraced (units differing)", mismatched, 0.0),
            Check("trace coverage shortfall below 0.95", max(0.0, MIN_COVERAGE - coverage), 0.0),
        ]))
        per_unit = [rec.metrics() for _, rec, _ in traced]
        measured = {name: statistics.fmean(m[name] for m in per_unit) for name in per_unit[0]}
        cost = span_cost()
        measured["trace.coverage"] = coverage
        measured["trace.overhead_frac"] = statistics.fmean(
            cost * sum(st[0] for st in rec.spans.values()) / wall for wall, rec, _ in traced)
        listed = spec["per_layer"]
    else:
        measured = {
            "wall_s": statistics.median(w for w, _ in units),
            "cpu_s": statistics.median(c for _, c in units),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        listed = spec["end_to_end"]
    unknown = [m["name"] for m in listed if m["name"] not in measured]
    if unknown:
        print(f"error: BENCHMARK.json lists metrics this benchmark does not measure: {unknown}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}

    failed_ops = [(u, n, e, [c for c in checks if not c.ok]) for u, n, e, checks in ops
                  if e or not all(c.ok for c in checks)]
    ratios = [c.ratio for _, _, _, checks in ops for c in checks]
    budget_use_max = float(max(ratios, default=0.0))
    summary = {
        "correct": not failed_ops and budget_use_max < 1.0,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    result = {
        "summary": summary,
        "environment": environment(args, nproc, caps),
        "failed_frac": len(failed_ops) / len(ops),
        "budget_use_max": budget_use_max,
        "report_max_rel_diff": drift,
        "failures": [{"unit": u, "op": n, "error": e,
                      "checks": [vars(c) | {"ratio": c.ratio} for c in bad]}
                     for u, n, e, bad in failed_ops],
        "checks": [vars(c) | {"ratio": c.ratio} for u, _, _, checks in ops
                   if u == ops[0][0] for c in checks],
        "setup_s_samples": setup,
        "all_metrics": measured,
    }
    if args.trace:
        result["unit_wall_s"] = {"reference": ref_wall, "traced": [w for w, _, _ in traced]}
        result["span_cost_s"] = cost
        result["spans_by_unit"] = [{name: stats for name, stats in rec.spans.items() if stats[0]}
                                   for _, rec, _ in traced]
    else:
        result["unit_wall_s"] = [w for w, _ in units]
        result["unit_cpu_s"] = [c for _, c in units]
    if workload.name == "lattice-synth":
        result["known_defects"] = known_defects()

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(_json_safe(result), indent=1, sort_keys=True))
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
