"""The three closed-loop workloads of the benchmark.

One caller runs one unit after another; each operation waits for the one
before it.  A workload makes its inputs once per run (``make_inputs``),
runs them as a unit (``run_unit``, the only timed part) and checks the
unit's outputs afterwards (``evaluate``).  Program calls go through module
attributes (``cli.main``, ``lattice.synth_lattice``) so that a traced unit
sees the wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
from pathlib import Path

import numpy as np

import semitoric.cli as cli
from semitoric import lattice
from semitoric.geometry import Rect
from semitoric.models import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.reference import reference_invariants
from semitoric.testing import random_chart

from checks import Check, circle_distance, labelling_mismatches, max_rel_diff

GOLDENS = Path(__file__).resolve().parent / "goldens"

MODELS = {
    "spin-oscillator": ModelSpec(SPIN_OSCILLATOR),
    "coupled": ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5),
}


@dataclasses.dataclass
class OpResult:
    """One operation of a unit: its error (None when it returned normally)
    and what the checks and the traced/untraced comparison need."""

    name: str
    error: str | None
    payload: object = None


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _golden(name: str):
    return json.loads((GOLDENS / name).read_text())


# ---------------------------------------------------------------------------
# CLI workloads

class CliWorkload:
    """Operations are ``semitoric`` CLI invocations, run in-process."""

    name = ""
    ops: tuple[tuple[str, list[str]], ...] = ()

    def make_inputs(self, seed: int):
        # Closed-form references exist only at the fixed model parameters,
        # so the seed does not change these inputs.
        return None

    def run_unit(self, inputs, out: Path) -> list[OpResult]:
        results = []
        for name, argv in self.ops:
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(argv + ["--out", str(out / name)])
            except Exception as exc:  # a raise is a failed operation
                results.append(OpResult(name, _failure(exc)))
                continue
            error = None if rc == 0 else f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
            results.append(OpResult(name, error))
        return results

    def fingerprint(self, results, out: Path) -> dict:
        """Every file the unit wrote, byte for byte."""
        files = {}
        for name, _ in self.ops:
            for path in sorted((out / name).rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(out))] = path.read_bytes()
        return files

    def evaluate(self, results, out: Path) -> list[tuple[str, str | None, list[Check]]]:
        return [(r.name, r.error, [] if r.error else self.op_checks(r.name, out / r.name))
                for r in results]

    def op_checks(self, name: str, out: Path) -> list[Check]:
        raise NotImplementedError

    def drift(self, out: Path) -> float:
        raise NotImplementedError


class Invariants(CliWorkload):
    name = "invariants"
    ops = tuple((m, ["invariants", "--model", m]) for m in MODELS)

    # (check, report path, reference key, budget): criteria 3 and 4
    CRITERIA = {
        "spin-oscillator": (
            ("dx_fr", ("fr_jet", "1,0"), "dx_fr", 0.05),
            ("dy_fr", ("fr_jet", "0,1"), "dy_fr", 0.1),
            ("sigma1_priv", ("S", "1,0"), "sigma1_priv", 0.05),
            ("S01", ("S", "0,1"), "S01", 0.05),
            ("S00", ("S", "0,0"), "S00", 0.1),
            ("dxdy_fr", ("quadratic_mixed", "dxdy_fr"), "dxdy_fr", 0.15),
            ("S11", ("quadratic_mixed", "S11"), "S11", 0.03),
        ),
        "coupled": (
            ("dx_fr", ("fr_jet", "1,0"), "dx_fr", 0.05),
            ("dy_fr", ("fr_jet", "0,1"), "dy_fr", 0.15),
            ("sigma1_priv", ("S", "1,0"), "sigma1_priv", 0.05),
            ("S01", ("S", "0,1"), "S01", 0.05),
            ("S00", ("S", "0,0"), "S00", 0.1),
        ),
    }

    def op_checks(self, name, out):
        report = json.loads((out / "invariants.json").read_text())
        ref = reference_invariants(MODELS[name])
        checks = []
        for label, (section, key), ref_key, budget in self.CRITERIA[name]:
            value = report[section][key]
            err = (circle_distance(value, ref[ref_key]) if ref_key == "sigma1_priv"
                   else abs(value - ref[ref_key]))
            checks.append(Check(f"{name} {label}", err, budget))
        return checks

    def drift(self, out):
        return max(max_rel_diff(json.loads((out / m / "invariants.json").read_text()),
                                _golden(f"invariants_{m}.json"))
                   for m in MODELS)


# criterion 7 sizes and Hausdorff budgets in multiples of hbar
POLYGON = {"spin-oscillator": (25, 6.0), "coupled": (20, 8.0)}
DH_K = 500


class Cartography(CliWorkload):
    name = "cartography"
    ops = tuple(
        [(f"polygon-{m}", ["polygon", "--model", m, "--k", str(k)])
         for m, (k, _) in POLYGON.items()]
        + [(f"dh-{m}", ["dh", "--model", m, "--k", str(DH_K)]) for m in MODELS]
    )
    # criterion 6: coupled slope changes (support ends included) and the
    # kinks that must be found; spin: the focus-focus kink
    COUPLED_KINKS = (-3.5, -1.5, 1.5, 3.5)
    DH_TARGETS = {"spin-oscillator": (1.0,), "coupled": (-1.5, 1.5)}

    def op_checks(self, name, out):
        kind, model = name.split("-", 1)
        if kind == "polygon":
            k, mult = POLYGON[model]
            rep = json.loads((out / "polygon_report.json").read_text())
            return [
                Check(f"{name} k", float(rep["k"] != k), 0.0),
                Check(f"{name} Hausdorff", rep["hausdorff_to_reference"], mult / k),
                Check(f"{name} vertices", max(rep["vertex_errors"], default=np.inf), 0.1),
            ]
        rep = json.loads((out / "dh_report.json").read_text())
        checks = [Check(f"{name} kink near {t}",
                        min((abs(x - t) for x in rep["kinks"]), default=np.inf), 0.2)
                  for t in self.DH_TARGETS[model]]
        if model == "coupled":
            prof = np.loadtxt(out / f"dh_profile_k{DH_K}.csv", delimiter=",",
                              skiprows=1, ndmin=2)
            x, est, theory = prof.T
            away = np.ones(len(x), dtype=bool)
            for c in self.COUPLED_KINKS:
                away &= np.abs(x - c) >= 0.3
            checks.append(Check(f"{name} sup error", float(np.abs(est - theory)[away].max()), 0.08))
        return checks

    def drift(self, out):
        return max(max_rel_diff(json.loads((out / f"{kind}-{m}" / f"{report}.json").read_text()),
                                _golden(f"{report}_{m}.json"))
                   for m in MODELS
                   for kind, report in (("polygon", "polygon_report"), ("dh", "dh_report")))


# ---------------------------------------------------------------------------
# synthetic lattices

def _shifted(g0, shift, xi):
    return np.asarray(g0(xi), float) + shift


def _anchor(chart):
    """Half-lattice seed point, as in criterion 2; None for a regular chart."""
    return np.asarray(chart.g0(np.array([0.0, 0.25])), float) if chart.half else None


def _label(cloud, anchor):
    """Half-lattice labelling from ``anchor``, or breadth-first transport
    from the affine basis at the centre of the cloud when it is None."""
    if anchor is not None:
        return lattice.label_half_lattice(cloud, anchor)
    basis = lattice.select_affine_basis(cloud, cloud.points.mean(axis=0))
    return lattice.label_regular(cloud, basis)


class LatticeSynth:
    """Synthetic charts labelled by the generic breadth-first route, the
    half-lattice route and a three-chart gluing.

    The charts are the six that acceptance criterion 2 draws (three
    regular, three half).  The seed translates each chart's image by a
    random vector and shuffles the order of the labelling operations; a
    labelling is translation invariant, so every seed keeps the checks
    meaningful.  Freshly drawn charts are not used because the labelling
    routes fail on a few percent of them (see ``KNOWN_DEFECTS``).
    """

    name = "lattice-synth"
    CHART_SEED = 20260811
    KS = (50, 100)
    GLUE_K = 100
    # x-extent fractions of the three glued charts, as in criterion 9
    GLUE_CUTS = ((None, 0.45), (0.30, 0.72), (0.55, None))

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(self.CHART_SEED)
        charts = [random_chart(rng) for _ in range(3)] + [random_chart(rng, half=True)
                                                          for _ in range(3)]
        draw = np.random.default_rng(seed)
        moved = []
        for chart in charts:
            shift = draw.uniform(-1.0, 1.0, 2)
            moved.append(dataclasses.replace(chart, g0=functools.partial(_shifted, chart.g0, shift)))
        ops = [(i, k) for i in range(len(moved)) for k in self.KS]
        order = draw.permutation(len(ops))
        return {
            "charts": moved,
            "ops": [ops[i] for i in order],
            "anchors": [_anchor(c) for c in moved],
            "glue_order": [int(i) for i in draw.permutation(len(self.GLUE_CUTS))],
        }

    def run_unit(self, inputs, out: Path) -> list[OpResult]:
        results = []
        for i, k in inputs["ops"]:
            name = f"chart{i}-k{k}"
            try:
                cloud = lattice.synth_lattice(inputs["charts"][i], k)
                lab = _label(cloud, inputs["anchors"][i])
            except Exception as exc:  # a raise is a failed operation
                results.append(OpResult(name, _failure(exc)))
                continue
            results.append(OpResult(name, None, (lab.assignment, cloud.true_labels)))
        results.append(self._glue(inputs))
        return results

    def _glue(self, inputs) -> OpResult:
        name = f"glue-chart0-k{self.GLUE_K}"
        try:
            cloud = lattice.synth_lattice(inputs["charts"][0], self.GLUE_K)
            xs = cloud.points[:, 0]
            lo, hi = float(xs.min()), float(xs.max())
            charts = []
            for j in inputs["glue_order"]:
                a, b = self.GLUE_CUTS[j]
                region = Rect(lo - 0.1 if a is None else lo + a * (hi - lo),
                              hi + 0.1 if b is None else lo + b * (hi - lo), -10.0, 10.0)
                lab = _label(cloud.restrict(region), None)
                orig = np.flatnonzero(region.contains(cloud.points))
                charts.append((region, lattice.Labelling(
                    {int(orig[i]): l for i, l in lab.assignment.items()})))
            glued = lattice.glue_global(cloud, charts)
        except Exception as exc:  # a raise is a failed operation
            return OpResult(name, _failure(exc))
        return OpResult(name, None, (glued.merged.assignment, cloud.true_labels))

    def fingerprint(self, results, out: Path) -> dict:
        return {r.name: (r.error, r.payload[0] if r.payload else None) for r in results}

    def evaluate(self, results, out: Path):
        return [(r.name, r.error,
                 [] if r.error else
                 [Check(f"{r.name} mislabelled", labelling_mismatches(*r.payload), 0.0)])
                for r in results]

    def drift(self, out: Path):
        # no seed-commit report: the labels are checked exactly instead
        return None


# Labelling failures found on freshly drawn charts at the seed commit:
# (name, chart kind, rng seed, index among that seed's draws of that kind, k).
KNOWN_DEFECTS = (
    ("label_regular corner points unreachable", "regular", 0, 2, 50),
    ("label_regular edge point unreachable", "regular", 60, 2, 100),
    ("label_regular transport inconsistency", "regular", 75, 2, 50),
    ("label_half_lattice refuses an admissible chart", "half", 18, 0, 50),
)


def known_defects() -> dict[str, str]:
    """Rerun each recorded failure; 'fixed' once the program labels it."""
    status = {}
    for name, kind, seed, index, k in KNOWN_DEFECTS:
        rng = np.random.default_rng(seed)
        chart = [random_chart(rng, half=kind == "half") for _ in range(index + 1)][index]
        cloud = lattice.synth_lattice(chart, k)
        try:
            lab = _label(cloud, _anchor(chart))
        except Exception as exc:  # the defect: record what was raised
            status[name] = "present: " + _failure(exc)
            continue
        wrong = labelling_mismatches(lab.assignment, cloud.true_labels)
        status[name] = "fixed" if wrong == 0 else f"present: {wrong} points mislabelled"
    return status


WORKLOADS = {w.name: w for w in (Invariants(), Cartography(), LatticeSynth())}
