"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from semitoric import cli, invariants, lattice, models, pipeline, tridiag  # noqa: E402
from semitoric.invariants import counting  # noqa: E402
from semitoric.testing import random_chart  # noqa: E402

import run  # noqa: E402
from checks import labelling_mismatches  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS, LatticeSynth  # noqa: E402


def test_workload_names_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_self_time_on_synthetic_nest():
    # each clock reading advances one tick, so durations are exact
    rec = Recorder(clock=itertools.count().__next__)
    leaf = rec.wrap("leaf", lambda: None)
    inner = rec.wrap("inner", lambda: leaf())

    def outer_body():
        inner()
        inner()

    outer = rec.wrap("outer", outer_body)
    outer()
    # outer 0..9; inner 1..4 and 5..8; leaf 2..3 and 6..7
    assert rec.spans["leaf"] == [2, 2, 2, 0]
    assert rec.spans["inner"] == [2, 6, 4, 0]
    assert rec.spans["outer"] == [1, 9, 3, 0]
    assert rec.top_s == 9
    assert sum(s[2] for s in rec.spans.values()) == rec.top_s


def test_error_counted_and_span_closed():
    rec = Recorder(clock=itertools.count().__next__)

    def boom():
        raise ValueError("x")

    failing = rec.wrap("tridiag.boom", boom)
    outer = rec.wrap("models.outer", lambda: pytest.raises(ValueError, failing))
    outer()
    assert rec.spans["tridiag.boom"][0] == 1 and rec.spans["tridiag.boom"][3] == 1
    assert rec.metrics()["tridiag.errors"] == 1
    assert rec.top_s == rec.spans["models.outer"][1]


def _snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("semitoric"):
            continue
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if isinstance(obj, type):
                for m, fn in vars(obj).items():
                    snap[(name, attr, m)] = fn
    return snap


def test_every_binding_wrapped_then_restored():
    before = _snapshot()
    original = models.build_blocks
    rec = Recorder()
    with rec.installed():
        # callers that imported the name see the same wrapper as the definer
        assert models.build_blocks is not original
        assert pipeline.build_blocks is models.build_blocks
        assert models.eigs_sym_tridiagonal is tridiag.eigs_sym_tridiagonal
        assert (counting.dh_profile is invariants.dh_profile is pipeline.dh_profile
                is cli.dh_profile)
        assert hasattr(pipeline.ModelCounter.count, "__wrapped__")
        counter = pipeline.ModelCounter(models.ModelSpec(models.COUPLED_ANGULAR_MOMENTA), [4])
        n = counter.count(4, -1.0, 1.0)
    assert n > 0
    assert rec.spans["pipeline.ModelCounter.count"][0] == 1
    assert rec.spans["models.build_blocks"][0] == 1
    assert rec.metrics()["models.blocks_built"] > 0
    assert rec.spans["pipeline.ModelCounter"][0] == 1
    assert _snapshot() == before
    assert models.build_blocks is original
    assert not hasattr(pipeline.ModelCounter.count, "__wrapped__")


def test_traced_call_returns_untraced_result():
    cloud = lattice.synth_lattice(random_chart(np.random.default_rng(3)), 15)
    basis = lattice.select_affine_basis(cloud, cloud.points.mean(axis=0))
    plain = lattice.label_regular(cloud, basis).assignment
    rec = Recorder()
    with rec.installed():
        traced = lattice.label_regular(cloud, basis).assignment
    assert traced == plain
    assert rec.spans["lattice.label_regular"][0] == 1


def test_labelling_checker_rejects_shifted_labelling():
    chart = random_chart(np.random.default_rng(20260811))
    cloud = lattice.synth_lattice(chart, 20)
    truth = {i: (int(a), int(b)) for i, (a, b) in enumerate(cloud.true_labels)}
    assert labelling_mismatches(truth, cloud.true_labels) == 0
    # one integer unimodular affine map of the truth is still correct
    relabelled = lattice.Labelling(truth).compose_affine([[2, 1], [1, 1]], (-4, 7)).assignment
    assert labelling_mismatches(relabelled, cloud.true_labels) == 0
    # a column shifted by one row is not
    shifted = {i: (j, l + 1) if j == 3 else (j, l) for i, (j, l) in truth.items()}
    assert labelling_mismatches(shifted, cloud.true_labels) > 0
    # nor is a labelling that leaves a point out
    dropped = dict(truth)
    dropped.pop(0)
    assert labelling_mismatches(dropped, cloud.true_labels) == 1


def test_same_seed_same_lattice_inputs():
    wl = LatticeSynth()
    a, b, c = wl.make_inputs(7), wl.make_inputs(7), wl.make_inputs(8)
    probe = np.array([0.1, 0.2])

    def images(inputs):
        return np.array([ch.g0(probe) for ch in inputs["charts"]])

    assert a["ops"] == b["ops"] and a["glue_order"] == b["glue_order"]
    assert np.array_equal(images(a), images(b))
    assert not np.array_equal(images(a), images(c))


def test_lattice_unit_labels_every_point():
    wl = LatticeSynth()
    inputs = wl.make_inputs(0)
    # smallest size of the workload only, to stay quick
    inputs["ops"] = [op for op in inputs["ops"] if op[1] == min(wl.KS)]
    results = wl.run_unit(inputs, HERE)
    outcomes = wl.evaluate(results, HERE)
    assert [e for _, e, _ in outcomes] == [None] * len(outcomes)
    assert all(c.ok for _, _, checks in outcomes for c in checks)

