"""Smoke tests of the two reproduction scripts, run as ``__main__``."""

import json
import runpy
import sys
from pathlib import Path

import pytest

import semitoric.pipeline

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_polygon_figures_writes_the_four_csvs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["polygon_figures.py", "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "polygon_figures.py"), run_name="__main__")
    headers = {
        "polygon_spin-oscillator_k25.csv": "u,v",
        "polygon_coupled-angular-momenta_k20.csv": "u,v",
        "dh_spin-oscillator_k200.csv": "x,estimate,reference",
        "dh_coupled-angular-momenta_k200.csv": "x,estimate,reference",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(headers)
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
    out = capsys.readouterr().out
    assert out.count("Hausdorff") == 2 and out.count("DH kinks") == 2


def test_reproduce_invariants_prints_both_models(tmp_path, monkeypatch, capsys,
                                                  spin_report, coupled_report):
    # the reports of the session's own recoveries stand in for a third run
    reports = {rep["model"]: rep for rep in (spin_report, coupled_report)}
    monkeypatch.setattr(semitoric.pipeline, "recover_all", lambda model: reports[model.kind])
    dump = tmp_path / "reports.json"
    monkeypatch.setattr(sys, "argv", ["reproduce_invariants.py", "--json", str(dump)])
    runpy.run_path(str(SCRIPTS / "reproduce_invariants.py"), run_name="__main__")
    out = capsys.readouterr().out
    for kind in reports:
        assert f"== {kind} ==" in out
    assert out.count("twisting number p =") == 2
    assert sorted(json.loads(dump.read_text())) == sorted(reports)


def _result(path, seed, commit, wall, correct=True):
    """A synthetic ``perfbench/run.py --trace 0`` result file."""
    metrics = {"wall_s": wall, "cpu_s": wall - 0.01, "peak_rss_mb": 80.0, "setup_s": 0.2}
    path.write_text(json.dumps({
        "summary": {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
                    "metrics": {m: {"value": v, "unit": "s"} for m, v in metrics.items()}},
        "environment": {"commit": commit, "src_sha256": commit, "workload": "cartography",
                        "seed": seed, "trace": 0, "nproc": 2, "seconds": 20.0,
                        "machine": "x86_64"},
    }))
    return str(path)


def test_bench_summary_pairs_runs_by_seed(tmp_path, monkeypatch, capsys):
    parent = [_result(tmp_path / f"p{s}.json", s, "abc", w)
              for s, w in ((3, 1.0), (1, 2.0), (2, 3.0), (4, 4.0))]
    change = [_result(tmp_path / f"c{s}.json", s, None, w, correct=s != 4)
              for s, w in ((1, 1.5), (2, 3.5), (3, 0.5), (4, 3.0))]
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_summary.py", "--what", "w", "--out", str(out),
                                      "--parent", *parent, "--change", *change])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "bench_summary.py"), run_name="__main__")
    assert done.value.code == 0
    record = json.loads(out.read_text())
    assert record["parent_commit"] == "abc"
    assert record["environment"] == {"nproc": 2, "seconds": 20.0, "machine": "x86_64"}
    w = record["workloads"]["cartography"]
    assert w["seeds"] == [1, 2, 3, 4] and w["pairs"] == 4
    assert w["wall_s_runs"] == {"parent": [2.0, 3.0, 1.0, 4.0], "change": [1.5, 3.5, 0.5, 3.0]}
    assert w["parent"]["wall_s"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert w["change_vs_parent_median"]["wall_s"] == (2.25 - 2.5) / 2.5
    assert w["change_wins"] == {"wall_s": "3/4", "cpu_s": "3/4", "peak_rss_mb": "0/4",
                                "setup_s": "0/4"}
    assert (w["parent"]["correct"], w["change"]["correct"]) == (True, False)
    assert (w["change"]["failed_ops"], w["change"]["attempted_ops"]) == (1, 16)

    # a seed on one side only pairs with nothing
    monkeypatch.setattr(sys, "argv", ["bench_summary.py", "--what", "w", "--out", str(out),
                                      "--parent", *parent, "--change", *change[:3]])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "bench_summary.py"), run_name="__main__")
    assert done.value.code == 2
    assert "seeds" in capsys.readouterr().err
