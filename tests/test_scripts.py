"""Smoke tests of the two reproduction scripts, run as ``__main__``."""

import json
import runpy
import sys
from pathlib import Path

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
