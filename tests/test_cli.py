import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semitoric
import semitoric.cli
import semitoric.models
import semitoric.pipeline
from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec, joint_spectrum
from semitoric.cli import main
from semitoric.config import ProbeConfig
from semitoric.errors import ConfigurationError
from semitoric.invariants import LabelledSpectrum, hbar_limit


def test_cli_startup_imports_no_scipy():
    # scipy is imported by the functions that use it, so starting the CLI
    # pays only for numpy
    code = ("import sys, semitoric.cli; semitoric.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(semitoric.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_polygon_imports_no_scipy_optimize(tmp_path):
    # the polygon check's translation is closed form, so no optimizer loads
    argv = ["polygon", "--model", "spin-oscillator", "--k", "12", "--out", str(tmp_path)]
    code = (f"import sys, semitoric.cli; semitoric.cli.main({argv!r}); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = dict(os.environ, PYTHONPATH=str(Path(semitoric.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_spectrum_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["spectrum", "--model", "coupled", "--k", "3", "--out", str(out)])
        assert rc == 0
    c1 = (out1 / "spectrum_k3.csv").read_text()
    c2 = (out2 / "spectrum_k3.csv").read_text()
    assert c1 == c2
    assert c1.startswith("k,x,y,block,idx\n")
    # the CSV is the spectrum's one copy: x and y round-trip bit for bit
    assert sorted(p.name for p in out1.iterdir()) == ["spectrum_k3.csv"]
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA)
    spec = joint_spectrum(model, 3, model.strip)
    rows = [line.split(",") for line in c1.splitlines()[1:]]
    assert [float(r[1]) for r in rows] == spec.x.tolist()
    assert [float(r[2]) for r in rows] == spec.y.tolist()


def test_label_csv(tmp_path):
    rc = main(["label", "--model", "coupled", "--k", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "labels_k5.csv").read_text().strip().split("\n")
    assert lines[0] == "k,x,y,j,l"
    assert len(lines) > 100


@pytest.mark.parametrize("model", ["spin-oscillator", "coupled"])
def test_spectrum_label_polygon_dh_run_on_both_models(tmp_path, model):
    for command in ("spectrum", "label", "polygon", "dh"):
        rc = main([command, "--model", model, "--k", "20", "--out", str(tmp_path / command)])
        assert rc == 0, command


@pytest.mark.parametrize("r1, r2, t, k, cut", [
    (1.0, 2.5, 0.5, 20, 17),
    (1.0, 2.5, 0.3, 20, 0),     # NoPeak: no focus-focus value is located
    # radii with no states at k = 200: the locate stage reads k = 207 and 210
    (1 / 3, 2 / 3, 0.5, 9, 2),
    (2 / 3, 5 / 3, 0.5, 30, 17),
], ids=["cut", "no-peak", "k9-locates-at-207", "k30-locates-at-210"])
def test_label_leaves_out_the_cut_above_the_focus_focus_value(tmp_path, r1, r2, t, k, cut):
    # the column transport would cross the cut, the focus-focus column
    # x0 = r1 - r2 at and above y0; with no value located nothing is cut.
    # The locate stage works at the smallest multiple of the smallest k
    # that is at least 200, on the grid of every radius the run accepts
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=r1, r2=r2, t=t)
    rc = main(["label", "--model", "coupled", "--r1", repr(r1), "--r2", repr(r2),
               "--t", repr(t), "--k", str(k), "--out", str(tmp_path)])
    assert rc == 0
    x = np.loadtxt(tmp_path / f"labels_k{k}.csv", delimiter=",", skiprows=1, usecols=1)
    spec = joint_spectrum(model, k, model.strip)
    x0 = r1 - r2
    assert len(x) == len(spec) - cut
    assert np.sum(np.abs(x - x0) < 1e-9) == np.sum(np.abs(spec.x - x0) < 1e-9) - cut > 0


@pytest.mark.parametrize("model, k", [
    (ModelSpec(SPIN_OSCILLATOR), 12),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.35), 20),
    (ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=0.5, r2=1.5, t=0.5), 20),
], ids=["spin-k12", "coupled-t0.5", "coupled-t0.35", "coupled-r1-0.5"])
def test_label_and_polygon_read_one_labelled_strip(tmp_path, model, k):
    # polygon fits the labels that label writes: one strip, one cut and one
    # column transport seeded at the strip's last column, so the polygon's
    # cloud is hbar (j, l) of the labelled points, with no translation
    rc = main(["label", "--model", model.kind, "--r1", repr(model.r1), "--r2", repr(model.r2),
               "--t", repr(model.t), "--k", str(k), "--out", str(tmp_path)])
    assert rc == 0
    rows = np.loadtxt(tmp_path / f"labels_k{k}.csv", delimiter=",", skiprows=1)
    x, labels = rows[:, 1], rows[:, 3:]
    est = semitoric.pipeline.polygon_run(model, k)
    cloud = (1.0 / k) * labels
    assert np.array_equal(cloud[np.lexsort(cloud.T[::-1])],
                          est.cloud[np.lexsort(est.cloud.T[::-1])])
    assert np.abs(x - cloud[:, 0] - est.x_translation).max() <= 1e-12


R23 = ["--model", "coupled", "--r1", repr(2 / 3), "--r2", repr(5 / 3)]


def test_polygon_and_invariants_locate_on_the_grid_of_the_smallest_k(tmp_path):
    # r1 = 2/3 has no states at k = 200 (2 k r1 = 266.67); these runs used
    # to exit 2 over a k their schedule never held
    rc = main(["polygon", *R23, "--k", "30", "--out", str(tmp_path / "p")])
    assert rc == 0
    report = json.loads((tmp_path / "p" / "polygon_report.json").read_text())
    assert report["hausdorff_to_reference"] <= report["hausdorff_budget"]
    rc = main(["invariants", *R23, "--k", "150", "--k", "300", "--k", "450",
               "--out", str(tmp_path / "i")])
    assert rc == 0
    report = json.loads((tmp_path / "i" / "invariants.json").read_text())
    assert report["focus_focus"][0] == -1.0


def per_value_csv(header, rows):
    """The reference CSV text: each value formatted on its own, a float
    (numpy's float64 is one) at .17g, any other value as its text."""
    lines = [",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
             for row in rows]
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize("rows", [
    [(1, 0.1, np.float64(-0.0), np.int64(7), "", 1e-300),
     (-3, -0.0, np.float64(0.1), np.int64(-2 ** 40), "", 2.5)],
    [(np.int64(0), np.float64(1e-300), 0.1, 3, "x", -0.0)] * 3,
    [(np.float64(np.nan), float("inf"), -1e300, 12345678901234567, np.float64(5e-324), "")],
    [],
], ids=["mixed", "repeated", "extremes", "empty"])
def test_write_csv_keeps_the_per_value_bytes(tmp_path, rows):
    path = tmp_path / "t.csv"
    semitoric.cli._write_csv(path, "a,b,c,d,e,f", iter(rows))
    assert path.read_text() == per_value_csv("a,b,c,d,e,f", rows)


def test_bad_model_exits_2(tmp_path, capsys):
    rc = main(["spectrum", "--model", "coupled", "--r2", "2.5", "--r1", "3.0",
               "--out", str(tmp_path)])
    assert rc == 2


def test_bad_schedule_exits_2(tmp_path):
    rc = main(["invariants", "--model", "coupled", "--x", "0.02", "--x", "0.02",
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("config", [
    {"model": "coupled", "k_list": [2]},
    {"model": "coupled", "probes": {"hbar_fit_order": 7}},
    None,
    {"model": "coupled-angular-momenta", "r1": "x"},
    {"probes": {"x_schedule": [0.02, "a"]}},
    {"probes": {"k_list": "abc"}},
    {"probes": {"x_taylor": [0.02, 0.01]}},
    {"probes": {"mu_list": [1.0, 1.0, 2.0]}},
    {"model": "spin"},
    {"probes": {"mu": 2.0}},
    {"probes": {"x_taylor": [0.06, 0.05, 0.04, 0.03, 0.02, -0.01]}},
    {"probes": {"x_taylor": [0.06, 0.05, 0.04, 0.03, 0.02, 0.0]}},
    {"probes": {"delta": 0.3}},
    {"probes": {"c_width": 2.0}},
    {"probes": {"mu_list": [1.0, 1.5, 1e300]}},
    {"probes": {"mu_list": [1.0, 1.5, -1e300]}},
    {"seed": -1},
    # no command draws a random chart any more, so seed is no key
    {"seed": 0},
], ids=["unknown-key", "unknown-probes-key", "missing-file", "string-r1",
        "string-in-x-schedule", "string-k-list", "short-x-taylor", "repeated-mu",
        "unknown-model", "removed-mu", "negative-x-taylor",
        "zero-x-taylor", "removed-delta", "removed-c-width", "huge-mu-list-entry",
        "huge-negative-mu-list-entry", "negative-seed", "removed-seed"])
def test_bad_config_file_exits_2(tmp_path, config):
    path = tmp_path / "run.json"
    if config is not None:
        path.write_text(json.dumps(config))
    rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2


def test_repeated_k_exits_2_before_solving(tmp_path, monkeypatch, capsys):
    # a repeated k would collapse to one row of the probe table while the
    # height kept both, so the schedule must be strictly ascending
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", no_solve)
    rc = main(["invariants", "--model", "spin-oscillator", "--k", "100", "--k", "100",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "strictly ascending" in capsys.readouterr().err


@pytest.mark.parametrize("ks", [["0"], ["-5", "100"]], ids=["zero", "negative"])
@pytest.mark.parametrize("command", ["invariants", "polygon", "dh"])
def test_k_below_one_exits_2_before_solving(tmp_path, monkeypatch, capsys, command, ks):
    # hbar = 1/k: a k below 1 is a configuration error, never a traceback
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", no_solve)
    flags = [arg for k in ks for arg in ("--k", k)]
    rc = main([command, *flags, "--model", "coupled", "--out", str(tmp_path)])
    assert rc == 2
    assert "k values must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command",
                         ["spectrum", "label", "invariants", "polygon", "dh"])
def test_out_not_a_directory_exits_2_before_solving(tmp_path, monkeypatch, capsys,
                                                    command, under):
    # --out naming a regular file, or a path under one, is a configuration
    # error, not a FileExistsError or NotADirectoryError traceback
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", no_solve)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "x" if under else afile
    rc = main([command, "--k", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: cannot create output directory {out}: ")
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("flags, product", [
    (["--k", "50", "--k", "100", "--k", "200", "--k", "300"], "min(x_schedule, x_taylor) = 0.5"),
], ids=["k50"])
def test_probe_finer_than_a_column_exits_2_before_solving(tmp_path, monkeypatch, capsys,
                                                          flags, product):
    # a probe within one column of x0 reads the critical column: this run
    # used to exit 0 with dy f_r = 2.63 against 2
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", no_solve)
    rc = main(["invariants", *flags, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: min(k_list) * ") and product in err


def test_x_schedule_above_x_taylor_names_both_schedules(tmp_path, monkeypatch, capsys):
    # the gradient's second offset 2 min(x_schedule) must lie within the
    # x_taylor span; the message names both schedules
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", no_solve)
    rc = main(["invariants", "--x", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "configuration error: 2 * min(x_schedule) = 1 must be at most max(x_taylor) = 0.12\n")


@pytest.mark.parametrize("argv, config", [
    (["invariants", "--x", "inf"], None),
    (["invariants", "--x", "nan"], None),
    (["invariants"], b'{"probes": {"mu": Infinity}}'),
    (["invariants"], b'{"probes": {"x_taylor": [Infinity, 0.1, 0.08, 0.06, 0.04, 0.02]}}'),
    (["invariants"], b'{"probes": {"mu": '),
    (["invariants"], b'\xff\xfe{}'),
    (["spectrum", "--model", "coupled", "--r1", "0.5", "--r2", "inf", "--k", "4"], None),
    (["polygon", "--model", "coupled", "--r1", "0.5", "--r2", "inf", "--k", "10"], None),
    # round(2 k r1) = 0: the first sphere has no states
    (["spectrum", "--model", "coupled", "--r1", "1e-10", "--r2", "1", "--k", "1"], None),
    (["dh", "--model", "coupled", "--r1", "1e-10", "--r2", "1", "--k", "1"], None),
    # 2 k r2 within 1e-9 of an integer, but a block's J values spread 5e-11
    (["spectrum", "--model", "coupled", "--r1", "0.5", "--r2", "1.0000000001", "--k", "1"],
     None),
    # 2 k r1 = 100.5 at the last k only: every k is checked before any solve
    (["invariants", "--model", "coupled", "--r1", "0.25", "--r2", "2.5",
      "--k", "100", "--k", "200", "--k", "201"], None),
    (["spectrum", "--model", "coupled", "--r1", "0.25", "--r2", "2.5",
      "--k", "4", "--k", "5"], None),
    (["label", "--model", "coupled", "--r1", "0.25", "--r2", "2.5",
      "--k", "4", "--k", "5"], None),
], ids=["x-inf", "x-nan", "config-mu-infinity", "config-x-taylor-infinity", "config-malformed",
        "config-not-text", "spectrum-r2-inf", "polygon-r2-inf", "spectrum-r1-no-states",
        "dh-r1-no-states", "spectrum-r2-off-grid", "invariants-r1-off-grid-at-last-k",
        "spectrum-r1-off-grid-at-last-k", "label-r1-off-grid-at-last-k"])
def test_bad_number_or_config_exits_2_before_solving(tmp_path, monkeypatch, capsys,
                                                     argv, config):
    # inf and nan pass every ordering check, so they are rejected as such
    # before the first eigensolve, not met later as an overflow
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", no_solve)
    if config is not None:
        (tmp_path / "run.json").write_bytes(config)
        argv = [*argv, "--config", str(tmp_path / "run.json")]
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_plain_value_error_is_not_a_configuration_error(tmp_path, monkeypatch, capsys):
    # exit 2 is kept for typed configuration errors; any other ValueError is
    # a fault of the program and keeps its traceback
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(semitoric.cli, "dh_profile", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["dh", "--model", "coupled", "--k", "20", "--out", str(tmp_path)])
    assert "configuration error" not in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # at t = 0.3 the critical column x0 = -1.5 shows no focus-focus peak
    rc = main(["invariants", "--model", "coupled", "--t", "0.3", "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: no interior spacing peak among the candidates\n")


def test_mixed_route_at_mu_zero_exits_3(tmp_path, capsys):
    # mu_list [0, -1, 3] is a valid 3-mu solve, but its mu nearest 1 is 0,
    # where the purely-mixed route's one-mu jet solve is singular
    (tmp_path / "run.json").write_text(json.dumps({"probes": {"mu_list": [0, -1, 3]}}))
    rc = main(["invariants", "--model", "coupled", "--k", "100", "--k", "200",
               "--config", str(tmp_path / "run.json"), "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: jet system condition inf\n"


def test_labelling_failure_exits_4(tmp_path, capsys):
    # at k = 1 the spin-oscillator's strip holds too few points to label
    rc = main(["label", "--model", "spin-oscillator", "--k", "1", "--out", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err == "labelling failure: only 4 points\n"


def test_label_rows_are_in_column_and_height_order(tmp_path):
    # the joint spectrum lists coupled blocks in descending x; the CSV rows
    # come in the labeller's (column, height) order: x nondecreasing, and y
    # ascending within each x
    model = ModelSpec(COUPLED_ANGULAR_MOMENTA)
    spec_x = joint_spectrum(model, 20, model.strip).x
    assert spec_x[0] > spec_x[-1]
    rc = main(["label", "--model", "coupled", "--k", "20", "--out", str(tmp_path)])
    assert rc == 0
    x, y = np.loadtxt(tmp_path / "labels_k20.csv", delimiter=",", skiprows=1, usecols=(1, 2)).T
    assert len(x) > 100
    assert np.all(np.diff(x) >= 0)
    same = np.diff(x) == 0
    assert np.all(np.diff(y)[same] > 0)


def test_synth_is_no_command(tmp_path):
    # a synthetic chart's labels are no invariant: the generic lattice
    # labellers run only in the library
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--k", "25", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_polygon_at_k3_reads_both_vertices(tmp_path):
    # at k = 3 the spin-oscillator's strip start, x = -0.8, lies only five
    # columns from its focus-focus value, x0 = 1; the chains need two
    # columns a segment, and the two vertices lie 0.50 hbar and
    # sqrt(5)/2 hbar from their references
    rc = main(["polygon", "--model", "spin-oscillator", "--k", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "polygon_report.json").read_text())
    assert report["vertex_errors"] == pytest.approx([np.sqrt(5) / 6, 1 / 6], abs=1e-12)


def test_recover_all_raises_configuration_error_before_solving(monkeypatch):
    # a library caller gets the typed error (still a ValueError), not a bare
    # ValueError, and no eigensolve runs first
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", no_solve)
    with pytest.raises(ConfigurationError, match="strictly ascending"):
        semitoric.pipeline.recover_all(ModelSpec(SPIN_OSCILLATOR),
                                       ProbeConfig(k_list=[200, 100]))


@pytest.mark.slow
def test_negative_mu_gets_the_x_cap_of_its_magnitude(monkeypatch):
    # the log-expansion fit of each mu reads offsets x with |mu| x within
    # max(x_taylor), so the probes (x, mu x) stay as close to the critical
    # value for mu = -2 as for mu = 2
    offsets = {}
    sample = semitoric.pipeline.g_mu_sample

    def recorded(family, mu, xs):
        offsets[mu] = list(xs)
        return sample(family, mu, xs)

    monkeypatch.setattr(semitoric.pipeline, "g_mu_sample", recorded)
    probes = ProbeConfig(k_list=[100, 200], x_schedule=[0.02, 0.01], mu_list=[2.0, 1.5, -2.0])
    semitoric.pipeline.recover_all(ModelSpec(SPIN_OSCILLATOR), probes)
    assert offsets[-2.0] == offsets[2.0] == [0.06, 0.05, 0.04, 0.03, 0.02, 0.01]


@pytest.mark.parametrize("argv", [
    # the height and the DH profile read exact columns, so no command
    # takes a strip width exponent
    ["invariants", "--delta", "0.3"],
    ["dh", "--delta", "0.3"],
    ["spectrum", "--x", "0.02"],
    ["label", "--mu", "2"],
    ["polygon", "--x", "0.02"],
    ["dh", "--mu", "2"],
    # the gradient reads x and 2 x, and --k states the whole schedule
    ["invariants", "--mu", "2"],
    ["label", "--k-max", "10"],
], ids=["invariants-delta", "dh-delta", "spectrum-x", "label-mu", "polygon-x", "dh-mu",
        "invariants-mu", "label-k-max"])
def test_a_command_refuses_a_flag_it_does_not_read(tmp_path, argv):
    # a flag a command would ignore is a usage error, not a silent no-op
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_dh_command(tmp_path):
    rc = main(["dh", "--model", "coupled", "--k", "60", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "dh_report.json").read_text())
    assert report["k"] == 60
    lines = (tmp_path / "dh_profile_k60.csv").read_text().strip().split("\n")
    assert lines[0] == "abscissa,estimate,theory"


@pytest.mark.parametrize("model, kinks", [("coupled", [-1.5, 1.5]), ("spin-oscillator", [1.0])])
def test_dh_reads_the_exact_columns(tmp_path, model, kinks):
    # one row per column of the DH range, one hbar apart: hbar times the
    # column's size is rho_J there, and the kinks are the model's, at a k
    # where the strip route used to report 12 (coupled) and 6 (spin)
    rc = main(["dh", "--model", model, "--k", "20", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "dh_report.json").read_text()) == {"k": 20, "kinks": kinks}
    x, est, theory = np.loadtxt(tmp_path / "dh_profile_k20.csv", delimiter=",",
                                skiprows=1).T
    assert np.allclose(np.diff(x), 1 / 20, rtol=0, atol=1e-12)
    assert np.abs(est - theory).max() <= 1e-12


@pytest.mark.parametrize("command, t, k", [
    *((c, t, k) for c in ("label", "polygon") for t in ("0.65", "0.7") for k in ("20", "40")),
    ("polygon", "0.6", "100"),
])
def test_coupled_label_and_polygon_above_t_0_6(tmp_path, capsys, command, t, k):
    # coupled (1, 5/2, t) beyond t = 0.6 (at k = 100 already at 0.6) is where
    # a row match between the two columns next to the cut found no agreement;
    # the closed-form column anchors read no rows, and the polygon fits as
    # well as at t = 0.5
    rc = main([command, "--model", "coupled", "--t", t, "--k", k, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    if command == "polygon":
        report = json.loads((tmp_path / "polygon_report.json").read_text())
        assert report["column_end_error"] <= 0.5 / int(k) + 1e-9
        assert max(report["vertex_errors"]) <= 0.1


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "coupled", "r1": 1.0, "r2": 2.5, "t": 0.5,
        "probes": {"k_list": [2]},
        "output_dir": str(tmp_path / "from_file"),
    }))
    rc = main(["spectrum", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "from_file" / "spectrum_k2.csv").exists()
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "flag_wins"),
               "--k", "3"])
    assert rc == 0
    assert (tmp_path / "flag_wins" / "spectrum_k3.csv").exists()


@pytest.mark.slow
def test_invariants_command_small(tmp_path, monkeypatch):
    families, solves, reads = [], [], set()
    # block window -> (probe number, k, abscissa, Sturm count) of each solve
    windows: dict[tuple, list] = {}
    build = semitoric.pipeline.build_probe_family
    solve = semitoric.models.eigs_sym_tridiagonal
    solve_window = semitoric.models.eigs_in_window
    count = semitoric.pipeline.sturm_count_below

    def counted(*args, **kwargs):
        families.append(build(*args, **kwargs))
        return families[-1]

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    probes, probing, read_in_probe, counts, window_reads, origin_reads = [], [], [], [], [], []
    a1a2 = LabelledSpectrum.a1a2_interpolated
    heights = semitoric.pipeline.BlockSpectrum._heights
    ladder = LabelledSpectrum.ladder

    def counted_probe(self, c):
        probes.append((self.k, float(c[0]), float(c[1])))
        probing.append([len(probes), self.k, float(c[0]), None])
        try:
            return a1a2(self, c)
        finally:
            probing.pop()

    def counted_count(*args, **kwargs):
        n = count(*args, **kwargs)
        if probing:
            probing[-1][3] = n
        counts.append(probing[-1][0] if probing else None)
        return n

    def counted_window(diag, offdiag, lo, hi):
        key = (diag.tobytes(), offdiag.tobytes(), lo, hi)
        windows.setdefault(key, []).append(tuple(probing[-1]) if probing else None)
        return solve_window(diag, offdiag, lo, hi)

    def counted_heights(self, j, lo, hi):
        (window_reads if probing else origin_reads).append((self.k, j, lo, hi))
        return heights(self, j, lo, hi)

    def counted_read(self, j):
        reads.add((self.k, j))
        if probing:
            read_in_probe.append((self.k, j))
        return ladder(self, j)

    monkeypatch.setattr(semitoric.pipeline, "build_probe_family", counted)
    monkeypatch.setattr(semitoric.models, "eigs_sym_tridiagonal", counted_solve)
    monkeypatch.setattr(semitoric.models, "eigs_in_window", counted_window)
    monkeypatch.setattr(semitoric.pipeline, "sturm_count_below", counted_count)
    monkeypatch.setattr(LabelledSpectrum, "a1a2_interpolated", counted_probe)
    monkeypatch.setattr(LabelledSpectrum, "ladder", counted_read)
    monkeypatch.setattr(semitoric.pipeline.BlockSpectrum, "_heights", counted_heights)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "spin-oscillator", "r1": 1.0, "r2": 2.5, "t": 0.5,
        "probes": {
            "k_list": [100, 200],
            "x_schedule": [0.02, 0.01],
            "x_taylor": [0.06, 0.05, 0.04, 0.03, 0.02, 0.01],
            "mu_list": [1.0, 1.5, 2.0],
        },
        "output_dir": str(tmp_path),
    }))
    rc = main(["invariants", "--config", str(cfg)])
    assert rc == 0
    report = json.loads((tmp_path / "invariants.json").read_text())
    for key in ("focus_focus", "fr_jet", "sigma1_0", "twisting_p", "S", "quadratic_mixed"):
        assert key in report
    assert len(families) == 1
    # sigma1 and S01 share one probe table: no probe is read twice
    assert probes and len(set(probes)) == len(probes)
    # the run solves one column whole, the locate stage's at k = 200; no
    # origin, height or probe reads a whole ladder
    assert not read_in_probe
    assert len(solves) == len(reads) == 1 and [k for k, _ in reads] == [200]
    # the k = 100 origin solves an index window of its critical column,
    # outside any probe, and its Sturm count falls outside a probe too; the
    # k = 200 origin is the located value and reads nothing.  The height
    # counts once per k
    assert origin_reads and {k for k, *_ in origin_reads} == {100}
    origin_windows = [key for key, by in windows.items() if by == [None]]
    assert len(origin_windows) == len(set(origin_reads))
    assert counts.count(None) == 1 + 2
    # a probe reads one Sturm count, and an index window in each of its two
    # columns (a third when column j + 1 is too short to share the rows
    # around the height).  Each window is solved once, inside the first
    # probe that reads it: a later probe of the same k and abscissa whose
    # height lies in the same row gap reads the same rows, and the kept solve
    assert [c for c in counts if c is not None] == list(range(1, len(probes) + 1))
    assert 2 * len(probes) <= len(window_reads) <= 3 * len(probes)
    probe_windows = [by for by in windows.values() if by != [None]]
    assert len(probe_windows) == len(set(window_reads)) < len(window_reads)
    assert all(len(by) == 1 and by[0] is not None for by in probe_windows)
    # the figures are the per-k samples behind the reported limits
    per_k = report["diagnostics"]["per_k"]
    assert per_k["k"] == [100, 200] and per_k["x"] == 0.01
    for name in ("dxfr", "dyfr", "sigma1", "S01", "height"):
        fig = (tmp_path / f"fig_{name}.csv").read_text().strip().split("\n")
        assert fig[0] == "abscissa,estimate,theory"
        rows = [line.split(",") for line in fig[1:]]
        assert [int(r[0]) for r in rows] == per_k["k"]
        assert [float(r[1]) for r in rows] == per_k[name]
    dx, _ = hbar_limit(per_k["k"], per_k["dxfr"])
    assert dx == pytest.approx(report["fr_jet"]["1,0"], rel=1e-10)


@pytest.mark.slow
def test_invariants_single_k_writes_strict_json(tmp_path):
    # with one k no convergence slope can be fitted; each is null, never
    # a bare -Infinity that strict JSON parsers reject
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rc = main(["invariants", "--model", "spin-oscillator", "--k", "200",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "invariants.json").read_text(), parse_constant=reject)
    slopes = report["diagnostics"]["convergence_slopes"]
    for name in ("gradient_hbar", "sigma1_hbar", "s01_hbar"):
        assert slopes[name] and all(v is None or v == [None, None]
                                    for v in slopes[name].values())
    assert slopes["height"] is None


@pytest.mark.slow
def test_polygon_command(tmp_path):
    rc = main(["polygon", "--model", "spin-oscillator", "--k", "20",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "polygon_report.json").read_text())
    assert report["hausdorff_to_reference"] < 10 * report["hausdorff_budget"]


@pytest.mark.parametrize("model, k", [("coupled", "10"), ("spin-oscillator", "12")])
def test_polygon_within_budget_where_the_distance_is_not_lowest_at_the_start(
        tmp_path, model, k):
    # small k, where each hbar step is coarsest: the Hausdorff distance at
    # the one closed-form translation of the column ends meets the budget
    rc = main(["polygon", "--model", model, "--k", k, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "polygon_report.json").read_text())
    assert report["hausdorff_to_reference"] <= report["hausdorff_budget"]
