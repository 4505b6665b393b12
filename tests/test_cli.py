import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from seampde import cli, hifi, pod
from seampde.analysis import (
    block_error_norms,
    perturbation_quantity,
    reference_principal_eigenvalue,
)
from seampde.cli import RunConfig, execute, main, resolve_problem
from seampde.errors import DegenerateSnapshotError, EvaluationError, SolverFailure
from seampde.hifi import (
    SnapshotMatrix,
    discretize,
    load_snapshots,
    run_hifi,
    save_snapshots,
)
from seampde.pod import block_spectrum, eig_descending, gram
from seampde.seam import SeamSolution, run_parallel_seam, save_seam

from oracles import csv_writer_rendering, to_scipy


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def config_problem(path):
    return resolve_problem(RunConfig(config_path=str(path)))


@pytest.fixture(scope="module")
def heat1d_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("heat1d")
    code = run_cli("--scenario", "heat1d", "--mode", "parallel-seam",
                   "--out", str(out))
    assert code == 0
    return out


def test_heat1d_summary(heat1d_run):
    summary = read_json(heat1d_run / "summary.json")
    assert summary["schema"] == 1
    assert summary["reduction"] == "98:1"
    assert summary["dofs"] == 98
    assert summary["error_l2"] is not None and summary["error_l2"] <= 1e-6
    assert summary["lambda0_first"] > 0


def test_heat1d_artifacts(heat1d_run):
    for name in ("snapshots.bin", "seam.bin", "eigenvalues.csv", "error.csv",
                 "segments.csv", "summary.json"):
        assert (heat1d_run / name).exists(), name
    header = (heat1d_run / "eigenvalues.csv").read_text().splitlines()[0]
    assert header == "segment,index,eigenvalue"
    # T = 0.1, so no slice time in {0.25, ...} is reachable
    assert not list(heat1d_run.glob("slices_*"))


def test_unknown_scenario_exits_2_without_files(tmp_path):
    out = tmp_path / "nothing"
    code = run_cli("--scenario", "bogus", "--mode", "hifi", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_scenario_and_config_conflict(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"scenario": "heat1d"}))
    assert run_cli("--scenario", "heat1d", "--config", str(cfg)) == 2


MINI = {
    "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
    "u0": "x", "tau": 0.001, "T": 0.01, "m": 6,
    "segment_steps": 10, "segment_count": 1,
}


@pytest.mark.parametrize("config,flags", [
    pytest.param({**MINI, "dimension": 4, "alpha": ["1"] * 4, "m": 2}, [],
                 id="dimension-4"),
    pytest.param({**MINI, "segment_steps": -2, "segment_count": -2, "T": 0.001},
                 [], id="negative-segments"),
    pytest.param({**MINI, "segment_steps": 0, "segment_count": 3, "T": 0.002},
                 [], id="config-n-0"),
    pytest.param({"scenario": "s3", "m": 4, "n": 0}, [], id="scenario-n-0"),
    pytest.param({**MINI, "dimension": 2}, [], id="alpha-count"),
    pytest.param({**MINI, "m": 1}, [], id="config-m-1"),
    pytest.param(None, ["--m", "1"], id="flag-m-1"),
    pytest.param(None, ["--n", "0"], id="flag-n-0"),
    pytest.param(None, ["--tau", "0"], id="flag-tau-0"),
    pytest.param(None, ["--T", "0.5"], id="flag-T-mismatch"),
    pytest.param(None, ["--T", "inf"], id="flag-T-inf"),
    pytest.param(None, ["--T", "nan"], id="flag-T-nan"),
    pytest.param(None, ["--T", "0"], id="flag-T-0"),
    pytest.param(None, ["--T", "-0.1"], id="flag-T-negative"),
    pytest.param({**MINI, "n": 3}, [], id="config-explicit-n"),
    pytest.param({**MINI, "bogus": 1}, [], id="config-explicit-unknown-key"),
    pytest.param({"scenario": "heat1d", "n": 99.5}, [], id="scenario-n-fractional"),
    pytest.param({"scenario": "heat1d", "m": 6.9}, [], id="scenario-m-fractional"),
    pytest.param({"scenario": "s3", "segments": 2.5}, [],
                 id="scenario-segments-fractional"),
    pytest.param({"scenario": "heat1d", "n": True}, [], id="scenario-n-bool"),
    pytest.param({**MINI, "m": 6.9}, [], id="config-m-fractional"),
    pytest.param({**MINI, "dimension": 1.5}, [], id="config-dimension-fractional"),
    pytest.param({**MINI, "dimension": True}, [], id="config-dimension-bool"),
    pytest.param({**MINI, "segment_steps": 10.5}, [], id="config-n-fractional"),
    pytest.param({**MINI, "segment_count": 1.5}, [], id="config-segments-fractional"),
    pytest.param({**MINI, "m": "6"}, [], id="config-m-string"),
    pytest.param({**MINI, "c": 1}, [], id="config-c-number"),
    pytest.param({**MINI, "c": 0}, [], id="config-c-zero"),
    pytest.param({**MINI, "u0": None}, [], id="config-u0-null"),
    pytest.param({**MINI, "tau": True}, [], id="config-tau-bool"),
    pytest.param({**MINI, "tau": "1e-3"}, [], id="config-tau-string"),
    pytest.param({**MINI, "T": "0.01"}, [], id="config-T-string"),
    pytest.param({**MINI, "alpha": "2"}, [], id="config-alpha-string"),
    pytest.param({**MINI, "alpha": [2]}, [], id="config-alpha-number"),
    pytest.param({"scenario": "heat1d", "tau": True}, [], id="scenario-tau-bool"),
    pytest.param({"scenario": "heat1d", "T": "0.1"}, [], id="scenario-T-string"),
    # a T the file states must match the horizon the flags make
    pytest.param(MINI, ["--n", "9"], id="config-T-vs-flag-n"),
    pytest.param({"scenario": "s3", "m": 4, "T": 1.1}, ["--tau", "1e-3"],
                 id="scenario-config-T-vs-flag-tau"),
    # a variable the problem lacks was once read as 0, and alpha < 0 only warned
    pytest.param({**MINI, "f": "100*z"}, [], id="config-f-z-in-1d"),
    pytest.param({**MINI, "u0": "sin(pi*x)*(1+y)"}, [], id="config-u0-y-in-1d"),
    pytest.param({**MINI, "alpha": ["1+t"]}, [], id="config-alpha-t"),
    pytest.param({**MINI, "c": "t"}, [], id="config-c-t"),
    pytest.param({**MINI, "u0": "sin(pi*x)+t"}, [], id="config-u0-t"),
    pytest.param({**MINI, "alpha": ["-1"]}, [], id="config-alpha-negative"),
    pytest.param({**MINI, "alpha": ["x-0.5"], "m": 16}, [],
                 id="config-alpha-negative-in-part"),
    # --large sizes heat3d alone; elsewhere it was once silently ignored
    pytest.param(None, ["--large"], id="flag-large-heat1d"),
    pytest.param(MINI, ["--large"], id="config-explicit-large"),
    pytest.param({"scenario": "s3", "m": 4}, ["--large"], id="config-scenario-large"),
    # an empty path is a given path; it was once dropped as if not given
    pytest.param(None, ["--snapshots", ""], id="flag-snapshots-empty"),
    pytest.param(None, ["--config", ""], id="flag-config-empty-with-scenario"),
    pytest.param(MINI, ["--config", ""], id="flag-config-empty"),
    pytest.param(MINI, ["--scenario", ""], id="config-and-empty-scenario"),
    pytest.param(None, ["--scenario", ""], id="flag-scenario-empty"),
])
def test_bad_override_exits_2(tmp_path, monkeypatch, config, flags):
    def no_hifi(*args, **kwargs):
        raise AssertionError("hifi ran on a rejected problem")

    monkeypatch.setattr(cli, "step_blocks", no_hifi)
    if config is None:
        problem = ["--scenario", "heat1d"]
    else:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(config))
        problem = ["--config", str(path)]
    out = tmp_path / "out"
    assert run_cli(*problem, *flags, "--mode", "hifi", "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("config,flags,horizon", [
    (MINI, {"n": 9}, 0.009),
    ({"scenario": "s3", "m": 4, "T": 1.1}, {"tau": 1e-3}, 0.44),
])
def test_flags_that_move_a_stated_T_must_restate_it(tmp_path, capsys, config, flags,
                                                    horizon):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(config))
    argv = [f"--{key}={value}" for key, value in flags.items()]
    assert run_cli("--config", str(path), *argv, "--mode", "hifi",
                   "--out", str(tmp_path / "rejected")) == 2
    assert "horizon mismatch" in capsys.readouterr().err
    assert run_cli("--config", str(path), *argv, f"--T={horizon}", "--mode", "hifi",
                   "--out", str(tmp_path / "out")) == 0
    problem = resolve_problem(RunConfig(config_path=str(path), big_t=horizon, **flags))
    assert problem.T == pytest.approx(horizon, rel=1e-12)


@pytest.mark.parametrize("text", ["[1, 2]", '{"scenario": ["s1"]}'],
                         ids=["top-level-list", "scenario-list"])
def test_config_file_of_the_wrong_shape_exits_2_with_one_error_line(tmp_path, capsys,
                                                                    text):
    path = tmp_path / "p.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_missing_problem_exits_2():
    assert run_cli("--mode", "hifi") == 2


def test_parser_defaults_are_run_config_defaults():
    assert cli.config_from_args(cli.build_parser().parse_args([])) == RunConfig()


def test_config_file_run(tmp_path):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(pi*x)", "tau": 0.001, "T": 0.029, "m": 8,
        "segment_steps": 9, "segment_count": 3,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    summary = read_json(out / "summary.json")
    assert summary["scenario"] == "mini"
    assert summary["reduction"] == "7:1"
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 5  # header + 5 eigenvalues per segment


def test_hifi_mode_and_snapshot_reuse(tmp_path):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "1",
        "u0": "x*(1-x)", "tau": 0.001, "T": 0.02, "m": 6,
        "segment_steps": 20, "segment_count": 1,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out1 = tmp_path / "hifi_out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out1)) == 0
    assert (out1 / "snapshots.bin").exists()

    out2 = tmp_path / "seam_out"
    assert run_cli("--config", str(path), "--mode", "seam", "--out", str(out2),
                   "--snapshots", str(out1 / "snapshots.bin")) == 0
    summary = read_json(out2 / "summary.json")
    assert summary["hifi_seconds"] is None  # reused stored snapshots
    assert summary["error_l2"] is not None


def test_snapshot_reuse_dof_mismatch(tmp_path):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "x", "tau": 0.001, "T": 0.01, "m": 6,
        "segment_steps": 10, "segment_count": 1,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 0
    cfg["m"] = 8
    path.write_text(json.dumps(cfg))
    assert run_cli("--config", str(path), "--mode", "seam",
                   "--out", str(tmp_path / "out2"),
                   "--snapshots", str(out / "snapshots.bin")) == 2
    assert not (tmp_path / "out2").exists()


def test_snapshot_reuse_tau_mismatch(tmp_path, capsys):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "x", "tau": 0.001, "T": 0.01, "m": 6,
        "segment_steps": 10, "segment_count": 1,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 0
    # same column count and dofs, only the time step (and so the horizon) differs
    capsys.readouterr()
    assert run_cli("--config", str(path), "--mode", "seam", "--tau", "0.002",
                   "--T", "0.02", "--out", str(tmp_path / "out2"),
                   "--snapshots", str(out / "snapshots.bin")) == 2
    assert str(out / "snapshots.bin") in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize("mode", ["eigs", "parallel-seam", "hifi", "seam"])
def test_non_finite_snapshots_exit_2(tmp_path, monkeypatch, capsys, mode):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(pi*x)", "tau": 0.001, "T": 0.029, "m": 8,
        "segment_steps": 9, "segment_count": 3,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "hifi"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 0
    stored = load_snapshots(out / "snapshots.bin", config_problem(path))
    data = stored.data.copy()
    data[3, 15] = np.nan
    poisoned = tmp_path / "poisoned.bin"
    save_snapshots(SnapshotMatrix(data, stored.tau), poisoned)
    handles = []

    def tracked_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(hifi, "open", tracked_open, raising=False)
    result = tmp_path / f"{mode}-poisoned"
    capsys.readouterr()
    assert run_cli("--config", str(path), "--mode", mode, "--out", str(result),
                   "--snapshots", str(poisoned)) == 2
    columns = "0 to 29" if mode == "seam" else "10 to 19"  # the block with column 15
    assert capsys.readouterr().err == (f"error: {poisoned}: columns {columns} hold "
                                       "a non-finite value\n")
    assert not (result / "report.json").exists()
    assert not (result / "summary.json").exists()
    assert not list(result.glob("slices_*.csv"))
    assert handles and all(handle.closed for handle in handles)


def test_memory_error_exits_2_and_leaves_no_snapshot_file(tmp_path, monkeypatch, capsys):
    # a block too large to allocate; raised here, never allocated for real
    def unallocatable(problem, disc, columns):
        raise MemoryError("Unable to allocate 730. GiB for an array")
        yield

    monkeypatch.setattr(cli, "step_blocks", unallocatable)
    out = tmp_path / "out"
    assert run_cli("--scenario", "heat1d", "--mode", "hifi", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 730. GiB for an array\n"
    assert list(out.iterdir()) == []


def test_parallel_seam_solves_each_segment_once(tmp_path, monkeypatch):
    original = pod.eig_descending
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "seampde"
                and getattr(module, "eig_descending", None) is original):
            monkeypatch.setattr(module, "eig_descending", counted)
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(pi*x)", "tau": 0.001, "T": 0.029, "m": 8,
        "segment_steps": 9, "segment_count": 3,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    assert len(calls) == 3
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(segment), str(index)] for segment in range(3) for index in range(5)]


def test_parallel_seam_never_builds_the_dense_reduced_matrix(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("whole-run snapshot or reduced matrix built")

    for whole_run in (SnapshotMatrix, SeamSolution):
        monkeypatch.setattr(whole_run, "__post_init__", refuse)
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "1",
        "u0": "sin(pi*x)", "tau": 0.025, "T": 0.95, "m": 6,
        "segment_steps": 12, "segment_count": 3,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    for name in ("seam.bin", "error.csv", "slices_t0.25.csv", "summary.json"):
        assert (out / name).exists(), name
    assert run_cli("--config", str(path), "--mode", "bench", "--repeats", "1",
                   "--out", str(tmp_path / "bench")) == 0


def test_error_csv_matches_per_column_oracle(tmp_path):
    cfg = {
        "name": "mini2d", "dimension": 2, "alpha": ["1", "1"], "c": "1",
        "f": "x", "u0": "sin(pi*x)*sin(pi*y)*(1+y)", "tau": 0.001,
        "T": 0.029, "m": 7, "segment_steps": 9, "segment_count": 3,
    }
    path = tmp_path / "mini2d.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    problem = config_problem(path)
    mass = to_scipy(discretize(problem).mass)
    ref = load_snapshots(out / "snapshots.bin", problem).data
    red = load_snapshots(out / "seam.bin", problem).data
    abs_err = np.empty(ref.shape[1])
    ref_norm = np.empty(ref.shape[1])
    for j in range(ref.shape[1]):
        diff = ref[:, j] - red[:, j]
        abs_err[j] = np.sqrt(diff @ (mass @ diff))
        ref_norm[j] = np.sqrt(ref[:, j] @ (mass @ ref[:, j]))
    rows = np.loadtxt(out / "error.csv", delimiter=",", skiprows=1)
    assert rows.shape == (30, 3)
    np.testing.assert_allclose(rows[:, 0], 0.001 * np.arange(30), rtol=1e-15)
    np.testing.assert_allclose(rows[:, 1], abs_err, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rows[:, 2], abs_err / ref_norm, rtol=1e-12, atol=0)
    expected = np.sqrt(np.sum(abs_err**2) / np.sum(ref_norm**2))
    assert read_json(out / "summary.json")["error_l2"] == pytest.approx(
        expected, rel=1e-12)


@pytest.mark.parametrize("mode", ["hifi", "parallel-seam"])
def test_unevaluable_initial_data_exits_2(tmp_path, mode):
    # m=2 puts the only interior node at x=0.5, where u0 divides by zero
    cfg = {
        "name": "pole", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "1/(x-0.5)", "tau": 0.001, "T": 0.009, "m": 2,
        "segment_steps": 9, "segment_count": 1,
    }
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", mode, "--out", str(out)) == 2
    assert not (out / "summary.json").exists()


def test_all_zero_snapshots_exit_2(tmp_path):
    cfg = {
        "name": "zero", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "0", "tau": 0.001, "T": 0.019, "m": 6,
        "segment_steps": 9, "segment_count": 2,
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    for mode in ("parallel-seam", "eigs"):
        out = tmp_path / mode
        assert run_cli("--config", str(path), "--mode", mode, "--out", str(out)) == 2
        for name in ("snapshots.bin", "report.json", "summary.json"):
            assert not (out / name).exists(), (mode, name)


def test_eigs_mode(tmp_path):
    out = tmp_path / "eigs"
    cfg = {
        "name": "mini2", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(2*pi*x)", "tau": 0.0005, "T": 0.0215, "m": 10,
        "segment_steps": 10, "segment_count": 4,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("--config", str(path), "--mode", "eigs", "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert report["schema"] == 1
    assert len(report["segments"]) == 4
    assert "perturbation" in report
    assert (out / "eigenvalues.csv").exists()


def test_heat1d_eigs_writes_overflowed_values_as_decimal_text(tmp_path):
    out = tmp_path / "eigs"
    execute(RunConfig(scenario="heat1d", mode="eigs", out=str(out)))
    report = read_json(out / "report.json")
    problem = resolve_problem(RunConfig(scenario="heat1d"))
    assert problem.segment_count == 1
    snapshots = load_snapshots(out / "snapshots.bin", problem).data
    n, tau = problem.segment_steps, problem.tau
    reference = reference_principal_eigenvalue(snapshots[:, 0], report["norm_a"],
                                               tau, n)
    record = perturbation_quantity(block_spectrum(snapshots)[0], reference, n, tau)
    perturbation = report["perturbation"]
    for text, value in [(report["lambda0_reference"], reference),
                        (perturbation["quantity"], record["quantity"]),
                        (perturbation["ratio"], record["ratio"])]:
        assert isinstance(text, str) and re.fullmatch(r"\d\.\d+e\+\d+", text), text
        assert abs(np.longdouble(text) / value - 1) <= 1e-15, (text, value)


@pytest.mark.parametrize("value", [np.float32(1.0), object()])
def test_json_writer_rejects_other_types_without_a_file(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(path, {"value": value})
    assert not path.exists()


def test_snapshot_column_count_mismatch_exits_2(tmp_path):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "x", "tau": 0.001, "T": 0.01, "m": 6,
        "segment_steps": 10, "segment_count": 1,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 0
    # 11 stored columns, but the problem asks for 4 (same dofs and tau)
    cfg["segment_steps"] = 3
    cfg["T"] = 0.003
    path.write_text(json.dumps(cfg))
    for mode in ("hifi", "seam", "parallel-seam", "eigs"):
        result = tmp_path / mode
        assert run_cli("--config", str(path), "--mode", mode, "--out", str(result),
                       "--snapshots", str(out / "snapshots.bin")) == 2
        assert not result.exists()


@pytest.fixture(scope="module")
def eigs_1d_run(tmp_path_factory):
    """In-process eigs of a 1-D run stored as 20 segments of 100 columns
    (99 dofs, a 1.58 MB payload); returns the config and output paths."""
    root = tmp_path_factory.mktemp("eigs1d")
    cfg = {
        "name": "eigs1d", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(pi*x)", "tau": 1e-5, "T": 0.01999, "m": 100,
        "segment_steps": 99, "segment_count": 20,
    }
    path = root / "eigs1d.json"
    path.write_text(json.dumps(cfg))
    out = root / "out"
    assert run_cli("--config", str(path), "--mode", "eigs", "--out", str(out)) == 0
    return path, out


def test_eigs_from_a_stored_run_holds_one_segment_block(tmp_path, eigs_1d_run):
    path, out = eigs_1d_run
    payload = os.path.getsize(out / "snapshots.bin")
    tracemalloc.start()
    try:
        code = run_cli("--config", str(path), "--mode", "eigs", "--out",
                       str(tmp_path / "eigs"), "--snapshots", str(out / "snapshots.bin"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < payload / 2  # a whole-file read alone would exceed it


@pytest.fixture(scope="module")
def tall2d_run(tmp_path_factory):
    """A stored run of tall blocks (16,384 dofs x 21 columns, 2.75 MB) that
    outweigh the operators; a reaction-only problem (S = M) keeps the power
    iteration to two steps. Returns the config path, the snapshot file and
    the block size in bytes."""
    root = tmp_path_factory.mktemp("tall2d")
    cfg = {
        "name": "tall2d", "dimension": 2, "alpha": ["0", "0"], "c": "1", "f": "0",
        "u0": "sin(pi*x)*sin(pi*y)", "tau": 1e-4, "m": 129,
        "segment_steps": 20, "segment_count": 3,
    }
    path = root / "tall2d.json"
    path.write_text(json.dumps(cfg))
    execute(RunConfig(config_path=str(path), mode="hifi", out=str(root / "run")))
    return path, str(root / "run" / "snapshots.bin"), 8 * 128**2 * 21


def traced_peak(config: RunConfig) -> int:
    tracemalloc.start()
    try:
        execute(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_eigs_from_a_stored_run_holds_no_second_block(tmp_path, tall2d_run):
    path, snapshots, block_bytes = tall2d_run
    peak = traced_peak(RunConfig(config_path=str(path), mode="eigs",
                                 out=str(tmp_path / "eigs"), snapshots_path=snapshots))
    # 1.8 blocks when each block is dropped before the next is read;
    # 3.3 when the loops held the previous block while the next one was made
    assert peak < 2.5 * block_bytes


def test_stored_parallel_seam_forms_nothing_block_sized_beside_the_block(
        tmp_path, tall2d_run):
    path, snapshots, block_bytes = tall2d_run
    peak = traced_peak(RunConfig(config_path=str(path), mode="parallel-seam",
                                 out=str(tmp_path / "seam"), snapshots_path=snapshots))
    # 2.96 blocks: the block, the discretization (0.77 blocks) and three
    # 1 MiB chunk arrays (replay, scoring copy, M times that copy; 0.38
    # blocks each). 4.82 blocks while each of the three was block-sized; any
    # one of them block-sized again adds at least 0.6 blocks. Block and
    # operators alone are 1.77 blocks, so 1 MiB chunks cannot stay below 2.
    assert peak < 3.25 * block_bytes


@pytest.mark.parametrize("mode", ["seam", "parallel-seam", "eigs"])
def test_empty_snapshots_path_exits_2_before_hifi(tmp_path, monkeypatch, mode):
    def no_hifi(*args, **kwargs):
        raise AssertionError("hifi ran although --snapshots was given")

    monkeypatch.setattr(cli, "step_blocks", no_hifi)
    out = tmp_path / "out"
    assert run_cli("--scenario", "heat1d", "--mode", mode, "--snapshots", "",
                   "--out", str(out)) == 2
    assert not out.exists()


def check_spectrum_artifacts(path, eigs_out, seam_out) -> None:
    """parallel-seam on the eigs run's stored snapshots writes the same
    eigenvalues.csv and lambda0 summary values; its rows are the leading
    min(5, n+1) values of block_spectrum of each segment's block."""
    assert run_cli("--config", str(path), "--mode", "parallel-seam", "--out",
                   str(seam_out), "--snapshots", str(eigs_out / "snapshots.bin")) == 0
    written = (eigs_out / "eigenvalues.csv").read_bytes()
    assert (seam_out / "eigenvalues.csv").read_bytes() == written
    summaries = [read_json(out / "summary.json") for out in (eigs_out, seam_out)]
    for key in ("lambda0_first", "lambda0_last"):
        assert summaries[0][key] == summaries[1][key]
    problem = config_problem(path)
    data = load_snapshots(eigs_out / "snapshots.bin", problem).data
    spectra = [block_spectrum(block)[0]
               for block in np.hsplit(data, problem.segment_count)]
    lines = written.decode().splitlines()
    assert lines[0] == "segment,index,eigenvalue"
    rows = [line.split(",") for line in lines[1:]]
    head = min(5, problem.segment_steps + 1)
    assert [(int(k), int(i)) for k, i, _ in rows] == [
        (k, i) for k in range(problem.segment_count) for i in range(head)]
    for k, i, value in rows:
        assert float(value) == float(spectra[int(k)][int(i)])
    assert summaries[0]["lambda0_first"] == float(spectra[0][0])
    assert summaries[0]["lambda0_last"] == float(spectra[-1][0])


def test_eigs_and_parallel_seam_write_the_program_spectrum(tmp_path, eigs_1d_run):
    # 100 columns of 99 dofs: block_spectrum solves the rows' product
    path, out = eigs_1d_run
    check_spectrum_artifacts(path, out, tmp_path / "seam")


def test_spectrum_of_segments_shorter_than_the_head(tmp_path):
    cfg = {
        "name": "short", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(pi*x)", "tau": 0.001, "m": 8,
        "segment_steps": 2, "segment_count": 3,
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "eigs"
    assert run_cli("--config", str(path), "--mode", "eigs", "--out", str(out)) == 0
    check_spectrum_artifacts(path, out, tmp_path / "seam")
    # three values per segment, cut at n+1 rather than at five
    assert len((out / "eigenvalues.csv").read_text().splitlines()) == 1 + 3 * 3


def test_eigs_from_a_stored_run_matches_the_in_process_run(tmp_path, eigs_1d_run):
    path, out = eigs_1d_run
    stored = tmp_path / "eigs"
    assert run_cli("--config", str(path), "--mode", "eigs", "--out", str(stored),
                   "--snapshots", str(out / "snapshots.bin")) == 0
    for name in ("report.json", "eigenvalues.csv"):
        assert (stored / name).read_bytes() == (out / name).read_bytes()


def test_eigs_on_a_file_truncated_after_the_header_check_exits_2(
        tmp_path, monkeypatch, eigs_1d_run):
    path, out = eigs_1d_run
    copy = tmp_path / "snapshots.bin"
    shutil.copyfile(out / "snapshots.bin", copy)
    report = cli.build_spectral_report

    def truncate_then_report(*args, **kwargs):
        os.truncate(copy, os.path.getsize(copy) - 8)  # the last block reads short
        return report(*args, **kwargs)

    monkeypatch.setattr(cli, "build_spectral_report", truncate_then_report)
    result = tmp_path / "eigs"
    assert run_cli("--config", str(path), "--mode", "eigs", "--out", str(result),
                   "--snapshots", str(copy)) == 2
    assert not (result / "report.json").exists()
    assert not (result / "summary.json").exists()


def test_bench_mode(tmp_path, heat1d_run):
    out = tmp_path / "bench"
    code = run_cli("--scenario", "heat1d", "--mode", "bench", "--repeats", "2",
                   "--out", str(out))
    assert code == 0
    bench = read_json(out / "bench.json")
    assert len(bench["hifi_samples"]) == 2
    assert len(bench["online_samples"]) == 2
    # bench is the parallel-seam pass: the same files, byte for byte
    names = sorted(p.name for p in out.iterdir() if p.name != "bench.json")
    assert names == sorted(p.name for p in heat1d_run.iterdir())
    for name in names:
        if name != "summary.json":
            assert (out / name).read_bytes() == (heat1d_run / name).read_bytes(), name

    def untimed(summary):
        return {k: v for k, v in summary.items()
                if not k.endswith("_seconds") and k != "mode"}

    summary = read_json(out / "summary.json")
    assert untimed(summary) == untimed(read_json(heat1d_run / "summary.json"))
    assert summary["mode"] == "bench"
    assert {k: bench[k] for k in summary} == summary
    assert summary["hifi_seconds"] == np.median(bench["hifi_samples"])
    assert summary["seam_online_seconds"] == np.median(bench["online_samples"])
    assert bench["speedup_online"] > 0
    assert "machine" in bench and "note" in bench


def test_bench_rejects_repeats_before_compute(tmp_path, monkeypatch):
    def no_discretize(*args, **kwargs):
        raise AssertionError("discretize ran before --repeats was checked")

    monkeypatch.setattr(cli, "discretize", no_discretize)
    out = tmp_path / "bench"
    assert run_cli("--scenario", "heat1d", "--mode", "bench", "--repeats", "0",
                   "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("mode", ["bench", "hw-selftest"])
def test_snapshots_with_bench_or_hw_selftest_exits_2_before_compute(
        tmp_path, monkeypatch, capsys, mode):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before --snapshots was checked")

    monkeypatch.setattr(cli, "discretize", no_compute)
    monkeypatch.setattr(cli, "hoffman_wielandt_check", no_compute)
    out = tmp_path / "out"
    assert run_cli("--scenario", "heat1d", "--mode", mode, "--repeats", "1",
                   "--snapshots", str(tmp_path / "missing.bin"),
                   "--out", str(out)) == 2
    assert "--snapshots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--scenario", "s1", "--m", "8", "--tau", "5"], ["--config", "missing.json"],
    ["--m", "8"], ["--m", "0"], ["--tau", "5"], ["--T", "1"], ["--n", "3"],
    ["--f", "xy"], ["--large"],
], ids=lambda flags: " ".join(flags))
def test_problem_flags_with_hw_selftest_exit_2_before_compute(
        tmp_path, monkeypatch, capsys, flags):
    def no_compute(*args, **kwargs):
        raise AssertionError("the self-test ran before its flags were checked")

    monkeypatch.setattr(cli, "hoffman_wielandt_check", no_compute)
    out = tmp_path / "out"
    assert run_cli("--mode", "hw-selftest", *flags, "--out", str(out)) == 2
    named = [flag for flag in flags if flag.startswith("--")]
    assert f"--mode hw-selftest takes no {', '.join(named)}" in capsys.readouterr().err
    assert not out.exists()


def test_parallel_seam_on_a_file_of_the_wrong_magic_exits_2(tmp_path, capsys):
    path = tmp_path / "snapshots.bin"
    save_snapshots(SnapshotMatrix(np.ones((3, 11)), 1e-4), path)
    path.write_bytes(b"SEAMSNP0" + path.read_bytes()[8:])  # otherwise it matches
    out = tmp_path / "out"
    assert run_cli("--scenario", "heat1d", "--m", "4", "--n", "10",
                   "--mode", "parallel-seam", "--snapshots", str(path),
                   "--out", str(out)) == 2
    assert f"{path}: not a snapshot file" in capsys.readouterr().err
    assert not out.exists()


def test_hw_selftest_mode(tmp_path, capsys):
    out = tmp_path / "hw"
    assert run_cli("--mode", "hw-selftest", "--out", str(out)) == 0
    payload = read_json(out / "hw_selftest.json")
    assert payload["all_hold"] is True
    assert payload["pairs"] == 100
    assert "ok" in capsys.readouterr().out


def test_idempotent_numerical_outputs(tmp_path):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(pi*x)", "tau": 0.001, "T": 0.01, "m": 8,
        "segment_steps": 10, "segment_count": 1,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for _ in range(2):
        assert run_cli("--config", str(path), "--mode", "parallel-seam",
                       "--out", str(out)) == 0
        first = (out / "eigenvalues.csv").read_bytes()
        snaps = (out / "snapshots.bin").read_bytes()
    assert (out / "eigenvalues.csv").read_bytes() == first
    assert (out / "snapshots.bin").read_bytes() == snaps


def test_slices_written_when_horizon_allows(tmp_path):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "sin(pi*x)", "tau": 0.025, "T": 0.975, "m": 6,
        "segment_steps": 39, "segment_count": 1,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    for t in ("0.25", "0.5", "0.75"):
        slice_path = out / f"slices_t{t}.csv"
        assert slice_path.exists(), slice_path
        lines = slice_path.read_text().strip().splitlines()
        assert lines[0] == "x,hifi,seam"
        assert len(lines) == 1 + 5  # header + one row per interior node
    assert not (out / "slices_t1.0.csv").exists()  # horizon ends at 0.975


def test_slice_fields_are_plain_numbers(tmp_path):
    cfg = {
        "name": "mini2d", "dimension": 2, "alpha": ["1", "1"], "c": "0",
        "f": "x", "u0": "sin(pi*x)*sin(pi*y)", "tau": 0.025, "T": 0.95,
        "m": 5, "segment_steps": 12, "segment_count": 3,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    problem = config_problem(path)
    points = discretize(problem).mesh.interior_nodes()
    reference = load_snapshots(out / "snapshots.bin", problem).data
    reduced = load_snapshots(out / "seam.bin", problem).data
    for t in (0.25, 0.5, 0.75):
        raw = (out / f"slices_t{t}.csv").read_bytes()
        assert raw.count(b"\r\n") == 1 + len(points)
        lines = raw.decode().splitlines()
        assert lines[0] == "x,y,hifi,seam"
        values = np.array([[float(field) for field in line.split(",")]
                           for line in lines[1:]])
        index = round(t / cfg["tau"])
        np.testing.assert_array_equal(values[:, :2], points)
        np.testing.assert_array_equal(values[:, 2], reference[:, index])
        np.testing.assert_array_equal(values[:, 3], reduced[:, index])


def test_overflowing_initial_data_exits_2(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**MINI, "u0": "1e308*(1+x)"}))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 2
    assert not (out / "snapshots.bin").exists()


@pytest.mark.parametrize("key,value,mode", [
    pytest.param("c", "exp(1000*x)", "hifi", id="c-exp(1000*x)"),
    pytest.param("alpha", ["exp(1000*x)"], "hifi", id="alpha-value1"),
    pytest.param("f", "exp(1000*x)", "hifi", id="f-hifi"),
    pytest.param("f", "exp(1000*x)", "parallel-seam", id="f-parallel-seam-snapshots"),
    # finite at t = 0, infinite from the first step on
    pytest.param("f", "exp(1000000*x*t)", "hifi", id="f-time-dependent-hifi"),
])
def test_overflowing_coefficient_exits_2(tmp_path, key, value, mode):
    # an infinite operator or load entry would otherwise reach CG as a NaN
    # residual, or, against stored snapshots, an infinite error
    path = tmp_path / "p.json"
    flags = []
    if mode == "parallel-seam":
        path.write_text(json.dumps(MINI))
        stored = tmp_path / "f0"
        assert run_cli("--config", str(path), "--mode", "hifi",
                       "--out", str(stored)) == 0
        flags = ["--snapshots", str(stored / "snapshots.bin")]
    path.write_text(json.dumps({**MINI, key: value}))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", mode, *flags,
                   "--out", str(out)) == 2
    assert not (out / "snapshots.bin").exists()
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("u0,f,mode", [
    pytest.param("0", "1e300*x", "hifi", id="f-from-zero"),
    pytest.param("x", "1e300*x", "hifi", id="f-hifi"),
    pytest.param("x", "1e300*x", "parallel-seam", id="f-parallel-seam"),
    pytest.param("x", "1e300*x", "eigs", id="f-eigs"),
    pytest.param("1e200*x", "0", "hifi", id="u0"),
    pytest.param("x", "1e150*x*exp(10000*t)", "hifi", id="f-at-step-2"),
])
def test_overflowing_load_or_initial_vector_exits_2(tmp_path, u0, f, mode):
    # every entry is finite, but not the squared 2-norm that CG forms: from
    # u0 = 0 the run was once accepted as all zeros, else it exited 3
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**MINI, "u0": u0, "f": f}))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", mode, "--out", str(out)) == 2
    assert not (out / "snapshots.bin").exists()
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("overrides,named", [
    pytest.param({"f": "1e300*x"}, "load vector of f = '1e300*x'", id="f-1e300*x"),
    pytest.param({"c": "exp(1000*x)"}, "reaction coefficient c = 'exp(1000*x)'",
                 id="c-exp(1000*x)"),
    pytest.param({"alpha": ["exp(1000*x)"]},
                 "diffusion coefficient alpha[0] = 'exp(1000*x)'", id="alpha-value2"),
    pytest.param({"u0": "1e200*x"}, "initial data u0 = '1e200*x'", id="u0-1e200*x"),
    pytest.param({"f": "100*z"}, "f = '100*z' uses z", id="f-z-in-1d"),
    pytest.param({"u0": "sin(pi*x)*(1+y)"}, "uses y", id="u0-y-in-1d"),
    pytest.param({"alpha": ["1+t"]}, "alpha = '1+t' uses t", id="alpha-t"),
    pytest.param({"c": "t"}, "c = 't' uses t", id="c-t"),
    pytest.param({"u0": "sin(pi*x)+t"}, "uses t", id="u0-t"),
    pytest.param({"alpha": ["-1"]}, "coefficient -1 is negative", id="alpha-negative"),
    pytest.param({"alpha": ["x-0.5"], "m": 16}, "coefficient x-0.5 is negative",
                 id="alpha-negative-in-part"),
    # a division by zero is an infinity or a NaN that the finiteness check
    # names, at a node, at a centroid or at a step's t
    pytest.param({"u0": "0^(-1)"}, "initial data u0 = '0^(-1)' is not finite",
                 id="u0-0^(-1)"),
    pytest.param({"alpha": ["(x-0.25)^(-2)"]},
                 "alpha[0] = '(x-0.25)^(-2)' is not finite at every centroid",
                 id="alpha-pole"),
    pytest.param({"u0": "1/(x-0.5)"}, "initial data u0 = '1/(x-0.5)' is not finite",
                 id="u0-1/(x-0.5)"),
    pytest.param({"c": "1/(x-0.25)"},
                 "reaction coefficient c = '1/(x-0.25)' is not finite at every centroid",
                 id="c-1/(x-0.25)"),
    pytest.param({"f": "t/(t-0.002)"}, "source term f = 't/(t-0.002)' is not finite "
                 "at every centroid at t = 0.002", id="f-pole-at-step-2"),
    pytest.param({"f": "1/0"}, "source term f = '1/0' is not finite", id="f-1/0"),
])
def test_overflowing_input_prints_one_error_line(tmp_path, overrides, named):
    # NumPy's overflow or divide RuntimeWarning, naming a source line of the
    # package, was once printed before the error line, as was the UserWarning
    # that a negative alpha once raised; a division by zero once printed only
    # "error: division by zero"
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**MINI, **overrides}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "seampde.cli", "--config", str(path), "--mode", "hifi",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and named in line


def test_runs_import_neither_scipy_nor_scipy_sparse(tmp_path):
    # the DIA kernels are loaded from their extension file: importing
    # scipy.sparse cost most of a small run's set-up time and about 21 MB
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = [["--scenario", "s1", "--m", "8", "--mode", "parallel-seam"],
            ["--scenario", "heat1d", "--mode", "eigs"]]
    code = ("import sys\n"
            "from seampde.cli import main\n"
            f"for k, args in enumerate({runs!r}):\n"
            f"    assert main(args + ['--out', {str(tmp_path)!r} + f'/{{k}}']) == 0\n"
            "print(sorted({'scipy', 'scipy.sparse'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_wide_seam_run_reports_the_column_gram_lambda0(tmp_path):
    # 20 dofs x 400 columns: the run solves the 20 x 20 product X X^T
    cfg = {
        "name": "wide1d", "dimension": 1, "alpha": ["1"], "c": "0", "f": "1",
        "u0": "sin(pi*x)", "tau": 1e-3, "m": 21, "segment_steps": 399,
        "segment_count": 1,
    }
    path = tmp_path / "wide1d.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "seam", "--out", str(out)) == 0
    snapshots = load_snapshots(out / "snapshots.bin", config_problem(path)).data
    assert snapshots.shape == (20, 400)
    reference = eig_descending(gram(snapshots))[0][0]
    lambda0 = float((out / "segments.csv").read_text().splitlines()[1].split(",")[1])
    assert abs(lambda0 - reference) <= 1e-13 * reference


def test_non_finite_summary_value_exits_2_without_summary(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "space_time_error", lambda *args: float("inf"))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(MINI))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 2
    assert (out / "seam.bin").exists()  # the run got as far as its last write
    assert not (out / "summary.json").exists()


def test_heat3d_defaults_to_desk_scale(tmp_path):
    problem = resolve_problem(RunConfig(scenario="heat3d"))
    assert problem.divisions == 16
    problem = resolve_problem(RunConfig(scenario="heat3d", large=True))
    assert problem.divisions == 32
    problem = resolve_problem(RunConfig(scenario="heat3d", m=20))
    assert problem.divisions == 20
    # a config file names the same problem as the flags, so it gets the same size
    path = tmp_path / "heat3d.json"
    path.write_text(json.dumps({"scenario": "heat3d"}))
    assert config_problem(path).divisions == 16
    problem = resolve_problem(RunConfig(config_path=str(path), large=True))
    assert problem.divisions == 32
    problem = resolve_problem(RunConfig(config_path=str(path), m=20))
    assert problem.divisions == 20
    for large in (False, True):
        path.write_text(json.dumps({"scenario": "heat3d", "m": 24}))
        problem = resolve_problem(RunConfig(config_path=str(path), large=large))
        assert problem.divisions == 24


def test_resolve_overrides_adjust_horizon():
    problem = resolve_problem(RunConfig(scenario="heat1d", tau=4e-4, n=100))
    assert problem.segment_steps == 100
    assert problem.num_steps == 100
    assert problem.T == pytest.approx(100 * 4e-4)


def test_summary_prints_one_line(tmp_path, capsys):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "x*(1-x)", "tau": 0.001, "T": 0.01, "m": 5,
        "segment_steps": 10, "segment_count": 1,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(tmp_path / "o")) == 0
    line = capsys.readouterr().out.strip()
    assert "mini [parallel-seam]" in line
    assert "dofs 4:1" in line


STREAMED = {
    "name": "streamed", "dimension": 2, "alpha": ["1", "1+x"], "c": "1",
    "f": "x", "u0": "sin(pi*x)*sin(pi*y)*(1+y)", "tau": 0.025, "m": 7,
    "segment_steps": 12, "segment_count": 3,
}


def whole_matrix_artifacts(problem, out):
    """The artifacts of a parallel-seam run, made in process from the whole
    snapshot matrix."""
    disc = discretize(problem)
    snapshots = run_hifi(problem, disc)
    solution = run_parallel_seam(snapshots, disc.mass, disc.stiffness, disc.load,
                                 segment_steps=problem.segment_steps)
    out.mkdir()
    save_snapshots(snapshots, out / "snapshots.bin")
    save_seam(solution, out / "seam.bin")
    cli._write_csv(out / "segments.csv", ("segment", "lambda0", "system_coeff",
                                          "mass_coeff", "alpha0"), [
        (k, float(model.eigenvalues[0]), model.system_coeff,
         model.mass_coeff, model.alpha0) for k, model in enumerate(solution.models)])
    norms = block_error_norms(snapshots.data, solution.to_matrix(), disc.mass)
    cli._write_csv(out / "error.csv", ("t", "abs_error", "rel_error"),
                   cli._error_rows(problem.tau, *norms))


@pytest.mark.parametrize("f", ["x", "x*(1+10*t)"])
def test_streamed_run_equals_the_whole_matrix_oracle(tmp_path, f):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**STREAMED, "f": f}))
    out = tmp_path / "cli"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    oracle = tmp_path / "oracle"
    whole_matrix_artifacts(config_problem(path), oracle)
    for name in ("snapshots.bin", "seam.bin", "error.csv", "segments.csv"):
        assert (out / name).read_bytes() == (oracle / name).read_bytes(), name

    stored = tmp_path / "stored"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--snapshots", str(out / "snapshots.bin"),
                   "--out", str(stored)) == 0
    slices = sorted(p.name for p in out.glob("slices_t*.csv"))
    assert len(slices) == 3  # t = 0.25, 0.5 and 0.75 of T = 0.95
    for name in ["seam.bin", "error.csv", "segments.csv", *slices]:
        assert (stored / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["parallel-seam", "hifi", "eigs"])
def test_csv_artifacts_are_what_csv_writer_writes(tmp_path, mode):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(STREAMED))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", mode, "--out", str(out)) == 0
    written = sorted(out.glob("*.csv"))
    expected = {"parallel-seam": 6, "hifi": 3, "eigs": 1}[mode]  # 3 slice files
    assert len(written) == expected, written
    for csv_path in written:
        assert csv_path.read_bytes() == csv_writer_rendering(csv_path), csv_path.name


def test_streamed_parallel_seam_holds_one_segment_block(tmp_path):
    cfg = {
        "name": "long1d", "dimension": 1, "alpha": ["1"], "c": "0", "f": "1",
        "u0": "sin(pi*x)", "tau": 1e-5, "m": 100, "segment_steps": 99,
        "segment_count": 40,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    problem = config_problem(path)
    matrix_bytes = 8 * problem.num_dofs * (problem.num_steps + 1)  # 3.17 MB
    tracemalloc.start()
    try:
        execute(RunConfig(config_path=str(path), out=str(tmp_path / "out")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert os.path.getsize(tmp_path / "out" / "snapshots.bin") > matrix_bytes
    assert peak < matrix_bytes / 2  # the whole snapshot matrix alone exceeds it


def one_live_block(source):
    """Wrap a block source so that, each time it yields the next block, every
    block passed on before is asserted dead (a tracemalloc peak cannot tell
    a second live block from the replay and error temporaries of one)."""
    def passed_on(blocks):
        earlier = []
        for block in blocks:
            assert all(ref() is None for ref in earlier), "an earlier block is alive"
            earlier.append(weakref.ref(block))
            yield block
            del block

    return lambda *args, **kwargs: passed_on(source(*args, **kwargs))


@pytest.mark.parametrize("mode,stored", [
    pytest.param(mode, stored, id=f"{mode}-{'stored' if stored else 'computed'}")
    for mode in ("hifi", "eigs", "parallel-seam") for stored in (False, True)
] + [pytest.param("bench", False, id="bench-computed")])
def test_streamed_modes_drop_each_block_before_the_next(tmp_path, monkeypatch,
                                                        mode, stored):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(STREAMED))
    snapshots = None
    if stored:
        execute(RunConfig(config_path=str(path), mode="hifi", out=str(tmp_path / "run")))
        snapshots = str(tmp_path / "run" / "snapshots.bin")
    monkeypatch.setattr(cli, "step_blocks", one_live_block(cli.step_blocks))
    monkeypatch.setattr(cli, "read_snapshot_blocks",
                        one_live_block(cli.read_snapshot_blocks))
    execute(RunConfig(config_path=str(path), mode=mode, out=str(tmp_path / "out"),
                      snapshots_path=snapshots, repeats=2))


def test_solver_failure_mid_stream_leaves_no_snapshot_files(tmp_path, monkeypatch):
    solve = hifi.cg_solve
    calls = []

    def fail_in_second_segment(*args, **kwargs):
        calls.append(1)
        if len(calls) > STREAMED["segment_steps"] + 1:
            raise SolverFailure("conjugate gradients did not converge", 1.0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(hifi, "cg_solve", fail_in_second_segment)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(STREAMED))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 3
    for name in ("snapshots.bin", "seam.bin", "summary.json"):
        assert not (out / name).exists(), name


@pytest.mark.parametrize("source,error", [
    ("load-overflows-in-segment-3", EvaluationError),
    ("stored-nan-in-segment-2", ValueError),
    ("all-zero-first-block", DegenerateSnapshotError),
])
def test_failure_mid_stream_removes_snapshot_files_before_it_propagates(
        tmp_path, source, error):
    path = tmp_path / "p.json"
    stored = None
    if source == "stored-nan-in-segment-2":
        path.write_text(json.dumps(STREAMED))
        assert run_cli("--config", str(path), "--mode", "hifi",
                       "--out", str(tmp_path / "hifi")) == 0
        data = load_snapshots(tmp_path / "hifi" / "snapshots.bin",
                              config_problem(path)).data.copy()
        data[3, 20] = np.nan
        stored = str(tmp_path / "poisoned.bin")
        save_snapshots(SnapshotMatrix(data, STREAMED["tau"]), stored)
    elif source == "all-zero-first-block":  # the reduction fails, not the source
        path.write_text(json.dumps({**STREAMED, "u0": "0", "f": "0"}))
    else:  # zero to round-off up to t = 0.8, infinite from the next step on
        path.write_text(json.dumps({**STREAMED, "f": "exp(1000000*x*(t-0.8))"}))
    out = tmp_path / "out"
    with pytest.raises(error) as raised:
        execute(RunConfig(config_path=str(path), out=str(out), snapshots_path=stored))
    # ``raised`` keeps the traceback, and with it the run's frames, alive
    for name in ("snapshots.bin", "seam.bin", "summary.json"):
        assert not (out / name).exists(), name
    assert raised.traceback


def test_a_run_that_rewrites_its_snapshot_file_writes_what_a_copy_gives(tmp_path):
    # the slices' hifi columns come from the blocks read, not from the file
    # after the run has replaced it
    path = tmp_path / "p.json"
    path.write_text(json.dumps(STREAMED))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    copy = tmp_path / "copy.bin"
    shutil.copyfile(out / "seam.bin", copy)
    from_copy = tmp_path / "from_copy"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--snapshots", str(copy), "--out", str(from_copy)) == 0
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--snapshots", str(out / "seam.bin"), "--out", str(out)) == 0
    slices = sorted(p.name for p in from_copy.glob("slices_t*.csv"))
    assert len(slices) == 3
    for name in ["seam.bin", "error.csv", "segments.csv", "eigenvalues.csv", *slices]:
        assert (out / name).read_bytes() == (from_copy / name).read_bytes(), name


def test_a_failed_streamed_run_leaves_earlier_snapshot_files_in_place(
        tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(STREAMED))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 0
    earlier = {name: (out / name).read_bytes() for name in ("snapshots.bin", "seam.bin")}
    # a run may read the seam.bin it rewrites
    assert run_cli("--config", str(path), "--mode", "parallel-seam", "--out", str(out),
                   "--snapshots", str(out / "seam.bin")) == 0
    assert (out / "snapshots.bin").read_bytes() == earlier["snapshots.bin"]

    def no_convergence(*args, **kwargs):
        raise SolverFailure("conjugate gradients did not converge", 1.0)

    monkeypatch.setattr(hifi, "cg_solve", no_convergence)
    seam_bin = (out / "seam.bin").read_bytes()
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 3
    assert (out / "snapshots.bin").read_bytes() == earlier["snapshots.bin"]
    assert (out / "seam.bin").read_bytes() == seam_bin
    assert sorted(p.name for p in out.iterdir() if p.suffix == ".partial") == []
