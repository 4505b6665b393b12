import json
import os
import shutil
import sys
import tracemalloc

import numpy as np
import pytest

from seampde import cli, hifi, pod
from seampde.cli import RunConfig, execute, main, resolve_problem
from seampde.hifi import SnapshotMatrix, discretize, load_snapshots, save_snapshots
from seampde.seam import SeamSolution


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
])
def test_bad_override_exits_2(tmp_path, monkeypatch, config, flags):
    def no_hifi(*args, **kwargs):
        raise AssertionError("hifi ran on a rejected problem")

    monkeypatch.setattr(cli, "run_hifi", no_hifi)
    if config is None:
        problem = ["--scenario", "heat1d"]
    else:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(config))
        problem = ["--config", str(path)]
    out = tmp_path / "out"
    assert run_cli(*problem, *flags, "--mode", "hifi", "--out", str(out)) == 2
    assert not (out / "snapshots.bin").exists()


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


def test_snapshot_reuse_tau_mismatch(tmp_path):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "x", "tau": 0.001, "T": 0.01, "m": 6,
        "segment_steps": 10, "segment_count": 1,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 0
    # same column count and dofs, only the time step differs
    assert run_cli("--config", str(path), "--mode", "seam", "--tau", "0.002",
                   "--out", str(tmp_path / "out2"),
                   "--snapshots", str(out / "snapshots.bin")) == 2
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize("mode", ["eigs", "parallel-seam"])
def test_non_finite_snapshots_exit_2(tmp_path, monkeypatch, mode):
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
    result = tmp_path / mode
    assert run_cli("--config", str(path), "--mode", mode, "--out", str(result),
                   "--snapshots", str(poisoned)) == 2
    assert not (result / "report.json").exists()
    assert not (result / "summary.json").exists()
    assert handles and all(handle.closed for handle in handles)


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
        raise AssertionError("dense reduced matrix rebuilt")

    monkeypatch.setattr(SeamSolution, "to_matrix", refuse)
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
    mass = discretize(problem).mass
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
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(out)) == 2
    assert not (out / "summary.json").exists()


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


def test_divisibility_violation_exit_4(tmp_path, monkeypatch):
    cfg = {
        "name": "mini", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "x", "tau": 0.001, "T": 0.01, "m": 6,
        "segment_steps": 10, "segment_count": 1,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 0
    # Checked CLI inputs always split evenly, so the violation comes from
    # the reduction itself: 11 columns cannot split into segments of 4.
    reduce = cli.run_parallel_seam
    monkeypatch.setattr(cli, "run_parallel_seam",
                        lambda *args, segment_steps: reduce(*args, segment_steps=3))
    assert run_cli("--config", str(path), "--mode", "parallel-seam",
                   "--out", str(tmp_path / "out3"),
                   "--snapshots", str(out / "snapshots.bin")) == 4


def test_bench_mode(tmp_path, heat1d_run):
    out = tmp_path / "bench"
    code = run_cli("--scenario", "heat1d", "--mode", "bench", "--repeats", "2",
                   "--out", str(out))
    assert code == 0
    bench = read_json(out / "bench.json")
    assert len(bench["hifi_samples"]) == 2
    assert len(bench["online_samples"]) == 2
    # bench reduces and scores exactly as a parallel-seam run does
    assert bench["error_l2"] == read_json(heat1d_run / "summary.json")["error_l2"]
    assert read_json(out / "summary.json")["error_l2"] == bench["error_l2"]
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_initial_data_exits_2(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**MINI, "u0": "1e308*(1+x)"}))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--mode", "hifi", "--out", str(out)) == 2
    assert not (out / "snapshots.bin").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
