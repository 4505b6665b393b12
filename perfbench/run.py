#!/usr/bin/env python3
"""seampde benchmark: the CLI end to end, and a traced run per module.

    python3 perfbench/run.py --workload s1-parallel --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the program is taken from
``src/`` next to this directory. Scratch output goes to ``.bench_build/``.

``--trace 0`` runs ``python -m seampde.cli`` in fresh processes, exactly as
a user does, for ``--seconds`` (at least one run), and reports the
end-to-end metrics: median wall time and peak RSS of those processes,
the median set-up time of three fresh probe processes, and the mean over
their replay windows of the median warm online replay time.
``--trace 1`` runs the same pipeline twice in this process, once plain
and once with every module's public functions wrapped in spans (see
spans.py), and reports the per-module metrics.

Every run checks the program's outputs against ``reference.json``. The
inputs are the fixed built-in scenarios. The seed is recorded; it only
orders the plain and traced runs of ``--trace 1``. The last stdout line
is the result object; the line before it holds samples, checks and
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PACKAGE = "seampde"
# The probes bracket the CLI process, so the replay windows sample the
# host's speed at both ends of the run.
PHASES = ("probe", "cli", "probe", "probe")
CHILD_TIMEOUT_S = 150.0
SNAPSHOT_MAGIC = b"SEAMSNP1"


@dataclass(frozen=True)
class Workload:
    scenario: str
    large: bool
    mode: str
    reads_snapshots: bool  # the CLI reuses the prepared snapshot file

    @property
    def problem_args(self) -> list[str]:
        return ["--scenario", self.scenario] + (["--large"] if self.large else [])

    def cli_args(self, inputs: Path, out: Path) -> list[str]:
        args = self.problem_args + ["--mode", self.mode, "--out", str(out)]
        if self.reads_snapshots:
            args += ["--snapshots", str(inputs / "snapshots.bin")]
        return args


# Each workload makes a different module dominate; see README.md.
WORKLOADS = {
    "s1-parallel": Workload("s1", False, "parallel-seam", False),
    "heat3d-large": Workload("heat3d", True, "parallel-seam", False),
    "heat3d-eigs": Workload("heat3d", True, "eigs", True),
}


# -- running children ------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def pin_blas_threads() -> None:
    """One BLAS thread, for this process and its children.

    On a 2-core host OpenBLAS's threaded dot products in CG spin both
    cores and made heat3d runs about 30% slower and far noisier than one
    thread does.
    """
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def host_steal_s() -> float | None:
    """Seconds of CPU the hypervisor has stolen from the guest, summed over cores."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(args: list[str], log: Path):
    """Run a Python child to completion: (exit code, wall s, rusage)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def last_json_line(log: Path) -> dict:
    lines = log.read_text().strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


# -- output checks ---------------------------------------------------------

def read_header(path: Path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        m, cols, tau = struct.unpack("<qqd", fh.read(24))
    return {"magic": magic.decode("latin-1"), "M": m, "columns": cols, "tau": tau}


def header_problems(path: Path, expected: dict) -> list[str]:
    header = read_header(path)
    problems = [] if header == expected else [f"{path.name}: header {header}"]
    size = len(SNAPSHOT_MAGIC) + 24 + 8 * header["M"] * header["columns"]
    if path.stat().st_size != size:
        problems.append(f"{path.name}: {path.stat().st_size} bytes, header says {size}")
    return problems


def close(actual, expected, tol: float) -> bool:
    if expected is None or isinstance(expected, str):
        return actual == expected
    return isinstance(actual, (int, float)) and abs(actual - expected) <= tol


def tolerances(values: dict, rtol: float) -> dict:
    """Absolute tolerance for each reference value of one artifact.

    A value is held to ``rtol`` of itself, with two exceptions. The last
    segment's top eigenvalue lies at round-off level below the first's, so
    a change of summation order moves it by a large share of itself; it is
    held to ``rtol`` of ``lambda0_first``. ``lambda0_reference`` is about
    ``(1 - tau*norm_a)**(2n)`` times a constant, so it carries the relative
    error of ``norm_a`` ``2n*tau*norm_a/|tau*norm_a - 1|`` times over.
    """
    tols = {key: rtol * abs(value) for key, value in values.items()
            if isinstance(value, (int, float))}
    if "lambda0_last" in tols:
        tols["lambda0_last"] = rtol * abs(values["lambda0_first"])
    if "lambda0_reference" in tols:
        product = values["tau_norm_a"]
        tols["lambda0_reference"] *= (2 * values["segment_steps"] * product
                                      / abs(product - 1.0))
    return tols


def output_problems(ref: dict, rtol: float, outdir: Path) -> list[str]:
    """Every way the artifacts in ``outdir`` differ from the reference run."""
    try:
        files = sorted(p.name for p in outdir.iterdir())
        problems = [] if files == ref["files"] else [f"artifact set {files}"]
        for artifact in ("summary", "report"):
            if artifact not in ref:
                continue
            values = json.loads((outdir / f"{artifact}.json").read_text())
            tols = tolerances(ref[artifact], rtol)
            problems += [f"{artifact}.{key} = {values.get(key)!r}, expected {want!r}"
                         for key, want in ref[artifact].items()
                         if not close(values.get(key), want, tols.get(key, 0.0))]
        for name, header in ref["headers"].items():
            problems += header_problems(outdir / name, header)
    except (OSError, ValueError, KeyError, struct.error) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


# -- prepared inputs -------------------------------------------------------

def tree_digest(*roots: Path) -> str:
    """SHA-256 over the names and contents of the Python files under ``roots``."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0"
                          + path.read_bytes())
    return digest.hexdigest()


def prune_inputs(newest: Path) -> None:
    """Drop all but the two newest prepared inputs of ``newest``'s problem,
    so that two source trees can still alternate without re-preparing."""
    problem = newest.name.rsplit("-", 1)[0]
    dirs = sorted((d for d in newest.parent.glob(problem + "-*")
                   if d.is_dir() and not d.name.endswith(".tmp")),
                  key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in dirs[2:]:
        shutil.rmtree(stale, ignore_errors=True)
        stale.with_name(stale.name + ".log").unlink(missing_ok=True)


def prepare_inputs(workload: Workload, expected_header: dict) -> Path:
    """Directory with the problem's ``snapshots.bin`` and ``solution.pickle``.

    Both are made by the program under test, once per version of the
    program and of this benchmark (whose settings, such as the BLAS thread
    count, change the last digits): the snapshots by ``--mode hifi``, the
    reduction by ``probe.py --reduce``. They are kept under
    ``.bench_build``; making them is outside every timed metric.
    """
    key = "-".join([workload.scenario, "large" if workload.large else "std",
                    tree_digest(SRC / PACKAGE, HERE)[:16]])
    final = WORK / "inputs" / key
    if not (final / "solution.pickle").is_file():
        tmp = final.with_name(key + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        steps = [
            ["-m", "seampde.cli"] + workload.problem_args
            + ["--mode", "hifi", "--out", str(tmp)],
            [str(HERE / "probe.py")] + workload.problem_args
            + ["--reduce", str(tmp / "snapshots.bin"), str(tmp / "solution.pickle")],
        ]
        for args in steps:
            code, _, _ = run_child(args, tmp.with_name(key + ".log"))
            if code != 0:
                raise RuntimeError(f"preparing {key} exited with {code}; see "
                                   f"{tmp.with_name(key + '.log')}")
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
        prune_inputs(final)
    problems = header_problems(final / "snapshots.bin", expected_header)
    if problems:
        raise RuntimeError(f"prepared snapshots: {problems}")
    return final


# -- end-to-end run (--trace 0) --------------------------------------------

def end_to_end(name: str, ref: dict, rtol: float, seconds: float,
               rundir: Path, inputs: Path):
    workload = WORKLOADS[name]
    walls, rss, cpu, steal, setups, online, problems = [], [], [], [], [], [], []
    attempted = failed = 0
    environment = None
    windows, replays = [], 0
    for phase in PHASES:
        if phase == "cli":
            deadline = time.perf_counter() + seconds
            while not walls or time.perf_counter() < deadline:
                out = rundir / "out"
                shutil.rmtree(out, ignore_errors=True)
                steal_before = host_steal_s()
                code, wall, usage = run_child(
                    ["-m", "seampde.cli"] + workload.cli_args(inputs, out),
                    rundir / "cli.log")
                steal_after = host_steal_s()
                walls.append(wall)
                rss.append(usage.ru_maxrss * 1024 / 1e6)
                cpu.append(usage.ru_utime + usage.ru_stime)
                steal.append(None if steal_before is None or steal_after is None
                             else round(steal_after - steal_before, 2))
                found = ([f"cli exit code {code}"] if code != 0
                         else output_problems(ref, rtol, out))
                attempted += 1
                failed += bool(found)
                problems += [f"cli run {len(walls)}: {p}" for p in found]
                shutil.rmtree(out, ignore_errors=True)
            continue
        code, _, _ = run_child([str(HERE / "probe.py")] + workload.problem_args
                               + ["--replay", str(inputs / "solution.pickle")],
                               rundir / "probe.log")
        record = last_json_line(rundir / "probe.log") if code == 0 else {}
        found = [] if code == 0 else [f"exit code {code}"]
        if record.get("dofs") != ref["dofs"]:
            found.append(f"dofs {record.get('dofs')}, expected {ref['dofs']}")
        if not record.get("replay_exact"):
            found.append("online replay differs from the reduction's coefficients")
        attempted += 1
        failed += bool(found)
        problems += [f"probe: {p}" for p in found]
        if "setup_s" in record:
            setups.append(record["setup_s"])
            environment = record["environment"]
        if "online_s" in record:
            online.append(statistics.fmean(record["online_s"]))
            windows += record["online_s"]
            replays += record["replays"]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "online_s": statistics.fmean(windows) if windows else 0.0,
    }
    samples = {"wall_s": walls, "peak_rss_mb": rss,
               "cli_cpu_s": cpu, "host_steal_s": steal, "setup_s": setups,
               "online_s": online, "online_windows": len(windows),
               "online_replays": replays}
    return metrics, attempted, failed, problems, samples, environment


# -- traced run (--trace 1) ------------------------------------------------

def gram_gflop(args, kwargs, result) -> float:
    """Dense-product operation count 2*M*c^2 per block, from the input shape."""
    import math

    import numpy as np

    *batch, m, c = np.shape(args[0] if args else kwargs["segment"])
    return 2.0 * math.prod(batch) * m * c * c / 1e9


def traced_targets():
    from spans import Target

    return [
        Target("seampde.cli", "execute", "cli.execute"),
        Target("seampde.mesh", "build_interval_mesh", "mesh.build"),
        Target("seampde.mesh", "build_square_mesh", "mesh.build"),
        Target("seampde.mesh", "build_cube_mesh", "mesh.build"),
        Target("seampde.assembly", "assemble_mass", "assembly"),
        Target("seampde.assembly", "assemble_stiffness", "assembly"),
        Target("seampde.assembly", "assemble_load", "assembly"),
        Target("seampde.assembly", "interpolate_initial", "assembly"),
        Target("seampde.hifi", "run_hifi", "hifi.run",
               lambda a, k, r: r.num_columns - 1),
        Target("seampde.hifi", "cg_solve", "hifi.cg"),
        Target("seampde.hifi", "save_snapshots", "hifi.save",
               lambda a, k, r: (a[0] if a else k["snapshots"]).data.nbytes / 1e6),
        Target("seampde.hifi", "load_snapshots", "hifi.load",
               lambda a, k, r: r.data.nbytes / 1e6),
        Target("seampde.pod", "gram", "pod.gram", gram_gflop),
        Target("seampde.pod", "eig_descending", "pod.eig"),
        Target("seampde.pod", "jacobi_eigh", "pod.jacobi"),
        Target("seampde.pod", "pod_basis", "pod.basis"),
        Target("seampde.seam", "run_parallel_seam", "seam.parallel"),
        Target("seampde.seam", "seam_online", "seam.online"),
        Target("seampde.seam", "SeamSolution.to_matrix", "seam.to_matrix",
               lambda a, k, r: r.nbytes / 1e6),
        Target("seampde.seam", "save_seam", "seam.save"),
        Target("seampde.analysis", "relative_l2_error", "analysis.error"),
        Target("seampde.analysis", "operator_norm", "analysis.opnorm"),
        Target("seampde.analysis", "build_spectral_report", "analysis.report"),
    ]


def layer_metrics(tracer, segments: int, bytes_written: int,
                  overhead: float) -> dict:
    """Per-module figures. Times are span totals, nested spans included,
    except ``seam.offline_s`` and ``cli.self_s``, which are self times."""
    sel, total = tracer.select, tracer.total

    def size(indices):
        return sum(tracer.spans[i].size for i in indices)

    hifi_runs = sel("hifi.run")
    steps = size(hifi_runs)
    hifi_cg = sel("hifi.cg", under="hifi.run")
    saves = sel("hifi.save", not_under="seam.save")
    grams = sel("pod.gram")
    eigs = sel("pod.eig") + sel("pod.jacobi", not_under="pod.eig")
    dense = sel("seam.to_matrix")
    return {
        "mesh.build_s": total(sel("mesh.build")),
        "assembly.s": total(sel("assembly")),
        "hifi.run_s": total(hifi_runs),
        "hifi.cg_s": total(hifi_cg),
        "hifi.cg_calls": len(hifi_cg),
        "hifi.step_ms": 1e3 * total(hifi_runs) / steps if steps else 0.0,
        "hifi.save_s": total(saves),
        "hifi.load_s": total(sel("hifi.load")),
        "hifi.snapshot_mb": size(saves + sel("hifi.load")),
        "pod.gram_s": total(grams),
        "pod.gram_calls": len(grams),
        "pod.gram_gflop": size(grams),
        "pod.eig_s": total(eigs),
        "pod.eig_calls": len(eigs),
        "pod.eig_calls_per_segment": len(eigs) / segments,
        "pod.basis_s": total(sel("pod.basis")),
        "seam.offline_s": tracer.self_time(sel("seam.parallel")),
        "seam.online_calls": len(sel("seam.online")),
        "seam.to_matrix_calls": len(dense),
        "seam.to_matrix_s": total(dense),
        "seam.dense_mb": size(dense),
        "seam.save_s": total(sel("seam.save")),
        "analysis.error_s": total(sel("analysis.error")),
        "analysis.opnorm_s": total(sel("analysis.opnorm")),
        "analysis.opnorm_iters": len(sel("hifi.cg", under="analysis.opnorm")),
        "analysis.report_s": total(sel("analysis.report")),
        "cli.self_s": tracer.self_time(sel("cli.execute")),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": overhead,
    }


def traced(name: str, ref: dict, rtol: float, seed: int, rundir: Path,
           inputs: Path):
    sys.path.insert(0, str(SRC))
    import seampde.cli as cli
    from probe import environment
    from spans import Tracer, leftover_wrappers

    workload = WORKLOADS[name]
    out = rundir / "out"
    argv = workload.cli_args(inputs, out)
    order = ["plain", "traced"]
    random.Random(seed).shuffle(order)
    walls, problems = {}, {"plain": [], "traced": []}
    tracer = Tracer()
    bytes_written = 0
    for kind in order:
        shutil.rmtree(out, ignore_errors=True)
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        with tracer if kind == "traced" else contextlib.nullcontext():
            if kind == "traced":
                tracer.instrument(traced_targets(), PACKAGE)
            start = time.perf_counter()
            try:
                cli.execute(config)
            except Exception:  # a failed run is reported, not fatal
                problems[kind].append(f"raised:\n{traceback.format_exc()}")
            walls[kind] = time.perf_counter() - start
        if not problems[kind]:
            problems[kind] += output_problems(ref, rtol, out)
            if kind == "traced":
                bytes_written = sum(p.stat().st_size for p in out.iterdir())
    shutil.rmtree(out, ignore_errors=True)
    problems["traced"] += [f"wrapper left behind: {w}"
                           for w in leftover_wrappers(PACKAGE)]
    problems["traced"] += [f"trace target missing: {t}" for t in tracer.missing]
    segments = cli.resolve_problem(config).segment_count
    metrics = layer_metrics(tracer, segments, bytes_written,
                            walls["traced"] - walls["plain"])
    failed = sum(bool(found) for found in problems.values())
    problems = [f"{kind} run: {p}" for kind, found in problems.items() for p in found]
    samples = {"order": order, "wall_s": walls, "spans": len(tracer.spans)}
    return metrics, 2, failed, problems, samples, environment()


# -- entry point -----------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    ref = reference["workloads"][args.workload]
    rtol = reference["relative_tolerance"]

    pin_blas_threads()
    rundir = WORK / "runs" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    inputs = prepare_inputs(WORKLOADS[args.workload], ref["input_header"])
    try:
        if args.trace:
            result = traced(args.workload, ref, rtol, args.seed, rundir, inputs)
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        else:
            result = end_to_end(args.workload, ref, rtol, max(args.seconds, 1.0),
                                rundir, inputs)
            units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    metrics, attempted, failed, problems, samples, environment = result
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True) if (ROOT / ".git").exists() else None
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "samples": samples, "problems": problems,
        "environment": dict(environment or {}, source_sha256=tree_digest(SRC / PACKAGE),
                            git_commit=git.stdout.strip() if git else None),
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
