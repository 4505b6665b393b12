"""Command-line driver: scenarios, pipeline orchestration, CSV/JSON artifacts.

Modes
-----
hifi           high-fidelity run only, snapshots written to disk
seam           one basis over the whole run (single segment)
parallel-seam  segmented reduction with the scenario's segment length
eigs           per-segment Gram spectra and the rank-one-reference report
bench          wall-time comparison of the full solve vs the reduced replay
hw-selftest    eigenvalue-displacement inequality suite on random matrices

Exit codes: 0 success; 2 configuration error (bad options or files, a
problem that breaks a rule of fields.ProblemSpec, given by flag or by
config key alike, a snapshot file whose dofs, tau or column count differ
from the problem's, a field expression that cannot be parsed or
evaluated, initial data or a coefficient that is not finite, all-zero
snapshots); 3 solver failure; 4 segmentation (divisibility) violation; 1
failed self-test. Problem and snapshot-header checks run before any compute.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from seampde.analysis import (
    build_spectral_report,
    column_error_norms,
    hoffman_wielandt_check,
    relative_l2_error,
    save_report_json,
    space_time_error,
)
from seampde.errors import (
    DegenerateSnapshotError,
    EvaluationError,
    ExpressionError,
    SeamError,
    SegmentationError,
    SolverFailure,
    StagnationError,
)
from seampde.fields import ProblemSpec, SCENARIO_NAMES, load_problem, scenario
from seampde.hifi import (
    Discretization,
    SnapshotMatrix,
    discretize,
    load_snapshots,
    run_hifi,
    save_snapshots,
)
from seampde.pod import export_spectra_csv
from seampde.seam import (
    SeamSolution,
    export_segment_metadata,
    run_parallel_seam,
    save_seam,
    seam_online,
)

MODES = ("hifi", "seam", "parallel-seam", "eigs", "bench", "hw-selftest")
SLICE_TIMES = (0.25, 0.5, 0.75, 1.0)
SUMMARY_SCHEMA = 1


@dataclass(frozen=True)
class RunConfig:
    mode: str = "parallel-seam"
    scenario: str | None = None
    config_path: str | None = None
    m: int | None = None
    tau: float | None = None
    big_t: float | None = None
    n: int | None = None
    f: str | None = None
    out: str = "out"
    snapshots_path: str | None = None
    large: bool = False
    repeats: int = 3


@dataclass
class RunSummary:
    scenario: str
    mode: str
    dofs: int
    reduced_dofs: int = 1
    hifi_seconds: float | None = None
    offline_seconds: float | None = None
    online_seconds: float | None = None
    error_l2: float | None = None
    lambda0_first: float | None = None
    lambda0_last: float | None = None

    @property
    def reduction(self) -> str:
        return f"{self.dofs}:{self.reduced_dofs}"

    def to_json_dict(self) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "scenario": self.scenario,
            "mode": self.mode,
            "dofs": self.dofs,
            "reduced_dofs": self.reduced_dofs,
            "reduction": self.reduction,
            "hifi_seconds": self.hifi_seconds,
            "seam_offline_seconds": self.offline_seconds,
            "seam_online_seconds": self.online_seconds,
            "error_l2": self.error_l2,
            "lambda0_first": self.lambda0_first,
            "lambda0_last": self.lambda0_last,
        }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seampde",
        description="Rank-1 POD reduction of parabolic runs, with diagnostics.",
    )
    parser.add_argument("--scenario",
                        help=f"one of: {', '.join(SCENARIO_NAMES)}")
    parser.add_argument("--config", dest="config_path",
                        help="JSON problem file (alternative to --scenario)")
    parser.add_argument("--mode", choices=MODES, default="parallel-seam")
    parser.add_argument("--m", type=int, help="divisions per axis override")
    parser.add_argument("--tau", type=float, help="time step override")
    parser.add_argument("--T", type=float, dest="big_t", help="horizon override")
    parser.add_argument("--n", type=int, help="steps per segment override")
    parser.add_argument("--f", help="source-term variant (0, 10 or xy)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--snapshots", dest="snapshots_path",
                        help="reuse a stored snapshot file instead of running hifi")
    parser.add_argument("--large", action="store_true",
                        help="allow the full-size 3D preset (m=32)")
    parser.add_argument("--repeats", type=int, default=3, help="bench repetitions")
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(**vars(args))


def resolve_problem(config: RunConfig) -> ProblemSpec:
    """Scenario or config file plus overrides, checked before any compute."""
    if config.scenario and config.config_path:
        raise ValueError("give either --scenario or --config, not both")
    m = config.m
    if config.config_path:
        if config.f is not None:
            raise ValueError("--f applies to scenarios; put f in the config file")
        problem = load_problem(config.config_path)
    elif config.scenario:
        problem = scenario(config.scenario, config.f)
        if config.scenario == "heat3d" and not config.large and m is None:
            m = 16  # desk-scale default; the full m=32 preset sits behind --large
    else:
        raise ValueError("a scenario name or a config file is required")
    return problem.with_overrides(m, config.tau, config.n, None, config.big_t)


def _write_error_csv(path, tau: float, error_sq: np.ndarray,
                     reference_sq: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "abs_error", "rel_error"])
        for j, (err_sq, ref_sq) in enumerate(zip(error_sq, reference_sq)):
            abs_err = float(np.sqrt(err_sq))
            ref_norm = float(np.sqrt(ref_sq))
            if ref_norm > 0:
                rel = abs_err / ref_norm
            else:
                rel = 0.0 if abs_err == 0 else float("inf")
            writer.writerow([repr(j * tau), repr(abs_err), repr(rel)])


def _write_slices(outdir, disc: Discretization, reference: SnapshotMatrix,
                  reduced: SeamSolution | None) -> None:
    points = disc.mesh.interior_nodes()
    axes = list("xyz"[: disc.mesh.dimension])
    for t in SLICE_TIMES:
        index = round(t / reference.tau)
        if not 0 <= index < reference.num_columns:
            continue
        if abs(index * reference.tau - t) > reference.tau / 2:
            continue
        header = axes + ["hifi"] + (["seam"] if reduced is not None else [])
        columns = [points, reference.column(index)]
        if reduced is not None:
            columns.append(reduced.column(index))
        with open(outdir / f"slices_t{t}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            # plain Python floats, written as their shortest round-trip repr
            writer.writerows(np.column_stack(columns).tolist())


def _reduce(snapshots: SnapshotMatrix, disc: Discretization, segment_steps: int,
            config: RunConfig, summary: RunSummary):
    start = time.perf_counter()
    solution = run_parallel_seam(snapshots, disc.mass, disc.stiffness, disc.load,
                                 segment_steps=segment_steps)
    summary.online_seconds = solution.online_seconds
    summary.offline_seconds = time.perf_counter() - start - solution.online_seconds
    lam0 = [float(model.spectrum.eigenvalues[0]) for model in solution.models]
    summary.lambda0_first = lam0[0]
    summary.lambda0_last = lam0[-1]
    return solution


def execute(config: RunConfig) -> RunSummary:
    """Run one mode end to end; artifact files land in the output directory."""
    from pathlib import Path

    if config.mode == "hw-selftest":
        return _run_hw_selftest(config)
    if config.mode == "bench" and config.repeats < 1:
        raise ValueError("--repeats must be at least 1")

    problem = resolve_problem(config)
    summary = RunSummary(scenario=problem.name, mode=config.mode, dofs=0)
    disc = discretize(problem)
    summary.dofs = disc.mesh.num_interior

    outdir = Path(config.out)
    if config.mode == "bench":
        return _run_bench(problem, disc, config, summary, outdir)

    if config.snapshots_path:
        snapshots = load_snapshots(config.snapshots_path, problem)
    else:
        start = time.perf_counter()
        snapshots = run_hifi(problem, disc)
        summary.hifi_seconds = time.perf_counter() - start
    outdir.mkdir(parents=True, exist_ok=True)  # not for a rejected snapshot file
    if not config.snapshots_path:
        save_snapshots(snapshots, outdir / "snapshots.bin")

    if config.mode == "hifi":
        _write_slices(outdir, disc, snapshots, None)
    elif config.mode == "eigs":
        report = build_spectral_report(snapshots, disc.mass, disc.stiffness,
                                       segment_steps=problem.segment_steps)
        save_report_json(report, outdir / "report.json")
        export_spectra_csv(report.spectra, outdir / "eigenvalues.csv")
        lam0 = report.leading_eigenvalues()
        summary.lambda0_first = float(lam0[0])
        summary.lambda0_last = float(lam0[-1])
    else:  # seam / parallel-seam
        segment_steps = (snapshots.num_columns - 1 if config.mode == "seam"
                         else problem.segment_steps)
        solution = _reduce(snapshots, disc, segment_steps, config, summary)
        norms = column_error_norms(snapshots, solution, disc.mass)
        summary.error_l2 = space_time_error(*norms, problem.tau)
        save_seam(solution, outdir / "seam.bin")
        export_segment_metadata(solution, outdir / "segments.csv")
        export_spectra_csv([model.spectrum for model in solution.models],
                           outdir / "eigenvalues.csv")
        _write_error_csv(outdir / "error.csv", snapshots.tau, *norms)
        _write_slices(outdir, disc, snapshots, solution)

    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2)
        fh.write("\n")
    return summary


def _run_bench(problem, disc, config, summary, outdir) -> RunSummary:
    """Median-of-repeats timings for the full solve vs the reduced replay."""
    hifi_samples = []
    snapshots = None
    for _ in range(config.repeats):
        start = time.perf_counter()
        snapshots = run_hifi(problem, disc)
        hifi_samples.append(time.perf_counter() - start)
    offline_start = time.perf_counter()
    solution = run_parallel_seam(snapshots, disc.mass, disc.stiffness, disc.load,
                                 segment_steps=problem.segment_steps)
    offline_seconds = time.perf_counter() - offline_start
    online_samples = []
    for _ in range(config.repeats):
        start = time.perf_counter()
        for model in solution.models:
            seam_online(model, problem.segment_steps)
        online_samples.append(time.perf_counter() - start)
    summary.hifi_seconds = float(np.median(hifi_samples))
    summary.offline_seconds = offline_seconds
    summary.online_seconds = float(np.median(online_samples))
    summary.error_l2 = relative_l2_error(snapshots, solution, disc.mass,
                                         problem.tau)
    payload = summary.to_json_dict()
    payload.update({
        "hifi_samples": hifi_samples,
        "online_samples": online_samples,
        "speedup_online": summary.hifi_seconds / max(summary.online_seconds, 1e-12),
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or "unknown",
            "python": platform.python_version(),
        },
        "note": "online time excludes snapshot generation and basis extraction",
    })
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "bench.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2)
        fh.write("\n")
    return summary


def _run_hw_selftest(config: RunConfig) -> RunSummary:
    """Displacement-inequality suite on 100 random symmetric pairs."""
    from pathlib import Path

    rng = np.random.default_rng(2024)
    worst = {"frobenius_margin": np.inf, "lower_margin": np.inf,
             "upper_margin": np.inf}
    all_hold = True
    for _ in range(100):
        size = int(rng.integers(2, 21))
        a = rng.uniform(-1, 1, (size, size))
        e = rng.uniform(-1, 1, (size, size))
        record = hoffman_wielandt_check((a + a.T) / 2, (e + e.T) / 2)
        worst["frobenius_margin"] = min(worst["frobenius_margin"],
                                        record.frobenius_margin)
        worst["lower_margin"] = min(worst["lower_margin"], record.lower_margin)
        worst["upper_margin"] = min(worst["upper_margin"], record.upper_margin)
        all_hold = all_hold and record.holds(tol=1e-9)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"schema": SUMMARY_SCHEMA, "pairs": 100, "all_hold": all_hold,
               "worst_margins": worst}
    with open(outdir / "hw_selftest.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    status = "ok" if all_hold else "FAILED"
    print(f"hoffman-wielandt selftest: {status} "
          f"(worst margins {worst['frobenius_margin']:.2e}, "
          f"{worst['lower_margin']:.2e}, {worst['upper_margin']:.2e})")
    summary = RunSummary(scenario="hw-selftest", mode=config.mode, dofs=0)
    if not all_hold:
        raise SeamError("hoffman-wielandt selftest failed")
    return summary


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        summary = execute(config)
    except (ValueError, ExpressionError, EvaluationError, DegenerateSnapshotError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, StagnationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except SegmentationError as exc:
        print(f"segmentation error: {exc}", file=sys.stderr)
        return 4
    except SeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if summary.mode != "hw-selftest":
        parts = [f"{summary.scenario} [{summary.mode}]",
                 f"dofs {summary.reduction}"]
        if summary.hifi_seconds is not None:
            parts.append(f"hifi {summary.hifi_seconds:.2f}s")
        if summary.online_seconds is not None:
            parts.append(f"online {summary.online_seconds * 1e3:.1f}ms")
        if summary.error_l2 is not None:
            parts.append(f"error {summary.error_l2:.3e}")
        print("  ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
