"""Command-line driver: scenarios, pipeline orchestration, and the one CSV
writer (_write_csv) and one JSON writer (_write_json) of every artifact.

Modes
-----
hifi           high-fidelity run only, snapshots written to disk
seam           one basis over the whole run (single segment)
parallel-seam  segmented reduction with the scenario's segment length
eigs           per-segment Gram spectra and the rank-one-reference report
bench          the parallel-seam pass, --repeats times over; median timings
               of the full solve and the reduced replays in bench.json
hw-selftest    eigenvalue-displacement inequality suite on random matrices

Exit codes: 0 success; 2 configuration error (bad options or files, a
problem that breaks a rule of fields.ProblemSpec, given by flag or by
config key alike, a horizon T, from the config or from --T, other than
the one the run steps to once the flags replace the config's keys, a
snapshot file whose dofs, tau or column count differ
from the problem's, a field expression that cannot be parsed or that
uses a variable its key may not (alpha, c and u0 only the problem's
axes, f also t), a diffusion coefficient that is
negative at an element centroid, initial data, a coefficient or a
source term that is not finite, a load or initial vector whose squared
2-norm overflows, a JSON artifact value that is not finite, all-zero
snapshots); 3 solver failure; 1 failed self-test. Problem and
snapshot-header checks run before any compute.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import platform
import sys
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seampde.analysis import (
    block_error_norms,
    build_spectral_report,
    hoffman_wielandt_check,
    space_time_error,
)
from seampde.errors import (
    DegenerateSnapshotError,
    EvaluationError,
    ExpressionError,
    SeamError,
    SolverFailure,
    StagnationError,
)
from seampde.fields import ProblemSpec, SCENARIO_NAMES, problem_from_config
from seampde.hifi import (
    Discretization,
    discretize,
    read_snapshot_blocks,
    snapshot_writer,
    step_blocks,
)
from seampde.pod import SPECTRUM_HEAD
from seampde.seam import seam_offline, seam_online

MODES = ("hifi", "seam", "parallel-seam", "eigs", "bench", "hw-selftest")
SLICE_TIMES = (0.25, 0.5, 0.75, 1.0)
SUMMARY_SCHEMA = 1
# _reduce_blocks expands, writes and scores each block's replay in column
# chunks of at most this many bytes.
_CHUNK_BYTES = 2**20


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seampde",
        description="Rank-1 POD reduction of parabolic runs, with diagnostics.",
    )
    parser.add_argument("--scenario",
                        help=f"one of: {', '.join(SCENARIO_NAMES)}")
    parser.add_argument("--config", dest="config_path",
                        help="JSON problem file (alternative to --scenario)")
    parser.add_argument("--mode", choices=MODES, default=RunConfig.mode)
    parser.add_argument("--m", type=int, help="divisions per axis override")
    parser.add_argument("--tau", type=float, help="time step override")
    parser.add_argument("--T", type=float, dest="big_t",
                        help="expected horizon, checked against N*tau")
    parser.add_argument("--n", type=int, help="steps per segment override")
    parser.add_argument("--f", help="source-term variant (0, 10 or xy)")
    parser.add_argument("--out", default=RunConfig.out, help="output directory")
    parser.add_argument("--snapshots", dest="snapshots_path",
                        help="reuse a stored snapshot file instead of running hifi")
    parser.add_argument("--large", action="store_true",
                        help="allow the full-size 3D preset (m=32)")
    parser.add_argument("--repeats", type=int, default=RunConfig.repeats,
                        help="bench repetitions")
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(**vars(args))


def resolve_problem(config: RunConfig) -> ProblemSpec:
    """Build the scenario or config file as written, then, if a flag is given,
    once more with the flags over its keys; checked before any compute."""
    if config.scenario and config.config_path:
        raise ValueError("give either --scenario or --config, not both")
    if config.config_path:
        if config.f is not None:
            raise ValueError("--f applies to scenarios; put f in the config file")
        with open(config.config_path) as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"{config.config_path}: not a JSON object")
    elif config.scenario:
        spec = {"scenario": config.scenario, "f": config.f}
    else:
        raise ValueError("a scenario name or a config file is required")
    if spec.get("scenario") == "heat3d" and spec.get("m") is None and not config.large:
        spec["m"] = 16  # desk-scale default; the full m=32 preset sits behind --large
    problem = problem_from_config(spec)
    n_key = "n" if "scenario" in spec else "segment_steps"
    flags = {"m": config.m, "tau": config.tau, n_key: config.n, "T": config.big_t}
    flags = {key: value for key, value in flags.items() if value is not None}
    return problem_from_config({**spec, **flags}) if flags else problem


def _write_csv(path, header, rows) -> None:
    """The header, then each row: str() of each field (a float's shortest
    round-trip repr) joined by commas, CRLF ended, as csv.writer writes them."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n"
                      for row in itertools.chain([header], rows))


def _error_rows(tau: float, error_sq, reference_sq):
    """error.csv rows (t, abs_error, rel_error) from the squared norms; a
    zero reference gives rel_error 0 for a zero error, else inf."""
    for j, (err_sq, ref_sq) in enumerate(zip(error_sq, reference_sq)):
        abs_err, ref_norm = math.sqrt(err_sq), math.sqrt(ref_sq)
        rel = abs_err / ref_norm if ref_norm > 0 else 0.0 if abs_err == 0 else math.inf
        yield j * tau, abs_err, rel


class _Slices:
    """Each slice time's hifi (and seam) column, copied from the block that
    holds it into an array made before the first block: copies made between
    blocks would pin the heap above them, keeping freed blocks from the OS."""

    def __init__(self, problem: ProblemSpec, width: int):
        nearest = {t: round(t / problem.tau) for t in SLICE_TIMES}
        self.indices = {t: j for t, j in nearest.items() if j <= problem.num_steps
                        and abs(j * problem.tau - t) <= problem.tau / 2}
        self.values = np.empty((len(self.indices), problem.num_dofs, width))
        self.header = list("xyz"[: problem.dimension]) + ["hifi", "seam"][:width]
        self.start = 0  # run column of the next block's first column

    def take(self, *blocks) -> None:
        """Copy the slice columns of the next blocks, one column per block."""
        stop = self.start + blocks[0].shape[1]
        for k, index in enumerate(self.indices.values()):
            if self.start <= index < stop:
                self.values[k] = np.column_stack(
                    [block[:, index - self.start] for block in blocks])
        self.start = stop

    def write(self, outdir, disc: Discretization) -> None:
        """One file per slice time; the coordinate text, each row's first
        field, is formatted once per run."""
        points = [",".join(map(str, p)) for p in disc.mesh.interior_nodes().tolist()]
        for t, rows in zip(self.indices, self.values):
            _write_csv(outdir / f"slices_t{t}.csv", self.header,
                       ((p, *v) for p, v in zip(points, rows.tolist())))


def _json_default(value):
    """An np.longdouble as a float, or as its decimal text where it overflows
    a float; any other type json cannot serialize raises TypeError."""
    if isinstance(value, np.longdouble):
        as_float = float(value)
        return as_float if math.isfinite(as_float) else str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON. It is serialized before the file
    is opened, so a NaN or infinity raises ValueError and leaves no file."""
    text = json.dumps(payload, indent=2, allow_nan=False, default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _stepped_blocks(problem: ProblemSpec, disc: Discretization, columns: int,
                    path, summary: dict):
    """step_blocks, each block appended to the snapshot file at ``path`` as
    it is made and dropped here before the next one; hifi_seconds sums the
    time spent stepping."""
    summary["hifi_seconds"] = 0.0
    with snapshot_writer(path, problem.num_dofs, problem.num_steps + 1,
                         problem.tau) as append:
        start = time.perf_counter()
        for block in step_blocks(problem, disc, columns):
            summary["hifi_seconds"] += time.perf_counter() - start
            append(block)
            yield block
            del block
            start = time.perf_counter()


def _reduce_blocks(blocks, problem: ProblemSpec, disc: Discretization,
                   segment_steps: int, path, summary: dict):
    """Reduce (seam_offline) and replay (seam_online) each one-segment block
    as it arrives, then walk it in chunks of at most _CHUNK_BYTES of
    columns: expand each chunk's replay beta alpha', append it to the
    snapshot file at ``path``, score it against the block's columns and take
    its slice columns. No block-sized array is formed beside the block, and
    block and basis are dropped before the next block is made; the summary's
    offline and online seconds sum the two calls' times. Return the spectra,
    the segments.csv rows, the error norms and the _Slices."""
    spectra, rows, norms, slices = [], [], [], _Slices(problem, 2)
    width = max(1, _CHUNK_BYTES // (8 * problem.num_dofs))
    summary["seam_offline_seconds"] = summary["seam_online_seconds"] = 0.0
    with snapshot_writer(path, problem.num_dofs, problem.num_steps + 1,
                         problem.tau) as append:
        for block in blocks:
            start = time.perf_counter()
            model = seam_offline(block, disc.mass, disc.stiffness, disc.load,
                                 problem.tau)
            replay_start = time.perf_counter()
            alphas = seam_online(model, segment_steps)
            summary["seam_online_seconds"] += time.perf_counter() - replay_start
            summary["seam_offline_seconds"] += replay_start - start
            for first in range(0, block.shape[1], width):
                cols = slice(first, first + width)
                chunk = np.outer(alphas[cols], model.basis).T
                append(chunk)
                norms.append(block_error_norms(block[:, cols], chunk, disc.mass))
                slices.take(block[:, cols], chunk)
            spectra.append(model.spectrum)
            rows.append((len(rows), float(model.spectrum.eigenvalues[0]),
                         model.system_coeff, model.mass_coeff, model.alpha0))
            del block, model, chunk
    norms = [np.concatenate(columns) for columns in zip(*norms)]
    return spectra, rows, norms, slices


def execute(config: RunConfig) -> dict | None:
    """Run one mode end to end; artifact files land in the output directory.
    Return the summary.json payload (None for hw-selftest, which writes none)."""
    if config.snapshots_path and config.mode in ("bench", "hw-selftest"):
        raise ValueError(f"--snapshots does not apply to --mode {config.mode}")
    if config.mode == "bench" and config.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    if config.mode == "hw-selftest":
        _run_hw_selftest(config)
        return None

    problem = resolve_problem(config)
    disc = discretize(problem)
    dofs = disc.mesh.num_interior
    summary = {"schema": SUMMARY_SCHEMA, "scenario": problem.name,
               "mode": config.mode, "dofs": dofs, "reduced_dofs": 1,
               "reduction": f"{dofs}:1", "hifi_seconds": None,
               "seam_offline_seconds": None, "seam_online_seconds": None,
               "error_l2": None, "lambda0_first": None, "lambda0_last": None}

    outdir = Path(config.out)
    if config.mode == "bench":
        _run_bench(problem, disc, config, summary, outdir)
    else:
        _pass(problem, disc, config, summary, outdir)
    _write_json(outdir / "summary.json", summary)
    return summary


def _pass(problem: ProblemSpec, disc: Discretization, config: RunConfig,
          summary: dict, outdir) -> None:
    """One pass of the mode over the run's blocks, stepped and stored or read
    from the snapshot file: write every artifact but summary.json to
    ``outdir`` and fill in the summary."""
    segment_steps = (problem.num_steps if config.mode == "seam"
                     else problem.segment_steps)
    if config.snapshots_path:
        blocks = read_snapshot_blocks(config.snapshots_path, problem, segment_steps + 1)
    else:
        blocks = _stepped_blocks(problem, disc, segment_steps + 1,
                                 outdir / "snapshots.bin", summary)
    outdir.mkdir(parents=True, exist_ok=True)  # not for a rejected snapshot file
    with closing(blocks):  # a snapshot file left half written is removed
        if config.mode == "hifi":
            slices = _Slices(problem, 1)
            for block in blocks:
                slices.take(block)
                del block
            slices.write(outdir, disc)
            return
        if config.mode == "eigs":
            spectra, report = build_spectral_report(blocks, problem.tau, disc.mass,
                                                    disc.stiffness, segment_steps)
            _write_json(outdir / "report.json", report)
        else:  # seam / parallel-seam / bench
            spectra, rows, norms, slices = _reduce_blocks(
                blocks, problem, disc, segment_steps, outdir / "seam.bin", summary)
            summary["error_l2"] = space_time_error(*norms, problem.tau)
            _write_csv(outdir / "segments.csv", ("segment", "lambda0", "system_coeff",
                                                 "mass_coeff", "alpha0"), rows)
            _write_csv(outdir / "error.csv", ("t", "abs_error", "rel_error"),
                       _error_rows(problem.tau, *norms))
            slices.write(outdir, disc)
    _write_csv(outdir / "eigenvalues.csv", ("segment", "index", "eigenvalue"),
               ((k, i, float(value)) for k, s in enumerate(spectra)
                for i, value in enumerate(s.eigenvalues[:SPECTRUM_HEAD])))
    summary["lambda0_first"] = float(spectra[0].eigenvalues[0])
    summary["lambda0_last"] = float(spectra[-1].eigenvalues[0])


def _run_bench(problem, disc, config, summary, outdir) -> None:
    """The parallel-seam pass, ``config.repeats`` times; the summary's hifi
    and online seconds become the medians of the passes' figures, which
    bench.json adds as samples."""
    hifi_samples, online_samples = [], []
    for _ in range(config.repeats):
        _pass(problem, disc, config, summary, outdir)
        hifi_samples.append(summary["hifi_seconds"])
        online_samples.append(summary["seam_online_seconds"])
    summary["hifi_seconds"] = float(np.median(hifi_samples))
    summary["seam_online_seconds"] = float(np.median(online_samples))
    payload = {
        **summary,
        "hifi_samples": hifi_samples,
        "online_samples": online_samples,
        "speedup_online": (summary["hifi_seconds"]
                           / max(summary["seam_online_seconds"], 1e-12)),
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or "unknown",
            "python": platform.python_version(),
        },
        "note": "online time excludes snapshot generation and basis extraction",
    }
    _write_json(outdir / "bench.json", payload)


def _run_hw_selftest(config: RunConfig) -> None:
    """Displacement-inequality suite on 100 random symmetric pairs."""
    rng = np.random.default_rng(2024)
    worst = {"frobenius_margin": np.inf, "lower_margin": np.inf,
             "upper_margin": np.inf}
    all_hold = True
    for _ in range(100):
        size = int(rng.integers(2, 21))
        a = rng.uniform(-1, 1, (size, size))
        e = rng.uniform(-1, 1, (size, size))
        record = hoffman_wielandt_check((a + a.T) / 2, (e + e.T) / 2)
        for key in worst:
            worst[key] = min(worst[key], getattr(record, key))
        all_hold = all_hold and record.holds(tol=1e-9)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"schema": SUMMARY_SCHEMA, "pairs": 100, "all_hold": all_hold,
               "worst_margins": worst}
    _write_json(outdir / "hw_selftest.json", payload)
    status = "ok" if all_hold else "FAILED"
    print(f"hoffman-wielandt selftest: {status} "
          f"(worst margins {worst['frobenius_margin']:.2e}, "
          f"{worst['lower_margin']:.2e}, {worst['upper_margin']:.2e})")
    if not all_hold:
        raise SeamError("hoffman-wielandt selftest failed")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        summary = execute(config)
    except (ValueError, ExpressionError, EvaluationError, DegenerateSnapshotError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, StagnationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except SeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if summary is not None:
        parts = [f"{summary['scenario']} [{summary['mode']}]",
                 f"dofs {summary['reduction']}"]
        if summary["hifi_seconds"] is not None:
            parts.append(f"hifi {summary['hifi_seconds']:.2f}s")
        if summary["seam_online_seconds"] is not None:
            parts.append(f"online {summary['seam_online_seconds'] * 1e3:.1f}ms")
        if summary["error_l2"] is not None:
            parts.append(f"error {summary['error_l2']:.3e}")
        print("  ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
