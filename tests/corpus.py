"""Pinned numbers of small command-line runs: one case per scenario and mode.

Each case runs the command line into a fresh directory and reduces its
artifacts to named lists of numbers: summary.json without its timings,
report.json's scalars, the segments.csv, error.csv and slices_t*.csv
columns, the eigenvalues.csv heads, and the per-column 2-norms of
snapshots.bin and seam.bin. A case of STORED reads the snapshots.bin of
another case's run through --snapshots. ``tests/test_corpus.py`` reruns
every case and compares it with ``tests/corpus.json``; a change that is
meant to move numbers regenerates that file and says in CHANGES.md which
values moved and by how much:

    PYTHONPATH=src python tests/corpus.py
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from seampde.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus.json"
RTOL = 1e-12
FLOOR = 1e-13  # of the largest magnitude in the same list
# An error is also floored at FLOOR of the reference it measures: 1 for a
# relative error, the largest snapshot column norm for an absolute one.
# heat1d's snapshots are exactly rank one, so all its errors are round-off.
ERROR_SCALES = {"summary.json:error_l2": None, "error.csv:rel_error": None,
                "error.csv:abs_error": "snapshots.bin:column_norms"}

STREAMED = {
    "name": "streamed", "dimension": 2, "alpha": ["1", "1+x"], "c": "1",
    "f": "x*(1+10*t)", "u0": "sin(pi*x)*sin(pi*y)*(1+y)", "tau": 0.025, "m": 7,
    "segment_steps": 12, "segment_count": 3,
}
HEAT3D = {"scenario": "heat3d", "m": 4, "n": 10, "segments": 4}
SMALL_2D = {"m": 8, "n": 10, "segments": 3}
S2_XY = {"scenario": "s2", "f": "xy", **SMALL_2D}

# name -> (config file contents, mode); hw-selftest reads no config
CASES = {
    "heat1d": ({"scenario": "heat1d", "n": 50, "segments": 2}, "parallel-seam"),
    "s1": ({"scenario": "s1", **SMALL_2D}, "parallel-seam"),
    "s2-f10": ({"scenario": "s2", "f": "10", **SMALL_2D}, "parallel-seam"),
    "s2-fxy": (S2_XY, "parallel-seam"),
    "s3": ({"scenario": "s3", "m": 8, "n": 5, "segments": 4}, "parallel-seam"),
    "s3-seam": ({"scenario": "s3", "m": 8, "n": 5, "segments": 4}, "seam"),
    "heat3d": (HEAT3D, "parallel-seam"),
    "streamed": (STREAMED, "parallel-seam"),
    "s2-fxy-eigs": (S2_XY, "eigs"),
    "heat3d-eigs": (HEAT3D, "eigs"),
    "hw-selftest": (None, "hw-selftest"),
    "streamed-hifi": (STREAMED, "hifi"),
    "streamed-eigs-stored": (STREAMED, "eigs"),
}
# case -> the case whose stored snapshots.bin it reads
STORED = {"streamed-eigs-stored": "streamed-hifi"}


def run_case(name: str, root: Path) -> dict:
    """Run one case in ``root``; return its artifacts as named number lists
    (strings, bools and None stay as they are, in one-element lists)."""
    spec, mode = CASES[name]
    out = root / name
    argv = ["--mode", mode, "--out", str(out)]
    if spec is not None:
        path = root / f"{name}.json"
        path.write_text(json.dumps(spec))
        argv += ["--config", str(path)]
    if name in STORED:
        if not (root / STORED[name]).exists():
            run_case(STORED[name], root)
        argv += ["--snapshots", str(root / STORED[name] / "snapshots.bin")]
    if main(argv) != 0:
        raise RuntimeError(f"corpus case {name} exited non-zero")
    values = {}
    for artifact in ("summary.json", "report.json", "hw_selftest.json"):
        if (out / artifact).exists():
            payload = json.loads((out / artifact).read_text())
            payload.pop("segments", None)  # report.json's copy of eigenvalues.csv
            for key, value in _flat(payload):
                if not key.endswith("_seconds"):
                    values[f"{artifact}:{key}"] = [value]
    slices = sorted(p.name for p in out.glob("slices_t*.csv"))
    for artifact in ("segments.csv", "error.csv", *slices):
        if (out / artifact).exists():
            with open(out / artifact, newline="") as fh:
                rows = list(csv.reader(fh))
            for k, column in enumerate(zip(*rows[1:])):
                values[f"{artifact}:{rows[0][k]}"] = [float(v) for v in column]
    if (out / "eigenvalues.csv").exists():
        with open(out / "eigenvalues.csv", newline="") as fh:
            values["eigenvalues.csv"] = [float(row[2]) for row in list(csv.reader(fh))[1:]]
    for artifact in ("snapshots.bin", "seam.bin"):
        if (out / artifact).exists():
            values[f"{artifact}:column_norms"] = _column_norms(out / artifact).tolist()
    return values


def _flat(payload: dict, prefix=""):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _column_norms(path: Path) -> np.ndarray:
    """2-norm of each column of a snapshot-format file (magic, int64 M,
    int64 N+1, float64 tau, column-major float64 data)."""
    raw = path.read_bytes()
    m, cols = np.frombuffer(raw, "<i8", count=2, offset=8)
    data = np.frombuffer(raw, "<f8", count=m * cols, offset=32).reshape(cols, m)
    return np.linalg.norm(data, axis=1)


def mismatches(recorded: dict, got: dict) -> list:
    """Every value of ``got`` that differs from ``recorded`` by more than RTOL
    of itself, with a floor of FLOOR times its list's largest magnitude;
    an error's floor is at least FLOOR of its reference (ERROR_SCALES), and
    eigenvalues.csv is held to RTOL of the run's first lambda_0 instead,
    since segments of round-off columns have round-off spectra. Anything
    that is not a number must be equal."""
    if sorted(recorded) != sorted(got):
        return [f"keys differ: {sorted(set(recorded) ^ set(got))}"]
    failures = []
    for key, want in recorded.items():
        have = got[key]
        if len(have) != len(want):
            failures.append(f"{key}: {len(have)} values, recorded {len(want)}")
            continue
        numbers = all(isinstance(v, float) or type(v) is int for v in want + have)
        if not numbers:
            if have != want:
                failures.append(f"{key}: {have!r}, recorded {want!r}")
            continue
        want, have = np.array(want, dtype=float), np.array(have, dtype=float)
        if key == "eigenvalues.csv":
            tol = np.full_like(want, RTOL * abs(want[0]))
        else:
            scale = np.abs(want).max()
            if key in ERROR_SCALES:
                reference = ERROR_SCALES[key]
                scale = max(scale, 1.0 if reference is None else max(recorded[reference]))
            tol = np.maximum(RTOL * np.abs(want), FLOOR * scale)
        bad = np.flatnonzero(~(np.abs(have - want) <= tol))
        if bad.size:
            k = bad[np.argmax(np.abs(have - want)[bad] / np.maximum(tol[bad], 1e-300))]
            failures.append(f"{key}[{k}]: {have[k]!r}, recorded {want[k]!r} "
                            f"({bad.size} of {want.size} outside)")
    return failures


def record() -> dict:
    with tempfile.TemporaryDirectory() as root:
        return {name: run_case(name, Path(root)) for name in CASES}


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {CORPUS} ({CORPUS.stat().st_size} bytes)", file=sys.stderr)
