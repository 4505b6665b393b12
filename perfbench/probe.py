"""Child process of the benchmark: set-up time, online replay, environment.

    PYTHONPATH=src python3 perfbench/probe.py --scenario s1 [--large] \
        [--reduce SNAPSHOTS PICKLE] [--replay PICKLE]

Prints one JSON line. ``setup_s`` covers ``import seampde.cli`` in this
fresh interpreter plus ``discretize`` of the problem. ``--reduce`` then
reduces a snapshot file with ``run_parallel_seam`` and pickles the
solution. ``--replay`` loads such a pickle, replays ``seam_online`` over
all segments for ``REPLAY_SECONDS`` after ``WARMUP_SECONDS`` of warm-up,
and reports the median replay time of each ``WINDOW_SECONDS`` window.
Every replay must equal the reduction's own coefficients.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402

WARMUP_SECONDS = 0.2
REPLAY_SECONDS = 3.0
WINDOW_SECONDS = 0.1


def blas_info() -> dict:
    """BLAS library numpy was built against and its live thread count."""
    import ctypes

    import numpy as np

    info = {"vendor": "unknown", "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--large", action="store_true")
    parser.add_argument("--reduce", nargs=2, metavar=("SNAPSHOTS", "PICKLE"))
    parser.add_argument("--replay", metavar="PICKLE")
    args = parser.parse_args()

    from seampde.cli import RunConfig, resolve_problem
    from seampde.hifi import discretize

    problem = resolve_problem(RunConfig(scenario=args.scenario, large=args.large))
    disc = discretize(problem)
    setup_s = time.perf_counter() - _START
    record = {"setup_s": setup_s, "dofs": int(disc.mesh.num_interior),
              "environment": environment()}
    steps = problem.segment_steps

    if args.reduce:
        from seampde.hifi import load_snapshots
        from seampde.seam import run_parallel_seam

        snapshots = load_snapshots(args.reduce[0], problem)
        solution = run_parallel_seam(snapshots, disc.mass, disc.stiffness,
                                     disc.load, segment_steps=steps)
        with open(args.reduce[1], "wb") as fh:
            pickle.dump(solution, fh)

    if args.replay:
        import numpy as np

        from seampde.seam import seam_online

        with open(args.replay, "rb") as fh:
            solution = pickle.load(fh)  # written by --reduce of this source tree
        models = solution.models
        windows, window, replays = [], [], 0
        exact = True
        warm_end = time.perf_counter() + WARMUP_SECONDS
        window_end = warm_end + WINDOW_SECONDS
        deadline = warm_end + REPLAY_SECONDS
        while time.perf_counter() < deadline or not windows:
            begin = time.perf_counter()
            alphas = [seam_online(model, steps) for model in models]
            end = time.perf_counter()
            exact = exact and np.array_equal(np.vstack(alphas), solution.alphas)
            if begin < warm_end:
                continue
            window.append(end - begin)
            replays += 1
            if end >= window_end:
                windows.append(statistics.median(window))
                window, window_end = [], end + WINDOW_SECONDS
        record.update(online_s=windows, replays=replays, replay_exact=bool(exact),
                      segments=len(models))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
