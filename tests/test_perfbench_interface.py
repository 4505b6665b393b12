"""The names and objects the benchmark in perfbench/ uses from the program.

The benchmark runs against the program in this tree, so renaming or
deleting a function it traces, or changing what its replay probe reads,
shows up here first. perfbench/ is only read, never imported as a package.
"""

import importlib
import importlib.util
import pickle
import sys
from pathlib import Path

import numpy as np

from seampde.cli import RunConfig, resolve_problem
from seampde.hifi import discretize, run_hifi
from seampde.seam import run_parallel_seam, seam_online

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports spans
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    targets = load_run_module(monkeypatch).traced_targets()
    assert targets
    missing = []
    for target in targets:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []


def test_pickled_reduction_replays_exactly():
    # what probe.py --reduce writes and probe.py --replay checks
    problem = resolve_problem(RunConfig(scenario="s3", m=8))
    disc = discretize(problem)
    steps = problem.segment_steps
    solution = run_parallel_seam(run_hifi(problem, disc), disc.mass,
                                 disc.stiffness, disc.load, segment_steps=steps)
    loaded = pickle.loads(pickle.dumps(solution))
    alphas = [seam_online(model, steps) for model in loaded.models]
    assert len(alphas) == problem.segment_count
    assert np.array_equal(np.vstack(alphas), solution.alphas)
