"""The names and objects the benchmark in perfbench/ uses from the program.

The benchmark runs against the program in this tree, so renaming or
deleting a function it traces, an attribute its sizers read, or what its
replay probe reads shows up here first. perfbench/ is only read, never
imported as a package.
Apart from those names, every definition in src/, module-level constants
included, must have a reader in src/: a helper that only tests reach
belongs in tests/oracles.py.
"""

import ast
import importlib
import importlib.util
import pickle
import sys
from pathlib import Path

import numpy as np

from seampde.cli import RunConfig, resolve_problem
from seampde.hifi import discretize, load_snapshots, run_hifi, save_snapshots
from seampde.seam import run_parallel_seam, seam_online

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "seampde"


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


def test_traced_sizers_read_the_whole_run(monkeypatch, tmp_path):
    # a sizer runs only under --trace 1, so an attribute it reads that the
    # program dropped would otherwise fail only a traced benchmark run
    sizers = {target.attr: target.sizer
              for target in load_run_module(monkeypatch).traced_targets()}
    problem = resolve_problem(RunConfig(scenario="s3", m=8))
    disc = discretize(problem)
    megabytes = 8 * problem.num_dofs * (problem.num_steps + 1) / 1e6
    snapshots = run_hifi(problem, disc)
    assert sizers["run_hifi"]((problem, disc), {}, snapshots) == problem.num_steps
    path = tmp_path / "snapshots.bin"
    save_snapshots(snapshots, path)
    assert sizers["save_snapshots"]((snapshots, path), {}, None) == megabytes
    assert sizers["save_snapshots"]((), {"snapshots": snapshots, "path": path},
                                    None) == megabytes
    loaded = load_snapshots(path, problem)
    assert sizers["load_snapshots"]((path, problem), {}, loaded) == megabytes
    solution = run_parallel_seam(loaded, disc.mass, disc.stiffness, disc.load,
                                 segment_steps=problem.segment_steps)
    dense = solution.to_matrix()
    assert sizers["SeamSolution.to_matrix"]((solution,), {}, dense) == megabytes


def test_pickled_reduction_replays_exactly(tmp_path):
    # what probe.py --reduce writes from a stored run and --replay checks
    problem = resolve_problem(RunConfig(scenario="s3", m=8))
    disc = discretize(problem)
    steps = problem.segment_steps
    path = tmp_path / "snapshots.bin"
    save_snapshots(run_hifi(problem, disc), path)
    solution = run_parallel_seam(load_snapshots(path, problem), disc.mass,
                                 disc.stiffness, disc.load, segment_steps=steps)
    loaded = pickle.loads(pickle.dumps(solution))
    alphas = [seam_online(model, steps) for model in loaded.models]
    assert len(alphas) == problem.segment_count
    assert np.array_equal(np.vstack(alphas), solution.alphas)


def definitions(tree):
    """(qualified name, name, node) of each module-level function, class
    and single-name assignment (a constant), and each public method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            yield node.targets[0].id, node.targets[0].id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_src_definition_has_a_caller_in_src(monkeypatch):
    # __init__.py only re-exports, so it neither defines nor references
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    loads = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    exempt = {(target.module.split(".")[-1], target.attr)
              for target in load_run_module(monkeypatch).traced_targets()}
    exempt.add(("cli", "main"))
    unreached = []
    for module, tree in trees.items():
        for qualname, defined, node in definitions(tree):
            if (module, qualname) in exempt:
                continue
            own_lines = range(node.lineno, node.end_lineno + 1)
            if not any(name == defined and not (where == module and line in own_lines)
                       for where, line, name in loads):
                unreached.append(f"{module}.{qualname}")
    assert unreached == []
