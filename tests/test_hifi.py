import os
import re
import struct
import sys
import tracemalloc
from dataclasses import replace
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.sparse as sparse

import seampde.analysis as analysis
import seampde.hifi as hifi
from seampde.assembly import assemble_load
from seampde.cli import _CHUNK_BYTES
from seampde.errors import EvaluationError, SolverFailure
from seampde.fields import ProblemSpec, parse_expression as expr, scenario
from seampde.hifi import (
    CG_RTOL,
    block_product,
    cg_solve,
    discretize,
    galerkin_start,
    load_snapshots,
    product,
    read_snapshot_blocks,
    run_hifi,
    save_snapshots,
    SnapshotMatrix,
    step_blocks,
)

from oracles import (
    backward_euler_step,
    centroid_load,
    cg_solve_matmul,
    from_scipy,
    heat_operators,
    stored_run_problem,
    to_scipy,
)


def small_problem(name="tiny1d", m=8, tau=1e-3, steps=20, u0="sin(pi*x)", f="0",
                  dimension=1):
    alpha = ("1",) * dimension
    return ProblemSpec(
        name=name, dimension=dimension,
        alpha_diag=tuple(expr(a) for a in alpha),
        c=expr("0"), f=expr(f), u0=expr(u0),
        tau=tau, divisions=m,
        segment_steps=steps, segment_count=1,
    )


def snapshots_of(problem):
    return run_hifi(problem, discretize(problem))


# --- operator products ---------------------------------------------------


@pytest.mark.parametrize("name", ["heat1d", "s1", "s2", "s3", "heat3d"])
def test_product_equals_scipy_matmul_bit_for_bit(name):
    # heat3d is the m=32 preset: its M and A have 15 diagonals, its S 7
    problem = scenario(name)
    disc = discretize(problem)
    rng = np.random.default_rng(11)
    for matrix in (disc.mass, disc.stiffness, disc.system_matrix(problem.tau)):
        for x in rng.standard_normal((3, problem.num_dofs)):
            y = product(matrix, x)
            assert y.dtype == np.float64 and np.array_equal(y, to_scipy(matrix) @ x)


@pytest.mark.parametrize("shape", [(9,), (11,), (10, 1), ()],
                         ids=["short", "long", "column", "scalar"])
def test_product_rejects_a_vector_of_the_wrong_length(monkeypatch, shape):
    # the kernel checks no bounds: a wrong length must not reach it
    calls = []
    monkeypatch.setattr(hifi, "_dia_matvec", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="dimension mismatch"):
        product(from_scipy(sparse.eye(10, format="dia")), np.ones(shape))
    assert calls == []


@pytest.mark.parametrize("kernel", ["dia_matvecs", "per-column"])
@pytest.mark.parametrize("name", ["heat1d", "s1", "s2", "s3", "heat3d"])
def test_block_product_equals_scipy_matmul_bit_for_bit(monkeypatch, name, kernel):
    # at widths 1 and 4 and the width the scoring's chunks have; a scipy
    # without dia_matvecs takes one dia_matvec call per column
    if kernel == "per-column":
        monkeypatch.setattr(hifi, "_dia_matvecs", None)
    problem = scenario(name)
    disc = discretize(problem)
    scoring = min(problem.segment_steps + 1,
                  max(1, _CHUNK_BYTES // (8 * problem.num_dofs)))
    rng = np.random.default_rng(12)
    for matrix in (disc.mass, disc.stiffness, disc.system_matrix(problem.tau)):
        for width in (1, 4, scoring):
            block = rng.standard_normal((problem.num_dofs, width))
            y = block_product(matrix, block)
            assert y.dtype == np.float64 and y.flags.c_contiguous
            assert np.array_equal(y, to_scipy(matrix) @ block)


@pytest.mark.parametrize("shape", [(9, 2), (11, 2), (10,)], ids=["short", "long", "vector"])
def test_block_product_rejects_a_block_of_the_wrong_height(monkeypatch, shape):
    calls = []
    monkeypatch.setattr(hifi, "_dia_matvecs", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="dimension mismatch"):
        block_product(from_scipy(sparse.eye(10, format="dia")), np.ones(shape))
    assert calls == []


def test_kernel_loader_names_the_missing_extension_file(tmp_path):
    path = os.path.join(tmp_path, "_sparsetools" + EXTENSION_SUFFIXES[0])
    with pytest.raises(ImportError, match=re.escape(path)):
        hifi._load_kernels(str(tmp_path))


def test_a_step_runs_no_scipy_dispatch_and_no_numpy_linalg():
    # each product is one kernel call and each norm a dot product: across 20
    # s1 steps no Python frame of scipy (its @ dispatch, isscalarlike,
    # _matmul_vector, ...) or of numpy.linalg runs
    problem = scenario("s1")
    blocks = step_blocks(problem, discretize(problem), 1)
    next(blocks)  # column 0: the system matrix and A u0 are formed here
    watched = (str(Path(scipy.__file__).parent) + "/",
               str(Path(np.linalg.__file__).parent) + "/")
    frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(watched):
            frames.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        columns = [next(blocks) for _ in range(20)]
    finally:
        sys.setprofile(None)
    assert frames == []
    assert all(np.isfinite(column).all() for column in columns)


# --- conjugate gradients -------------------------------------------------


def solve_from_zero(a, b):
    """cg_solve's solution from the zero start, whose product is zero."""
    return cg_solve(a, b, np.zeros_like(b), np.zeros_like(b), CG_RTOL)[0]


def test_cg_identity():
    a = from_scipy(sparse.eye(5, format="dia"))
    b = np.arange(5.0)
    np.testing.assert_allclose(solve_from_zero(a, b), b)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((12, 12))
    a = sparse.dia_matrix(q @ q.T + 12 * np.eye(12))
    b = rng.standard_normal(12)
    x = solve_from_zero(from_scipy(a), b)
    np.testing.assert_allclose(x, np.linalg.solve(a.toarray(), b), rtol=1e-9)


def test_cg_zero_rhs():
    a = from_scipy(sparse.eye(4, format="dia"))
    b = np.zeros(4)
    np.testing.assert_array_equal(solve_from_zero(a, b), 0.0)


def test_cg_failure_reports_residual(monkeypatch):
    monkeypatch.setattr(hifi, "_CG_MAXITER_PER_DOF", 0)
    a = from_scipy(sparse.eye(3, format="dia"))
    b = np.ones(3)
    with pytest.raises(SolverFailure) as err:
        solve_from_zero(a, b)
    assert err.value.residual > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["rhs", "x0", "ax0"])
def test_cg_rejects_non_finite_input_before_iterating(products, bad, where):
    a = from_scipy(sparse.eye(50, format="dia") * 2.0)
    rhs, x0, ax0 = np.ones(50), np.zeros(50), np.zeros(50)
    {"rhs": rhs, "x0": x0, "ax0": ax0}[where][7] = bad
    with pytest.raises(SolverFailure, match="non-finite"):
        cg_solve(a, rhs, x0, ax0, CG_RTOL)
    assert products[a] == 0


def test_cg_rejects_a_rhs_whose_norm_overflows(products):
    # every entry is finite, but ||rhs|| is not: inf <= CG_RTOL * inf would
    # accept the start vector as converged
    a = from_scipy(sparse.eye(5, format="dia"))
    with pytest.raises(SolverFailure, match="non-finite right-hand side norm"):
        solve_from_zero(a, np.full(5, 1e300))
    assert products[a] == 0


def test_step_blocks_rejects_the_load_at_the_step_where_it_overflows():
    # F.F is about 5e298 at t = 0 and grows by e^20 a step
    problem = small_problem(m=6, steps=10, u0="x", f="1e150*x*exp(10000*t)")
    blocks = step_blocks(problem, discretize(problem), 1)
    next(blocks), next(blocks)  # the columns of t = 0 and t = tau
    with pytest.raises(EvaluationError, match="overflows at t = 0.002"):
        next(blocks)


def test_cg_breaks_down_at_once_on_nan_curvature(products):
    diagonal = np.full(50, 2.0)
    diagonal[7] = np.nan
    a = from_scipy(sparse.diags(diagonal, format="dia"))
    b = np.ones(50)
    with pytest.raises(SolverFailure, match="broke down"):
        solve_from_zero(a, b)
    assert products[a] == 1  # one search direction; the start residual takes none


# --- single steps ---------------------------------------------------------


def test_single_node_geometric_recurrence():
    # one interior node: M = 2h/3 = 1/3, S = 2/h = 4
    mass, stiff = heat_operators(2)
    np.testing.assert_allclose(to_scipy(mass).toarray(), [[1 / 3]])
    np.testing.assert_allclose(to_scipy(stiff).toarray(), [[4.0]])
    tau = 1e-3
    rho = (1 / 3) / (1 / 3 + 4 * tau)
    u = np.array([1.0])
    for n in range(1, 1001):
        u = backward_euler_step(mass, stiff, np.zeros(1), u, tau)
        assert u[0] == pytest.approx(rho**n, rel=1e-12)


def test_step_zero_state_zero_load():
    mass, stiff = heat_operators(6)
    out = backward_euler_step(mass, stiff, np.zeros(5), np.zeros(5), 0.1)
    np.testing.assert_array_equal(out, 0.0)


def test_step_rejects_bad_tau():
    mass, stiff = heat_operators(4)
    with pytest.raises(ValueError):
        backward_euler_step(mass, stiff, np.zeros(3), np.zeros(3), 0.0)


# --- full runs -------------------------------------------------------------


def test_heat1d_shape():
    snaps = snapshots_of(scenario("heat1d"))
    assert snaps.data.shape == (98, 1001)


def test_zero_data_all_zero():
    snaps = snapshots_of(small_problem(u0="0"))
    np.testing.assert_array_equal(snaps.data, 0.0)


def test_energy_decay_without_source():
    problem = small_problem(m=16, steps=50)
    disc = discretize(problem)
    snaps = run_hifi(problem, disc)
    m = to_scipy(disc.mass)
    energies = [u @ (m @ u) for u in snaps.data.T]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-15)


def test_energy_decay_heat1d_every_step():
    problem = scenario("heat1d")
    disc = discretize(problem)
    snaps = run_hifi(problem, disc)
    m = to_scipy(disc.mass)
    energies = np.array([u @ (m @ u) for u in snaps.data.T])
    assert np.all(np.diff(energies) <= 0.0)


def test_residuals_at_random_steps():
    # a decaying run, a time-dependent source and a run settling under a
    # constant source exercise every branch of the CG start guess
    rng = np.random.default_rng(11)
    for f in ("x", "x*t", "10"):
        problem = small_problem(m=12, steps=40, f=f)
        disc = discretize(problem)
        snaps = run_hifi(problem, disc)
        system = to_scipy(disc.system_matrix(problem.tau))
        mass = to_scipy(disc.mass)
        for n in rng.integers(1, snaps.num_columns, size=10):
            load = assemble_load(disc.mesh, problem.f, n * problem.tau)
            rhs = mass @ snaps.data[:, n - 1] + problem.tau * load
            res = system @ snaps.data[:, n] - rhs
            assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs), (f, n)


@pytest.mark.parametrize("f", ["x", "x*t"])
@pytest.mark.parametrize("columns", [1, 7, 41, 100])
def test_step_blocks_are_fresh_slices_of_the_whole_run(f, columns):
    problem = small_problem(m=12, steps=40, f=f)  # 41 columns
    disc = discretize(problem)
    whole = run_hifi(problem, disc).data
    blocks = list(step_blocks(problem, disc, columns))
    assert [b.shape[1] for b in blocks] == [
        min(columns, 41 - start) for start in range(0, 41, columns)]
    for k, block in enumerate(blocks):
        assert block.flags.f_contiguous and block.base is None
        assert not any(np.shares_memory(block, other) for other in blocks[:k])
    np.testing.assert_array_equal(np.hstack(blocks), whole)


def start_residuals(monkeypatch, problem):
    """||b - A x0|| / ||b|| of every CG solve in one run_hifi call, each of
    whose given start products ax0 is checked against A x0."""
    residuals = []
    solve = hifi.cg_solve

    def recording(matrix, rhs, x0, ax0, rtol):
        product = to_scipy(matrix) @ x0
        assert np.linalg.norm(ax0 - product) <= 1e-12 * np.linalg.norm(product)
        residuals.append(np.linalg.norm(rhs - product) / np.linalg.norm(rhs))
        return solve(matrix, rhs, x0, ax0, rtol)

    monkeypatch.setattr(hifi, "cg_solve", recording)
    snapshots_of(problem)
    assert len(residuals) == problem.num_steps
    return np.array(residuals)


def test_start_guess_from_two_snapshots(monkeypatch):
    # a plain warm start from U_{n-1} leaves about 0.17 here
    residuals = start_residuals(monkeypatch,
                                replace(scenario("heat3d"), divisions=8))
    assert np.median(residuals[1:]) <= 1e-6


def test_start_guess_exact_for_rank_one_run(monkeypatch):
    # sin(4 pi x) is a discrete eigenvector: consecutive snapshots are
    # parallel, the two-snapshot Gram matrix is singular, and the
    # projection onto U_{n-1} alone is already the solution
    residuals = start_residuals(monkeypatch, scenario("heat1d"))
    assert residuals.max() <= 1e-12


@pytest.mark.parametrize("problem", [
    scenario("heat1d"),
    replace(scenario("heat3d"), divisions=6),
    small_problem(m=12, steps=40, f="x*t"),
], ids=["heat1d", "heat3d-m6", "time-dependent"])
def test_step_blocks_makes_no_product_for_the_cg_start(monkeypatch, products,
                                                       problem):
    # per step: M u for the right-hand side, the CG iterations and A u for
    # the next two starts; the start's product is their combination of A u
    disc = discretize(problem)
    whole = snapshots_of(problem).data
    system = disc.system_matrix(problem.tau)
    counted = SimpleNamespace(mesh=disc.mesh, mass=disc.mass, load=disc.load,
                              initial=disc.initial, system_matrix=lambda tau: system)
    in_cg = []
    solve = hifi.cg_solve

    def counting(matrix, rhs, x0, ax0, rtol):
        before = products[system]
        result = solve(matrix, rhs, x0, ax0, rtol)
        in_cg.append(products[system] - before)
        return result

    monkeypatch.setattr(hifi, "cg_solve", counting)
    blocks = list(step_blocks(problem, counted, 50))
    np.testing.assert_array_equal(np.hstack(blocks), whole)
    steps = problem.num_steps
    assert len(in_cg) == steps and products[disc.mass] == steps
    assert products[system] == sum(in_cg) + steps + 1  # A u0 and one A u a step
    if problem.name == "heat1d":
        # exactly rank one: every start is the solution, so CG makes no product
        assert sum(in_cg) == 0


def check_against_matmul_oracle(monkeypatch, products, module):
    """Replace module.cg_solve by a wrapper that first solves each system
    with the oracle on copies of the start, then asserts the same solution
    and residual bits after the same number of products; return the list
    of per-solve product counts."""
    solve = hifi.cg_solve
    counts = []

    def checked(matrix, rhs, x0, ax0, rtol):
        x_ref, r_ref, made = cg_solve_matmul(to_scipy(matrix), rhs, x0.copy(), ax0.copy(),
                                             rtol)
        before = products[matrix]
        x, r = solve(matrix, rhs, x0, ax0, rtol)
        assert products[matrix] - before == made
        assert np.array_equal(x, x_ref) and np.array_equal(r, r_ref)
        counts.append(made)
        return x, r

    monkeypatch.setattr(module, "cg_solve", checked)
    return counts


@pytest.mark.parametrize("problem", [
    scenario("s1"),
    scenario("s3"),
    replace(scenario("heat3d"), divisions=8),
], ids=["s1", "s3", "heat3d-m8"])
def test_cg_bit_identical_to_the_matmul_oracle_on_every_step(
        monkeypatch, products, problem):
    counts = check_against_matmul_oracle(monkeypatch, products, hifi)
    snapshots_of(problem)
    assert len(counts) == problem.num_steps and sum(counts) > problem.num_steps


def test_cg_bit_identical_to_the_matmul_oracle_on_operator_norm_mass_solves(
        monkeypatch, products):
    counts = check_against_matmul_oracle(monkeypatch, products, analysis)
    disc = discretize(scenario("s1"))
    analysis.operator_norm(disc.mass, disc.stiffness)
    assert len(counts) > 100 and sum(counts) > len(counts)


def spd_system(size=50, seed=5):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((size, size))
    return q @ q.T + size * np.eye(size), rng


def test_galerkin_start_solves_the_two_by_two_system():
    a, rng = spd_system()
    rhs, u1, u2 = rng.standard_normal((3, len(a)))
    basis = np.column_stack([u1, u2])
    coeffs = np.linalg.solve(basis.T @ a @ basis, basis.T @ rhs)
    start, _ = galerkin_start(rhs, u1, a @ u1, u2, a @ u2)
    np.testing.assert_allclose(start, basis @ coeffs, rtol=1e-12, atol=1e-14)


def test_galerkin_start_parallel_pair_falls_back_to_u1():
    a, rng = spd_system()
    rhs, u1 = rng.standard_normal((2, len(a)))
    u2 = -3.0 * u1
    alone = ((u1 @ rhs) / (u1 @ a @ u1)) * u1
    start, _ = galerkin_start(rhs, u1, a @ u1, u2, a @ u2)
    np.testing.assert_allclose(start, alone, rtol=1e-13, atol=1e-15)


def test_galerkin_start_without_u2_is_the_one_vector_start():
    # operator_norm's first step: with v M-normalized this is (v.Sv) v
    a, rng = spd_system()
    rhs, u1 = rng.standard_normal((2, len(a)))
    au1 = a @ u1
    start, _ = galerkin_start(rhs, u1, au1, None, None)
    assert np.array_equal(start, ((u1 @ rhs) / (u1 @ au1)) * u1)


@pytest.mark.parametrize("pair", ["independent", "parallel", "u1-alone", "u1-zero"])
def test_galerkin_start_returns_the_product_of_its_start(pair):
    a, rng = spd_system()
    rhs, u1, u2 = rng.standard_normal((3, len(a)))
    u1 = np.zeros_like(u1) if pair == "u1-zero" else u1
    u2 = {"independent": u2, "parallel": -3.0 * u1}.get(pair)
    au2 = None if u2 is None else a @ u2
    start, a_start = galerkin_start(rhs, u1, a @ u1, u2, au2)
    np.testing.assert_allclose(a_start, a @ start, rtol=1e-12, atol=1e-12)


def test_determinism_bit_identical():
    problem = small_problem(m=10, steps=30, f="x*t", u0="x*(1-x)")
    first = snapshots_of(problem)
    second = snapshots_of(problem)
    assert np.array_equal(first.data, second.data)


def test_time_dependent_load_matches_the_cell_by_cell_oracle(monkeypatch):
    problem = small_problem(m=10, steps=30, f="x*t", u0="x*(1-x)",
                            dimension=2)
    disc = discretize(problem)
    once = run_hifi(problem, disc)
    # a rerun whose step load is summed cell by cell from per-cell geometry
    monkeypatch.setattr(hifi, "assemble_load", centroid_load)
    rerun = run_hifi(problem, disc)
    scale = np.abs(once.data).max()
    assert np.abs(once.data - rerun.data).max() <= 1e-13 * scale


def test_time_dependent_source_differs_from_frozen():
    autonomous = small_problem(m=6, steps=10, f="1")
    varying = small_problem(m=6, steps=10, f="t*100")
    assert not np.allclose(snapshots_of(autonomous).data[:, -1],
                           snapshots_of(varying).data[:, -1])


def test_s3_shape():
    snaps = snapshots_of(scenario("s3"))
    assert snaps.data.shape == (961, 441)


# --- persistence -------------------------------------------------------------


def test_binary_roundtrip(tmp_path):
    problem = small_problem(m=7, steps=12, u0="x*(1-x)")
    snaps = snapshots_of(problem)
    path = tmp_path / "snapshots.bin"
    save_snapshots(snaps, path)
    back = load_snapshots(path, problem)
    assert back.tau == snaps.tau
    assert np.array_equal(back.data, snaps.data)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "not_snapshots.bin"
    path.write_bytes(b"nonsense")
    with pytest.raises(ValueError, match="not a snapshot"):
        load_snapshots(path, small_problem())


def write_header(path, m, cols, tau=0.1, payload=b""):
    path.write_bytes(b"SEAMSNP1" + struct.pack("<qqd", m, cols, tau) + payload)


def test_load_rejects_short_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"SEAMSNP1" + struct.pack("<qq", 3, 4))  # no tau
    with pytest.raises(ValueError, match="header"):
        load_snapshots(path, small_problem())


def test_load_rejects_oversized_header_without_allocating(tmp_path):
    path = tmp_path / "huge.bin"
    write_header(path, 2**50, 1, payload=b"\0" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="file has 96 bytes"):
            load_snapshots(path, small_problem())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the claimed 8 PiB, or any of it, was never requested


def test_load_holds_one_copy_of_the_payload(tmp_path):
    path = tmp_path / "snapshots.bin"
    save_snapshots(SnapshotMatrix(np.ones((500, 1000)), 0.1), path)  # 4 MB
    tracemalloc.start()
    try:
        back = load_snapshots(path, stored_run_problem(500, 1000, 0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.data.shape == (500, 1000)
    assert peak < 1.5 * back.data.nbytes


@pytest.mark.parametrize("mismatch", ["dofs", "columns", "tau"])
def test_load_rejects_problem_mismatch_before_reading(tmp_path, mismatch):
    problem = small_problem(m=1001, steps=499)  # 1000 dofs x 500 columns, 4 MB
    header = {"dofs": problem.num_dofs, "columns": problem.num_steps + 1,
              "tau": problem.tau}
    header[mismatch] += 1
    path = tmp_path / "snapshots.bin"
    write_header(path, header["dofs"], header["columns"], header["tau"],
                 payload=bytes(8 * header["dofs"] * header["columns"]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="problem has"):
            load_snapshots(path, problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the payload was never read


@pytest.mark.parametrize("m,cols", [(0, 3), (3, 0), (-1, 2)])
def test_load_rejects_empty_shape(tmp_path, m, cols):
    path = tmp_path / "empty.bin"
    write_header(path, m, cols)
    with pytest.raises(ValueError, match="claims"):
        load_snapshots(path, small_problem())


@pytest.mark.parametrize("extra", [-8, 8])
def test_load_rejects_size_mismatch(tmp_path, extra):
    path = tmp_path / "snapshots.bin"
    save_snapshots(SnapshotMatrix(np.ones((3, 4)), 0.1), path)
    data = path.read_bytes()
    path.write_bytes(data[:extra] if extra < 0 else data + b"\0" * extra)
    with pytest.raises(ValueError, match="file has"):
        load_snapshots(path, stored_run_problem(3, 4, 0.1))


def stored_ramp(tmp_path, m=3, cols=8):
    snaps = SnapshotMatrix(np.arange(m * cols, dtype=float).reshape(m, cols), 0.1)
    path = tmp_path / "snapshots.bin"
    save_snapshots(snaps, path)
    return snaps, path


def test_block_reader_yields_the_segments(tmp_path):
    snaps, path = stored_ramp(tmp_path)
    blocks = read_snapshot_blocks(path, stored_run_problem(3, 8, 0.1), 4)
    read = list(blocks)
    assert len(read) == 2
    for got, want in zip(read, snaps.segments(3)):
        assert got.flags.f_contiguous
        assert np.array_equal(got, want)


def test_block_reader_ends_with_the_remaining_columns(tmp_path):
    snaps, path = stored_ramp(tmp_path)
    blocks = read_snapshot_blocks(path, stored_run_problem(3, 8, 0.1), 3)
    read = list(blocks)
    assert [block.shape[1] for block in read] == [3, 3, 2]
    assert np.array_equal(np.hstack(read), snaps.data)


def test_block_reader_raises_on_a_short_read(tmp_path):
    _, path = stored_ramp(tmp_path, m=1024)  # 64 kB, past the read buffer
    blocks = read_snapshot_blocks(path, stored_run_problem(1024, 8, 0.1), 4)
    os.truncate(path, os.path.getsize(path) - 8)  # after the header check
    assert next(blocks).shape == (1024, 4)
    with pytest.raises(ValueError, match="ends inside a block"):
        next(blocks)


def test_block_reader_closes_the_file(tmp_path, monkeypatch):
    handles = []

    def tracked_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(hifi, "open", tracked_open, raising=False)
    _, path = stored_ramp(tmp_path)
    problem = stored_run_problem(3, 8, 0.1)
    blocks = read_snapshot_blocks(path, problem, 4)
    next(blocks)
    assert not handles[-1].closed
    blocks.close()  # the consumer stops after the first block
    assert handles[-1].closed
    load_snapshots(path, problem)
    assert handles[-1].closed
    with pytest.raises(ValueError, match="problem has"):
        read_snapshot_blocks(path, small_problem(), 4)
    assert handles[-1].closed


def test_snapshot_matrix_read_only():
    snaps = SnapshotMatrix(np.ones((2, 3)), 0.1)
    with pytest.raises(ValueError):
        snaps.data[0, 0] = 2.0
