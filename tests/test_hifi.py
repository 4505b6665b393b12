import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse

import seampde.assembly as assembly
import seampde.hifi as hifi
from seampde.assembly import assemble_load, element_geometry
from seampde.errors import SolverFailure
from seampde.fields import ProblemSpec, parse_expression as expr, scenario
from seampde.hifi import (
    cg_solve,
    discretize,
    galerkin_start,
    load_snapshots,
    read_snapshot_blocks,
    run_hifi,
    save_snapshots,
    SnapshotMatrix,
)

from oracles import backward_euler_step, heat_operators, stored_run_problem


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


# --- conjugate gradients -------------------------------------------------


def test_cg_identity():
    a = sparse.eye(5, format="csr")
    b = np.arange(5.0)
    np.testing.assert_allclose(cg_solve(a, b, x0=np.zeros_like(b)), b)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((12, 12))
    a = sparse.csr_matrix(q @ q.T + 12 * np.eye(12))
    b = rng.standard_normal(12)
    x = cg_solve(a, b, x0=np.zeros_like(b))
    np.testing.assert_allclose(x, np.linalg.solve(a.toarray(), b), rtol=1e-9)


def test_cg_zero_rhs():
    a = sparse.eye(4, format="csr")
    b = np.zeros(4)
    np.testing.assert_array_equal(cg_solve(a, b, x0=np.zeros_like(b)), 0.0)


def test_cg_failure_reports_residual(monkeypatch):
    monkeypatch.setattr(hifi, "_CG_MAXITER_PER_DOF", 0)
    a = sparse.eye(3, format="csr")
    b = np.ones(3)
    with pytest.raises(SolverFailure) as err:
        cg_solve(a, b, x0=np.zeros_like(b))
    assert err.value.residual > 0


class CountingMatrix:
    """Wraps a matrix and counts its products with vectors."""

    def __init__(self, matrix):
        self.matrix_ = matrix
        self.shape = matrix.shape
        self.matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.matrix_ @ x


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["rhs", "x0"])
def test_cg_rejects_non_finite_input_before_iterating(bad, where):
    a = CountingMatrix(sparse.eye(50, format="csr") * 2.0)
    rhs, x0 = np.ones(50), np.zeros(50)
    {"rhs": rhs, "x0": x0}[where][7] = bad
    with pytest.raises(SolverFailure, match="non-finite"):
        cg_solve(a, rhs, x0=x0)
    assert a.matvecs == 0


def test_cg_breaks_down_at_once_on_nan_curvature():
    diagonal = np.full(50, 2.0)
    diagonal[7] = np.nan
    a = CountingMatrix(sparse.diags(diagonal, format="csr"))
    b = np.ones(50)
    with pytest.raises(SolverFailure, match="broke down"):
        cg_solve(a, b, x0=np.zeros_like(b))
    assert a.matvecs <= 2  # the residual and one search direction


# --- single steps ---------------------------------------------------------


def test_single_node_geometric_recurrence():
    # one interior node: M = 2h/3 = 1/3, S = 2/h = 4
    mass, stiff = heat_operators(2)
    np.testing.assert_allclose(mass.toarray(), [[1 / 3]])
    np.testing.assert_allclose(stiff.toarray(), [[4.0]])
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
    m = disc.mass
    energies = [u @ (m @ u) for u in snaps.data.T]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-15)


def test_energy_decay_heat1d_every_step():
    problem = scenario("heat1d")
    disc = discretize(problem)
    snaps = run_hifi(problem, disc)
    m = disc.mass
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
        system = disc.system_matrix(problem.tau)
        mass = disc.mass
        geometry = element_geometry(disc.mesh)
        for n in rng.integers(1, snaps.num_columns, size=10):
            load = assemble_load(disc.mesh, problem.f, n * problem.tau, geometry)
            rhs = mass @ snaps.column(n - 1) + problem.tau * load
            res = system @ snaps.column(n) - rhs
            assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs), (f, n)


def start_residuals(monkeypatch, problem):
    """||b - A x0|| / ||b|| of every CG solve in one run_hifi call."""
    residuals = []
    solve = hifi.cg_solve

    def recording(matrix, rhs, **kwargs):
        x0 = kwargs["x0"]
        residuals.append(np.linalg.norm(rhs - matrix @ x0) / np.linalg.norm(rhs))
        return solve(matrix, rhs, **kwargs)

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


def spd_system(size=50, seed=5):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((size, size))
    return q @ q.T + size * np.eye(size), rng


def test_galerkin_start_solves_the_two_by_two_system():
    a, rng = spd_system()
    rhs, u1, u2 = rng.standard_normal((3, len(a)))
    basis = np.column_stack([u1, u2])
    coeffs = np.linalg.solve(basis.T @ a @ basis, basis.T @ rhs)
    start = galerkin_start(rhs, u1, a @ u1, u2, a @ u2)
    np.testing.assert_allclose(start, basis @ coeffs, rtol=1e-12, atol=1e-14)


def test_galerkin_start_parallel_pair_falls_back_to_u1():
    a, rng = spd_system()
    rhs, u1 = rng.standard_normal((2, len(a)))
    u2 = -3.0 * u1
    alone = ((u1 @ rhs) / (u1 @ a @ u1)) * u1
    start = galerkin_start(rhs, u1, a @ u1, u2, a @ u2)
    np.testing.assert_allclose(start, alone, rtol=1e-13, atol=1e-15)


def test_galerkin_start_without_u2_is_the_one_vector_start():
    # operator_norm's first step: with v M-normalized this is (v.Sv) v
    a, rng = spd_system()
    rhs, u1 = rng.standard_normal((2, len(a)))
    au1 = a @ u1
    start = galerkin_start(rhs, u1, au1, None, None)
    assert np.array_equal(start, ((u1 @ rhs) / (u1 @ au1)) * u1)


def test_determinism_bit_identical():
    problem = small_problem(m=10, steps=30, f="x*t", u0="x*(1-x)")
    first = snapshots_of(problem)
    second = snapshots_of(problem)
    assert np.array_equal(first.data, second.data)


def test_time_dependent_run_computes_geometry_once(monkeypatch):
    problem = small_problem(m=10, steps=30, f="x*t", u0="x*(1-x)",
                            dimension=2)
    disc = discretize(problem)
    calls = []
    geometry = hifi.element_geometry

    def counting(mesh):
        calls.append(mesh)
        return geometry(mesh)

    monkeypatch.setattr(hifi, "element_geometry", counting)
    monkeypatch.setattr(assembly, "element_geometry", counting)
    once = run_hifi(problem, disc)
    assert len(calls) == 1
    monkeypatch.setattr(hifi, "element_geometry", geometry)
    monkeypatch.setattr(assembly, "element_geometry", geometry)

    # a rerun that assembles the load, geometry included, on every step
    assemble = hifi.assemble_load
    monkeypatch.setattr(hifi, "assemble_load",
                        lambda mesh, f, t, _: assemble(mesh, f, t, geometry(mesh)))
    assert np.array_equal(once.data, run_hifi(problem, disc).data)


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
    tau, blocks = read_snapshot_blocks(path, stored_run_problem(3, 8, 0.1), 4)
    assert tau == snaps.tau
    read = list(blocks)
    assert len(read) == 2
    for got, want in zip(read, snaps.segments(3)):
        assert got.flags.f_contiguous
        assert np.array_equal(got, want)


def test_block_reader_ends_with_the_remaining_columns(tmp_path):
    snaps, path = stored_ramp(tmp_path)
    _, blocks = read_snapshot_blocks(path, stored_run_problem(3, 8, 0.1), 3)
    read = list(blocks)
    assert [block.shape[1] for block in read] == [3, 3, 2]
    assert np.array_equal(np.hstack(read), snaps.data)


def test_block_reader_raises_on_a_short_read(tmp_path):
    _, path = stored_ramp(tmp_path, m=1024)  # 64 kB, past the read buffer
    _, blocks = read_snapshot_blocks(path, stored_run_problem(1024, 8, 0.1), 4)
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
    _, blocks = read_snapshot_blocks(path, problem, 4)
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
