"""Backward-Euler high-fidelity time stepping and snapshot storage.

Each step solves (M + tau*S) U_n = M U_{n-1} + tau*F_n with unpreconditioned
conjugate gradients to a 1e-12 relative residual, warm-started from the
previous solution. The run is fully deterministic: repeating it produces
bit-identical snapshot matrices.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from seampde.assembly import (
    LoadVector,
    SymmetricSparseOperator,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    interpolate_initial,
)
from seampde.errors import SolverFailure
from seampde.fields import ProblemSpec
from seampde.mesh import Mesh, build_cube_mesh, build_interval_mesh, build_square_mesh

CG_RTOL = 1e-12

_MAGIC = b"SEAMSNP1"
_HEADER = struct.Struct("<qqd")


@dataclass(frozen=True)
class SnapshotMatrix:
    """Dense M x (N+1) matrix whose columns are solution vectors."""

    data: np.ndarray
    tau: float
    problem: ProblemSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "data", np.asfortranarray(self.data, dtype=float))
        self.data.setflags(write=False)

    @property
    def num_dofs(self) -> int:
        return self.data.shape[0]

    @property
    def num_columns(self) -> int:
        return self.data.shape[1]

    def column(self, k: int) -> np.ndarray:
        return self.data[:, k]


@dataclass(frozen=True)
class Discretization:
    """Mesh and assembled operators for one problem."""

    mesh: Mesh
    mass: SymmetricSparseOperator
    stiffness: SymmetricSparseOperator
    load: LoadVector
    initial: np.ndarray

    def system_matrix(self, tau: float) -> sparse.csr_matrix:
        return (self.mass.matrix + tau * self.stiffness.matrix).tocsr()


_BUILDERS = {1: build_interval_mesh, 2: build_square_mesh, 3: build_cube_mesh}


def discretize(problem: ProblemSpec) -> Discretization:
    """Assemble mesh, operators, load at t=0, and the initial vector."""
    mesh = _BUILDERS[problem.dimension](problem.divisions)
    return Discretization(
        mesh=mesh,
        mass=assemble_mass(mesh),
        stiffness=assemble_stiffness(mesh, problem.alpha_diag, problem.c),
        load=assemble_load(mesh, problem.f, t=0.0),
        initial=interpolate_initial(mesh, problem.u0),
    )


def cg_solve(matrix, rhs: np.ndarray, *, rtol: float = CG_RTOL,
             maxiter: int | None = None, x0: np.ndarray | None = None) -> np.ndarray:
    """Conjugate gradients for an SPD system, no preconditioner.

    Converges when the 2-norm residual drops below ``rtol * ||rhs||``;
    raises SolverFailure (carrying the final relative residual) at the
    iteration cap, which defaults to 10x the system dimension.
    """
    a = matrix.matrix if isinstance(matrix, SymmetricSparseOperator) else matrix
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    if maxiter is None:
        maxiter = 10 * a.shape[0]
    x = np.zeros_like(rhs) if x0 is None else x0.astype(float, copy=True)
    r = rhs - a @ x
    res = np.linalg.norm(r)
    if res <= rtol * rhs_norm:
        return x
    p = r.copy()
    rs = r @ r
    for _ in range(maxiter):
        ap = a @ p
        denom = p @ ap
        if denom <= 0.0:
            raise SolverFailure("conjugate gradients broke down", res / rhs_norm)
        step = rs / denom
        x += step * p
        r -= step * ap
        rs_next = r @ r
        res = np.sqrt(rs_next)
        if res <= rtol * rhs_norm:
            return x
        p = r + (rs_next / rs) * p
        rs = rs_next
    raise SolverFailure("conjugate gradients did not converge", res / rhs_norm)


def backward_euler_step(mass: SymmetricSparseOperator,
                        stiffness: SymmetricSparseOperator,
                        load, u_prev: np.ndarray, tau: float) -> np.ndarray:
    """One implicit Euler step: solve (M + tau*S) u = M u_prev + tau*F."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    f = load.values if isinstance(load, LoadVector) else np.asarray(load)
    system = mass.matrix + tau * stiffness.matrix
    rhs = mass.matrix @ u_prev + tau * f
    return cg_solve(system, rhs, x0=u_prev)


def run_hifi(problem: ProblemSpec, disc: Discretization | None = None) -> SnapshotMatrix:
    """Step the full discretization and collect all N+1 solution columns.

    The load vector is reassembled each step only when the source term
    depends on t; all built-in scenarios are autonomous.
    """
    if disc is None:
        disc = discretize(problem)
    n_steps = problem.num_steps
    mass = disc.mass.matrix
    system = disc.system_matrix(problem.tau)
    time_dependent = problem.f.depends_on("t")
    f = disc.load.values
    data = np.empty((len(disc.initial), n_steps + 1), order="F")
    data[:, 0] = disc.initial
    u = disc.initial.copy()
    for n in range(1, n_steps + 1):
        if time_dependent:
            f = assemble_load(disc.mesh, problem.f, t=n * problem.tau).values
        u = cg_solve(system, mass @ u + problem.tau * f, x0=u)
        data[:, n] = u
    return SnapshotMatrix(data, problem.tau, problem)


def write_snapshot_file(path, num_dofs: int, num_columns: int, tau: float,
                        blocks) -> None:
    """Flat little-endian binary: magic, int64 M, int64 N+1, float64 tau, columns.

    ``blocks`` yields consecutive runs of columns, each as a C-ordered
    (columns, M) array, so every block is written from its own buffer.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(num_dofs, num_columns, tau))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def save_snapshots(snapshots: SnapshotMatrix, path) -> None:
    """Write the snapshot matrix in the binary format of write_snapshot_file."""
    write_snapshot_file(path, snapshots.num_dofs, snapshots.num_columns,
                        snapshots.tau, [snapshots.data.T])


def load_snapshots(path, problem: ProblemSpec | None = None) -> SnapshotMatrix:
    """Read a snapshot file, checking its header against the file size first."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a snapshot file")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header")
        m, cols, tau = _HEADER.unpack(header)
        if m < 1 or cols < 1:
            raise ValueError(f"{path}: header claims {m} dofs and {cols} columns")
        expected = len(_MAGIC) + _HEADER.size + 8 * m * cols
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: header claims {m} x {cols} values "
                             f"({expected} bytes), file has {size} bytes")
        raw = np.frombuffer(fh.read(8 * m * cols), dtype="<f8")
    return SnapshotMatrix(raw.reshape(cols, m).T, tau, problem)
