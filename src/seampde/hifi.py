"""Backward-Euler high-fidelity time stepping and snapshot storage.

Each step solves A U_n = M U_{n-1} + tau*F_n, A = M + tau*S, with
unpreconditioned conjugate gradients to a 1e-12 relative residual. CG
starts from the Galerkin (A-orthogonal) projection of U_n onto the span of
the two previous solutions (Fischer's projection for successive right-hand
sides): a nearly rank-one run gets rho*U_{n-1}, a run settling under a
source gets about 2U_{n-1} - U_{n-2}. The run is fully deterministic:
repeating it produces bit-identical snapshot matrices.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from seampde.assembly import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    element_geometry,
    interpolate_initial,
    sparsity_pattern,
)
from seampde.errors import SegmentationError, SolverFailure
from seampde.fields import ProblemSpec
from seampde.mesh import Mesh, build_cube_mesh, build_interval_mesh, build_square_mesh

CG_RTOL = 1e-12
# Below this share of ||U_{n-2}||_A^2 outside U_{n-1} (ten times the
# round-off it shows on exactly rank-one runs), the two previous solutions
# count as parallel and the start guess uses U_{n-1} alone.
_PARALLEL_RTOL = 1e-14

_MAGIC = b"SEAMSNP1"
_HEADER = struct.Struct("<qqd")


@dataclass(frozen=True)
class SnapshotMatrix:
    """Dense M x (N+1) matrix whose columns are solution vectors."""

    data: np.ndarray
    tau: float

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

    def segments(self, segment_steps: int):
        """Views of the consecutive blocks of segment_steps+1 columns.

        Raises SegmentationError at once unless the columns split exactly.
        """
        cols = segment_steps + 1
        if cols < 1 or self.num_columns % cols != 0:
            raise SegmentationError(f"{self.num_columns} snapshot columns do not "
                                    f"split into segments of {cols}")
        return (self.data[:, k:k + cols] for k in range(0, self.num_columns, cols))


@dataclass(frozen=True)
class Discretization:
    """Mesh and assembled operators for one problem.

    Mass and stiffness share one CSR pattern (``indptr`` and ``indices``),
    so the system matrix is a sum of their data arrays.
    """

    mesh: Mesh
    mass: sparse.csr_matrix
    stiffness: sparse.csr_matrix
    load: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        if not (np.shares_memory(self.mass.indices, self.stiffness.indices)
                and np.shares_memory(self.mass.indptr, self.stiffness.indptr)):
            raise ValueError("mass and stiffness must share one sparsity pattern")

    def system_matrix(self, tau: float) -> sparse.csr_matrix:
        return sparse.csr_matrix(
            (self.mass.data + tau * self.stiffness.data, self.mass.indices,
             self.mass.indptr), shape=self.mass.shape)


_BUILDERS = {1: build_interval_mesh, 2: build_square_mesh, 3: build_cube_mesh}


def discretize(problem: ProblemSpec) -> Discretization:
    """Assemble mesh, operators, load at t=0, and the initial vector.

    One sparsity pattern serves both operators and one element-geometry
    pass serves the three assemblers; neither is kept.
    """
    mesh = _BUILDERS[problem.dimension](problem.divisions)
    pattern = sparsity_pattern(mesh)
    geometry = element_geometry(mesh)
    return Discretization(
        mesh=mesh,
        mass=assemble_mass(mesh, geometry, pattern),
        stiffness=assemble_stiffness(mesh, problem.alpha_diag, problem.c,
                                     geometry, pattern),
        load=assemble_load(mesh, problem.f, 0.0, geometry),
        initial=interpolate_initial(mesh, problem.u0),
    )


def cg_solve(matrix, rhs: np.ndarray, *, rtol: float = CG_RTOL,
             maxiter: int | None = None, x0: np.ndarray | None = None) -> np.ndarray:
    """Conjugate gradients for an SPD system, no preconditioner.

    Converges when the 2-norm residual drops below ``rtol * ||rhs||``;
    raises SolverFailure (carrying the final relative residual) at the
    iteration cap, which defaults to 10x the system dimension, at once on a
    curvature p.Ap that is not positive (NaN included), and before the
    first iteration when ``rhs`` or ``x0`` is not finite.
    """
    for name, vector in (("right-hand side", rhs), ("start vector", x0)):
        if vector is not None and not np.isfinite(vector).all():
            raise SolverFailure(f"conjugate gradients got a non-finite {name}",
                                float("nan"))
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    if maxiter is None:
        maxiter = 10 * matrix.shape[0]
    x = np.zeros_like(rhs) if x0 is None else x0.astype(float, copy=True)
    r = rhs - matrix @ x
    res = np.linalg.norm(r)
    if res <= rtol * rhs_norm:
        return x
    p = r.copy()
    rs = r @ r
    for _ in range(maxiter):
        ap = matrix @ p
        denom = p @ ap
        if not denom > 0.0:
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


def backward_euler_step(mass: sparse.csr_matrix, stiffness: sparse.csr_matrix,
                        load: np.ndarray, u_prev: np.ndarray, tau: float) -> np.ndarray:
    """One implicit Euler step: solve (M + tau*S) u = M u_prev + tau*F."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    system = mass + tau * stiffness
    rhs = mass @ u_prev + tau * load
    return cg_solve(system, rhs, x0=u_prev)


def galerkin_start(rhs: np.ndarray, u1: np.ndarray, au1: np.ndarray,
                   u2: np.ndarray | None, au2: np.ndarray | None) -> np.ndarray:
    """Galerkin projection of A^{-1} rhs onto span{u1, u2}, given A u1 and A u2.

    The CG start of run_hifi (A = M + tau*S, last two snapshots) and of
    analysis.operator_norm (A = M, last two power iterates). u2 is
    A-orthogonalized against u1, so no product of two Gram entries is formed;
    without u2, or parallel to u1, it is (u1.rhs / u1.A u1) u1 (zero for u1 = 0).
    """
    g11 = u1 @ au1
    if not g11 > 0.0:
        return np.zeros_like(rhs)
    b1 = u1 @ rhs
    if u2 is not None:
        g12, g22 = u1 @ au2, u2 @ au2
        r = g12 / g11
        w2 = g22 - r * g12  # ||u2 - r u1||_A^2
        if w2 > _PARALLEL_RTOL * g22:
            cw = (u2 @ rhs - r * b1) / w2
            return (b1 / g11 - cw * r) * u1 + cw * u2
    return (b1 / g11) * u1


def run_hifi(problem: ProblemSpec, disc: Discretization | None = None) -> SnapshotMatrix:
    """Step the full discretization and collect all N+1 solution columns.

    The load vector is reassembled each step only when the source term
    depends on t, from element volumes and centroids computed once for the
    run; all built-in scenarios are autonomous. Each solution's A U is
    formed once, by the step that produced it, for the next two start
    guesses.
    """
    if disc is None:
        disc = discretize(problem)
    n_steps = problem.num_steps
    mass = disc.mass
    system = disc.system_matrix(problem.tau)
    time_dependent = problem.f.depends_on("t")
    if time_dependent:
        volumes, _, centroids = element_geometry(disc.mesh)
        geometry = (volumes, None, centroids)
    f = disc.load
    data = np.empty((len(disc.initial), n_steps + 1), order="F")
    data[:, 0] = disc.initial
    u = disc.initial.copy()
    au = system @ u
    u_prev = au_prev = None
    for n in range(1, n_steps + 1):
        if time_dependent:
            f = assemble_load(disc.mesh, problem.f, n * problem.tau, geometry)
        rhs = mass @ u + problem.tau * f
        start = galerkin_start(rhs, u, au, u_prev, au_prev)
        u_prev, au_prev = u, au
        u = cg_solve(system, rhs, x0=start)
        au = system @ u
        data[:, n] = u
    return SnapshotMatrix(data, problem.tau)


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
    """Read a snapshot file, checking its header before the payload.

    The header must match the file size and, when ``problem`` is given,
    the problem's dof count, column count N+1 and time step.
    """
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
        if problem is not None:
            wanted = (problem.num_dofs, problem.num_steps + 1, problem.tau)
            if (m, cols, tau) != wanted:
                raise ValueError(f"{path}: snapshot file has (dofs, columns, tau) "
                                 f"= {(m, cols, tau)}, problem has {wanted}")
        raw = np.frombuffer(fh.read(8 * m * cols), dtype="<f8")
    return SnapshotMatrix(raw.reshape(cols, m).T, tau)
