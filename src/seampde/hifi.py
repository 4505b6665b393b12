"""Backward-Euler high-fidelity time stepping and snapshot storage.

Each step solves A U_n = M U_{n-1} + tau*F_n, A = M + tau*S (scipy's DIA
sum), with unpreconditioned conjugate gradients to a 1e-12 relative
residual. CG starts from the Galerkin (A-orthogonal) projection of U_n onto
the span of the two previous solutions (Fischer's projection for successive
right-hand sides): a nearly rank-one run gets rho*U_{n-1}, a run settling
under a source gets about 2U_{n-1} - U_{n-2}. The start's product A x0 is
the same combination of the A U the loop keeps, so CG makes no product for
its first residual. The run is fully deterministic: repeating it produces
bit-identical snapshot matrices.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from seampde.assembly import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    interpolate_initial,
)
from seampde.errors import SegmentationError, SolverFailure
from seampde.fields import ProblemSpec
from seampde.mesh import Mesh, build_cube_mesh, build_interval_mesh, build_square_mesh

CG_RTOL = 1e-12
_CG_MAXITER_PER_DOF = 10  # the CG iteration cap is this times the dimension
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
    """Mesh and assembled operators for one problem; mass and stiffness are
    DIA matrices, and the system matrix M + tau*S is scipy's DIA sum."""

    mesh: Mesh
    mass: sparse.dia_matrix
    stiffness: sparse.dia_matrix
    load: np.ndarray
    initial: np.ndarray

    def system_matrix(self, tau: float) -> sparse.dia_matrix:
        return (self.mass + tau * self.stiffness).todia()


_BUILDERS = {1: build_interval_mesh, 2: build_square_mesh, 3: build_cube_mesh}


def discretize(problem: ProblemSpec) -> Discretization:
    """Assemble mesh, operators, load at t=0, and the initial vector.

    Both operators are summed straight into the Kuhn grid's diagonals.
    """
    mesh = _BUILDERS[problem.dimension](problem.divisions)
    return Discretization(
        mesh=mesh,
        mass=assemble_mass(mesh),
        stiffness=assemble_stiffness(mesh, problem.alpha_diag, problem.c),
        load=assemble_load(mesh, problem.f, 0.0),
        initial=interpolate_initial(mesh, problem.u0),
    )


def cg_solve(matrix, rhs: np.ndarray, x0: np.ndarray, ax0: np.ndarray,
             rtol: float):
    """Conjugate gradients for an SPD system from the start vector x0, given
    its product ax0 = A x0, no preconditioner. Return the solution and its
    final recursive residual.

    The start residual is rhs - ax0, so no product is made for it. Both
    vectors belong to the solver: it iterates in x0's storage and keeps the
    residual in ax0's. Converges when the 2-norm residual drops below
    ``rtol * ||rhs||``; raises SolverFailure (carrying the final relative
    residual) after ``_CG_MAXITER_PER_DOF`` times the system dimension
    iterations, at once on a curvature p.Ap that is not positive (NaN
    included), and before the first iteration when ``||rhs||`` (infinite
    also when its square overflows), ``x0`` or ``ax0`` is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_norm = np.linalg.norm(rhs)
    for name, value in (("right-hand side norm", rhs_norm), ("start vector", x0),
                        ("start product", ax0)):
        if not np.isfinite(value).all():
            raise SolverFailure(f"conjugate gradients got a non-finite {name}",
                                float("nan"))
    x, r = x0, ax0
    if rhs_norm == 0.0:
        x.fill(0.0)
        r.fill(0.0)
        return x, r
    np.subtract(rhs, r, out=r)
    res = np.linalg.norm(r)
    if res <= rtol * rhs_norm:
        return x, r
    p = r.copy()
    rs = r @ r
    for _ in range(_CG_MAXITER_PER_DOF * matrix.shape[0]):
        ap = matrix @ p
        denom = p @ ap
        if not denom > 0.0:
            raise SolverFailure("conjugate gradients broke down", res / rhs_norm)
        step = rs / denom
        x += step * p
        ap *= step
        r -= ap
        rs_next = r @ r
        res = np.sqrt(rs_next)
        if res <= rtol * rhs_norm:
            return x, r
        p *= rs_next / rs
        p += r
        rs = rs_next
    raise SolverFailure("conjugate gradients did not converge", res / rhs_norm)


def galerkin_start(rhs: np.ndarray, u1: np.ndarray, au1: np.ndarray,
                   u2: np.ndarray | None, au2: np.ndarray | None):
    """Galerkin projection x0 of A^{-1} rhs onto span{u1, u2}, given A u1 and
    A u2; return x0 and A x0, the same combination of A u1 and A u2.

    The CG start of step_blocks (A = M + tau*S, last two snapshots) and of
    analysis.operator_norm (A = M, last two power iterates). u2 is
    A-orthogonalized against u1, so no product of two Gram entries is formed;
    without u2, or parallel to u1, x0 is (u1.rhs / u1.A u1) u1 (zero for u1 = 0).
    """
    g11 = u1 @ au1
    if not g11 > 0.0:
        return np.zeros_like(rhs), np.zeros_like(rhs)
    b1 = u1 @ rhs
    if u2 is not None:
        g12, g22 = u1 @ au2, u2 @ au2
        r = g12 / g11
        w2 = g22 - r * g12  # ||u2 - r u1||_A^2
        if w2 > _PARALLEL_RTOL * g22:
            cw = (u2 @ rhs - r * b1) / w2
            c1 = b1 / g11 - cw * r
            start, a_start = c1 * u1, c1 * au1
            start += cw * u2  # summed in place: a step's peak holds one vector less
            a_start += cw * au2
            return start, a_start
    c1 = b1 / g11
    return c1 * u1, c1 * au1


def step_blocks(problem: ProblemSpec, disc: Discretization, columns: int):
    """Step the full discretization; yield its N+1 solution columns as fresh
    Fortran-ordered (dofs, columns) blocks, the last one possibly narrower.
    A block is dropped here before the next one is allocated.

    tau*F is formed once, and again each step only when the source term
    depends on t; all built-in scenarios are autonomous. Each solution's A U is
    a true product, formed once by the step that produced it, for the next
    two start guesses and their products; one taken from CG's recursive
    residual would carry its error from step to step.
    """
    n_steps = problem.num_steps
    mass = disc.mass
    system = disc.system_matrix(problem.tau)
    time_dependent = "t" in problem.f.variables
    tau_f = problem.tau * disc.load
    u = disc.initial.copy()
    au = system @ u
    u_prev = au_prev = None
    for n in range(n_steps + 1):
        if n % columns == 0:
            block = np.empty((len(u), min(columns, n_steps + 1 - n)), order="F")
        if n > 0:
            if time_dependent:
                tau_f = problem.tau * assemble_load(disc.mesh, problem.f,
                                                    n * problem.tau)
            rhs = mass @ u + tau_f
            start, a_start = galerkin_start(rhs, u, au, u_prev, au_prev)
            u_prev, au_prev = u, au
            u, _ = cg_solve(system, rhs, start, a_start, CG_RTOL)
            au = system @ u
        block[:, n % columns] = u
        if n % columns == block.shape[1] - 1:
            yield block
            del block


def run_hifi(problem: ProblemSpec, disc: Discretization) -> SnapshotMatrix:
    """All N+1 solution columns, as the one block of step_blocks."""
    [data] = step_blocks(problem, disc, problem.num_steps + 1)
    return SnapshotMatrix(data, problem.tau)


@contextmanager
def snapshot_writer(path, num_dofs: int, num_columns: int, tau: float):
    """Write a snapshot file (little-endian magic, int64 M, int64 N+1, float64
    tau, columns) through the yielded appender of (M, columns) blocks. It is
    renamed into place when the body completes; a body that raises leaves
    ``path`` as it was, so a file being read may also be the one rewritten."""
    partial = f"{path}.partial"
    with open(partial, "wb") as fh:
        try:
            fh.write(_MAGIC + _HEADER.pack(num_dofs, num_columns, tau))
            yield lambda block: fh.write(np.ascontiguousarray(block.T, dtype="<f8"))
        except BaseException:
            fh.close()
            os.remove(partial)
            raise
    os.replace(partial, path)


def save_snapshots(snapshots: SnapshotMatrix, path) -> None:
    """Write the snapshot matrix in the binary format of snapshot_writer."""
    with snapshot_writer(path, snapshots.num_dofs, snapshots.num_columns,
                         snapshots.tau) as append:
        append(snapshots.data)


def load_snapshots(path, problem: ProblemSpec) -> SnapshotMatrix:
    """Read a whole snapshot file, checked as by read_snapshot_blocks."""
    [data] = read_snapshot_blocks(path, problem, problem.num_steps + 1)
    return SnapshotMatrix(data, problem.tau)


def read_snapshot_blocks(path, problem: ProblemSpec, columns: int):
    """Check the header (file size, and the problem's dofs, N+1 and tau)
    now; return a generator of fresh (M, columns) blocks, the last one
    possibly narrower, each dropped here before the next is read. A short
    read raises ValueError; closing the generator closes the file."""
    blocks = _snapshot_blocks(path, problem, columns)
    next(blocks)  # runs the header check
    return blocks


def _snapshot_blocks(path, problem, columns):
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
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
        wanted = (problem.num_dofs, problem.num_steps + 1, problem.tau)
        if (m, cols, tau) != wanted:
            raise ValueError(f"{path}: snapshot file has (dofs, columns, tau) "
                             f"= {(m, cols, tau)}, problem has {wanted}")
        yield
        for start in range(0, cols, columns):
            block = np.empty((min(columns, cols - start), m), dtype="<f8")
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"{path}: snapshot file ends inside a block")
            yield block.T
            del block
