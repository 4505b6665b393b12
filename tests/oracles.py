"""Reference implementations that the tests compare the program against.

None of these runs in the command-line pipeline: a single backward-Euler
step with its own system matrix (and the 1-D heat operators it is checked
on), the rank-one projection residual of the POD optimality identity, a
printer that turns an expression tree back into text the parser accepts,
the reduced recurrence on NumPy scalars that seam_online must match bit
for bit, conjugate gradients on scipy's ``@``, np.linalg.norm and NumPy
scalars that cg_solve must match bit for bit, and eigenvalues from the
characteristic polynomial. The Kuhn
grid's vertex, cell and interior-numbering arrays, built from
mesh.kuhn_paths, feed per-cell element geometry, an assembly by COO
triplets and a centroid-rule load vector, all cell by cell, which check
the structured assembly.
It also builds the 1-D problem that matches a stored snapshot file of any
shape, since both snapshot readers check a file against a problem, and
renders a CSV artifact as csv.writer writes its parsed fields, and
converts an operator to the scipy DIA matrix of the same offsets and data
and back, where a test hands one to scipy or takes one from it.
"""

import csv
import io

import numpy as np
import scipy.sparse as sparse

import seampde.hifi as hifi
from seampde.assembly import DiaOperator, assemble_mass, assemble_stiffness
from seampde.errors import SolverFailure
from seampde.fields import Call, Const, Neg, ProblemSpec, Var, parse_expression as expr
from seampde.hifi import CG_RTOL, cg_solve
from seampde.mesh import build_interval_mesh, kuhn_paths


def to_scipy(operator: DiaOperator) -> sparse.dia_matrix:
    """The scipy DIA matrix of the operator's offsets and data (shared)."""
    return sparse.dia_matrix((operator.data, operator.offsets), shape=operator.shape)


def from_scipy(matrix) -> DiaOperator:
    """The operator of a square scipy matrix's DIA form, each diagonal
    padded with zeros to the full n columns."""
    dia = sparse.dia_matrix(matrix)
    data = np.zeros((len(dia.offsets), dia.shape[1]))
    data[:, :dia.data.shape[1]] = dia.data
    return DiaOperator(dia.offsets, data)


def backward_euler_step(mass: DiaOperator, stiffness: DiaOperator,
                        load: np.ndarray, u_prev: np.ndarray, tau: float) -> np.ndarray:
    """One implicit Euler step: solve (M + tau*S) u = M u_prev + tau*F."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    mass, stiffness = to_scipy(mass), to_scipy(stiffness)
    system = (mass + tau * stiffness).todia()
    rhs = mass @ u_prev + tau * load
    return cg_solve(from_scipy(system), rhs, u_prev.astype(float), system @ u_prev,
                    CG_RTOL)[0]


def stored_run_problem(num_dofs: int, num_columns: int, tau: float) -> ProblemSpec:
    """A 1-D problem with ``num_dofs`` interior nodes (m = num_dofs + 1) and one
    segment of ``num_columns`` columns at step tau, the header
    load_snapshots and read_snapshot_blocks check a file against."""
    zero = expr("0")
    return ProblemSpec(name="stored", dimension=1, alpha_diag=(expr("1"),),
                       c=zero, f=zero, u0=zero, tau=tau,
                       divisions=num_dofs + 1, segment_steps=num_columns - 1,
                       segment_count=1)


def seam_online_loop(model, steps: int) -> np.ndarray:
    """The scalar recurrence with NumPy-scalar arithmetic and an array setitem
    per step; returns alpha_0..alpha_steps."""
    g = np.broadcast_to(model.load_coeff, steps)
    alphas = np.empty(steps + 1)
    alphas[0] = model.alpha0
    a = model.system_coeff
    m = model.mass_coeff
    tau = model.tau
    current = model.alpha0
    for k in range(steps):
        current = (m * current + tau * g[k]) / a
        alphas[k + 1] = current
    return alphas


def cg_solve_matmul(matrix, rhs: np.ndarray, x0: np.ndarray, ax0: np.ndarray,
                    rtol: float):
    """cg_solve with scipy's ``@`` for each product, np.linalg.norm for each
    norm and NumPy-scalar arithmetic; returns the solution, its final
    recursive residual and the number of products made."""
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
        return x, r, 0
    np.subtract(rhs, r, out=r)
    res = np.linalg.norm(r)
    if res <= rtol * rhs_norm:
        return x, r, 0
    p = r.copy()
    rs = r @ r
    for products in range(1, hifi._CG_MAXITER_PER_DOF * matrix.shape[0] + 1):
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
            return x, r, products
        p *= rs_next / rs
        p += r
        rs = rs_next
    raise SolverFailure("conjugate gradients did not converge", res / rhs_norm)


def heat_operators(m):
    """Mass and stiffness (alpha = 1, c = 0) on the interval mesh with m cells."""
    mesh = build_interval_mesh(m)
    return assemble_mass(mesh), assemble_stiffness(mesh, [expr("1")], expr("0"))


def kuhn_grid(mesh):
    """Vertices (nv, d), cells (nc, d+1) and interior numbering (nv,) of the
    mesh's Kuhn grid: vertices x fastest, cells cube by cube (low corners x
    fastest) one kuhn_paths simplex at a time, and interior vertices
    numbered 0..M-1 in vertex order (-1 on the boundary)."""
    d, m = mesh.dimension, mesh.divisions
    grid = np.indices((m + 1,) * d).reshape(d, -1)[::-1].T.copy()  # x fastest
    steps = (m + 1) ** np.arange(d, dtype=np.int64)  # vertex-id stride per axis
    low = np.flatnonzero((grid < m).all(axis=1))
    cells = (low[:, None, None] + kuhn_paths(d) @ steps).reshape(-1, d + 1)
    interior = np.full(len(grid), -1, dtype=np.int64)
    interior[((grid > 0) & (grid < m)).all(axis=1)] = np.arange((m - 1) ** d)
    return grid / m, cells, interior


def element_geometry(mesh):
    """Volumes (nc,), basis gradients (nc, d+1, d), centroids (nc, d) of
    every cell, from its vertex coordinates."""
    vertices, cells, _ = kuhn_grid(mesh)
    p = vertices[cells]
    centroids = p.mean(axis=1)
    edges = p[:, 1:, :] - p[:, :1, :]
    d = mesh.dimension
    volumes = np.linalg.det(edges) / (1, 1, 2, 6)[d]
    grads = np.empty((len(cells), d + 1, d))
    grads[:, 1:, :] = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return volumes, grads, centroids


def coo_scatter(mesh, local) -> sparse.csr_matrix:
    """Reference assembly: every element entry as a COO triplet.

    ``local(i, j)`` returns local entry (i, j) of every cell (or one value
    for all). Duplicate (row, col) pairs are summed by scipy's COO->CSR
    conversion.
    """
    _, cells, interior = kuhn_grid(mesh)
    nodes = interior[cells]
    dim = mesh.dimension + 1
    rows, cols, vals = [], [], []
    for i in range(dim):
        for j in range(dim):
            ri, rj = nodes[:, i], nodes[:, j]
            keep = (ri >= 0) & (rj >= 0)
            rows.append(ri[keep])
            cols.append(rj[keep])
            vals.append(np.broadcast_to(local(i, j), len(keep))[keep])
    m = mesh.num_interior
    coo = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    )
    return coo.tocsr()


def coo_operators(mesh, alpha_diag, c):
    """Mass and stiffness through coo_scatter on element_geometry, with the
    coefficients at each cell's vertex-mean centroid."""
    volumes, grads, centroids = element_geometry(mesh)
    d = mesh.dimension
    base = volumes / ((d + 1) * (d + 2))
    alpha = np.stack([np.broadcast_to(a(*centroids.T), len(volumes))
                      for a in alpha_diag], axis=1)
    c_vals = c(*centroids.T)
    mass = coo_scatter(mesh, lambda i, j: base * (2 if i == j else 1))
    stiffness = coo_scatter(mesh, lambda i, j: (
        volumes * np.einsum("ta,ta->t", alpha * grads[:, i], grads[:, j])
        + c_vals * base * (2 if i == j else 1)))
    return mass, stiffness


def centroid_load(mesh, f, t: float) -> np.ndarray:
    """F_k = sum_T f(centroid, t) |T| / (d+1), cell by cell."""
    volumes, _, centroids = element_geometry(mesh)
    contrib = np.broadcast_to(f(*centroids.T, t=t), len(volumes)) * volumes
    values = np.zeros(mesh.num_interior)
    _, cells, interior = kuhn_grid(mesh)
    nodes = interior[cells]
    for i in range(mesh.dimension + 1):
        keep = nodes[:, i] >= 0
        np.add.at(values, nodes[keep, i], contrib[keep] / (mesh.dimension + 1))
    return values


def charpoly_eigenvalues(x):
    """Faddeev-LeVerrier characteristic polynomial + root finding."""
    n = x.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(x)
    c = 1.0
    for k in range(1, n + 1):
        m = x @ m + c * np.eye(n)
        c = -np.trace(x @ m) / k
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)[::-1]


def csv_writer_rendering(path) -> bytes:
    """The CSV file at ``path`` parsed by csv.reader, each field turned into
    an int (or, failing that, a float; the header stays text), and written
    again by csv.writer."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(rows[0])
    for row in rows[1:]:
        writer.writerow([_number(field) for field in row])
    return buffer.getvalue().encode()


def _number(field: str):
    try:
        return int(field)
    except ValueError:
        return float(field)


def projection_residual(segment_data: np.ndarray, beta: np.ndarray) -> float:
    """Total squared misfit sum_k ||U_k - (beta . U_k) beta||^2.

    Equals the sum of the non-principal Gram eigenvalues exactly (POD
    optimality identity), which the test suite checks.
    """
    segment_data = np.asarray(segment_data, dtype=float)
    coeffs = beta @ segment_data
    residual = segment_data - np.outer(beta, coeffs)
    return float(np.einsum("ij,ij->", residual, residual))


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_string(node, parent_prec=0, right_side=False):
    """Expression text that parses back to the tree ``node``."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Neg):
        text = f"-{to_string(node.arg, 3)}"
        return f"({text})" if parent_prec > 3 else text
    prec = _PRECEDENCE[node.op]
    text = (
        f"{to_string(node.left, prec)}{node.op}"
        f"{to_string(node.right, prec, right_side=True)}"
    )
    # left-associative ops need parens when they appear as a right operand
    # of equal precedence; '-' and '/' need them even against themselves
    if parent_prec > prec or (right_side and parent_prec == prec):
        return f"({text})"
    return text
