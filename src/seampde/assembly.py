"""Linear finite-element assembly over interior nodes.

Mass entries use the closed-form simplex integrals for products of
linear nodal basis functions, so the mass matrix is exact. Variable
coefficients (diagonal diffusion, reaction, source) are frozen at each
element centroid, a one-point rule that keeps symmetry and is exact for
constant coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from seampde.mesh import Mesh


class SymmetricSparseOperator:
    """Symmetric sparse matrix in compressed-row form, both triangles stored.

    Construction verifies value symmetry to 1e-14 relative; the wrapped
    matrix is treated as immutable afterwards.
    """

    def __init__(self, matrix: sparse.spmatrix):
        matrix = sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"operator must be square, got {matrix.shape}")
        scale = abs(matrix).max() if matrix.nnz else 0.0
        if matrix.nnz:
            skew = abs(matrix - matrix.T).max()
            if skew > 1e-14 * scale:
                raise ValueError(
                    f"matrix is not symmetric (relative skew {skew / scale:.2e})"
                )
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def __matmul__(self, x):
        return self.matrix @ x

    def __repr__(self):
        return f"SymmetricSparseOperator(dim={self.dim}, nnz={self.nnz})"


@dataclass(frozen=True)
class LoadVector:
    """Assembled right-hand side together with the time it was built for."""

    values: np.ndarray
    time: float

    def __post_init__(self):
        self.values.setflags(write=False)


def element_geometry(mesh: Mesh):
    """Volumes (nc,), basis gradients (nc, d+1, d), centroids (nc, d)."""
    p = mesh.vertices[mesh.cells]
    edges = p[:, 1:, :] - p[:, :1, :]
    d = mesh.dimension
    if d == 1:
        det = edges[:, 0, 0]
        inv = (1.0 / det)[:, None, None]
    elif d == 2:
        det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        inv = np.empty_like(edges)
        inv[:, 0, 0] = edges[:, 1, 1]
        inv[:, 0, 1] = -edges[:, 0, 1]
        inv[:, 1, 0] = -edges[:, 1, 0]
        inv[:, 1, 1] = edges[:, 0, 0]
        inv /= det[:, None, None]
    else:
        det = np.linalg.det(edges)
        inv = np.linalg.inv(edges)
    volumes = det / (1, 1, 2, 6)[d]
    grads = np.empty((len(mesh.cells), d + 1, d))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    centroids = p.mean(axis=1)
    return volumes, grads, centroids


def _centroid_env(mesh: Mesh, centroids: np.ndarray, t: float = 0.0) -> dict:
    env = {"t": t}
    for axis, name in enumerate("xyz"[: mesh.dimension]):
        env[name] = centroids[:, axis]
    return env


def _scatter_symmetric(mesh: Mesh, local) -> sparse.csr_matrix:
    """Sum (d+1)x(d+1) per-element blocks into the interior-node matrix.

    ``local(i, j)`` returns the per-element values for one block entry.
    Duplicate (row, col) pairs are accumulated by the COO->CSR conversion.
    """
    nodes = mesh.interior_index[mesh.cells]  # (nc, d+1), -1 on boundary
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


def assemble_mass(mesh: Mesh, geometry=None) -> SymmetricSparseOperator:
    """Exact mass matrix of the linear nodal basis on interior nodes.

    On a d-simplex T the basis-product integral is
    |T| * (1 + delta_ij) / ((d+1)(d+2)), with no quadrature error.
    """
    volumes, _, _ = geometry or element_geometry(mesh)
    d = mesh.dimension
    base = volumes / ((d + 1) * (d + 2))
    return SymmetricSparseOperator(
        _scatter_symmetric(mesh, lambda i, j: base * (2 if i == j else 1))
    )


def assemble_stiffness(mesh: Mesh, alpha_diag, c,
                       geometry=None) -> SymmetricSparseOperator:
    """Stiffness of (alpha grad u, grad v) + (c u, v) with diagonal alpha.

    Coefficients are evaluated once per element at the centroid; the
    gradient term is otherwise exact for linear elements.
    """
    if len(alpha_diag) != mesh.dimension:
        raise ValueError(
            f"need {mesh.dimension} diagonal diffusion entries, got {len(alpha_diag)}"
        )
    volumes, grads, centroids = geometry or element_geometry(mesh)
    env = _centroid_env(mesh, centroids)
    alpha = np.empty((len(mesh.cells), mesh.dimension))
    for axis, a in enumerate(alpha_diag):
        alpha[:, axis] = a(**env)
    c_vals = np.broadcast_to(c(**env), len(mesh.cells))
    d = mesh.dimension
    mass_base = volumes / ((d + 1) * (d + 2))

    def local(i, j):
        diffusion = volumes * np.einsum("ta,ta->t", alpha * grads[:, i], grads[:, j])
        return diffusion + c_vals * mass_base * (2 if i == j else 1)

    return SymmetricSparseOperator(_scatter_symmetric(mesh, local))


def assemble_load(mesh: Mesh, f, t: float = 0.0, geometry=None) -> LoadVector:
    """Right-hand side F_k = sum_T f(centroid, t) * |T| / (d+1)."""
    volumes, _, centroids = geometry or element_geometry(mesh)
    env = _centroid_env(mesh, centroids, t)
    f_vals = np.broadcast_to(f(**env), len(mesh.cells))
    contrib = f_vals * volumes / (mesh.dimension + 1)
    values = np.zeros(mesh.num_interior)
    nodes = mesh.interior_index[mesh.cells]
    for i in range(mesh.dimension + 1):
        ri = nodes[:, i]
        keep = ri >= 0
        np.add.at(values, ri[keep], contrib[keep])
    return LoadVector(values, t)


def interpolate_initial(mesh: Mesh, u0) -> np.ndarray:
    """Nodal interpolant of the initial data on interior nodes."""
    pts = mesh.interior_nodes()
    env = {name: pts[:, axis] for axis, name in enumerate("xyz"[: mesh.dimension])}
    return np.asarray(np.broadcast_to(u0(**env), mesh.num_interior), dtype=float).copy()
