"""Linear finite-element assembly over interior nodes.

Mass entries use the closed-form simplex integrals for products of
linear nodal basis functions, so the mass matrix is exact. Variable
coefficients (diagonal diffusion, reaction, source) are frozen at each
element centroid, a one-point rule that keeps symmetry and is exact for
constant coefficients.

Both operators are summed into one shared sparsity pattern: the
interior-node CSR ``indptr`` and ``indices`` (int32), plus, for each of the
(d+1)^2 local entries (i, j), an int32 map from element to nonzero slot.
Each operator sums its per-element values into that pattern with
``np.bincount``, so mass and stiffness share ``indptr`` and ``indices``
and M + tau*S is a sum of data arrays. The pattern is built once per
discretization from the element-node incidence matrix, without a key list
over all element entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from seampde.errors import EvaluationError
from seampde.mesh import Mesh


def element_geometry(mesh: Mesh):
    """Volumes (nc,), basis gradients (nc, d+1, d), centroids (nc, d)."""
    p = mesh.vertices[mesh.cells]
    centroids = p.mean(axis=1)
    edges = p[:, 1:, :] - p[:, :1, :]
    del p  # the largest temporary; freed before the inverses are formed
    d = mesh.dimension
    volumes = np.linalg.det(edges) / (1, 1, 2, 6)[d]
    inv = np.linalg.inv(edges)
    del edges
    grads = np.empty((len(mesh.cells), d + 1, d))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return volumes, grads, centroids


@dataclass(frozen=True)
class SparsityPattern:
    """Interior-node CSR pattern of a mesh, with each element entry's slot.

    ``slots[i, j, e]`` is the nonzero that local entry (i, j) of element e
    sums into, or ``nnz`` (a slot that is dropped) when either node lies on
    the boundary.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray  # (d+1, d+1, nc) int32


def sparsity_pattern(mesh: Mesh) -> SparsityPattern:
    """Couple every two interior nodes that share an element.

    The pattern is the Gram product of the element-node incidence matrix,
    so no per-entry key list of all elements is formed; the slot map is
    then found one local (i, j) pair at a time.
    """
    nodes = mesh.interior_index[mesh.cells]  # (nc, d+1), -1 on boundary
    keep = nodes >= 0
    n = mesh.num_interior
    incidence = sparse.csr_matrix(
        (np.ones(keep.sum(), dtype=bool), nodes[keep],
         np.concatenate([[0], np.cumsum(keep.sum(axis=1))])),
        shape=(len(nodes), n),
    )
    coupling = (incidence.T @ incidence).tocsr()
    coupling.sort_indices()
    keys = (np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(coupling.indptr))
            + coupling.indices)
    dim = mesh.dimension + 1
    slots = np.empty((dim, dim, len(nodes)), dtype=np.int32)
    for i in range(dim):
        for j in range(dim):
            ri, rj = nodes[:, i], nodes[:, j]
            slot = np.searchsorted(keys, ri * n + rj)
            slot[(ri < 0) | (rj < 0)] = len(keys)
            slots[i, j] = slot
    return SparsityPattern(coupling.indptr, coupling.indices, slots)


def _sum_into(pattern: SparsityPattern, local) -> sparse.csr_matrix:
    """Sum (d+1)x(d+1) per-element blocks into the shared pattern.

    ``local(i, j)`` returns the per-element values for one block entry.
    Every operator is built here, so each is checked once for value
    symmetry to 1e-14 relative; the result is treated as immutable.
    """
    dim, _, cells = pattern.slots.shape
    size = len(pattern.indices) + 1  # the last slot collects boundary entries
    data = np.zeros(size)
    for i in range(dim):
        for j in range(dim):
            data += np.bincount(pattern.slots[i, j],
                                weights=np.broadcast_to(local(i, j), cells),
                                minlength=size)
    n = len(pattern.indptr) - 1
    matrix = sparse.csr_matrix((data[:-1], pattern.indices, pattern.indptr),
                               shape=(n, n))
    if matrix.nnz:
        scale = abs(matrix).max()
        skew = abs(matrix - matrix.T).max()
        if skew > 1e-14 * scale:
            raise ValueError(
                f"matrix is not symmetric (relative skew {skew / scale:.2e})")
    return matrix


def assemble_mass(mesh: Mesh, geometry, pattern: SparsityPattern) -> sparse.csr_matrix:
    """Exact mass matrix of the linear nodal basis on interior nodes.

    On a d-simplex T the basis-product integral is
    |T| * (1 + delta_ij) / ((d+1)(d+2)), with no quadrature error.
    ``geometry`` is the mesh's element_geometry.
    """
    volumes, _, _ = geometry
    d = mesh.dimension
    base = volumes / ((d + 1) * (d + 2))
    return _sum_into(pattern, lambda i, j: base * (2 if i == j else 1))


def assemble_stiffness(mesh: Mesh, alpha_diag, c, geometry,
                       pattern: SparsityPattern) -> sparse.csr_matrix:
    """Stiffness of (alpha grad u, grad v) + (c u, v) with diagonal alpha.

    Coefficients are evaluated once per element at the centroid, where
    they must all be finite; the gradient term is otherwise exact for
    linear elements.
    """
    if len(alpha_diag) != mesh.dimension:
        raise ValueError(
            f"need {mesh.dimension} diagonal diffusion entries, got {len(alpha_diag)}"
        )
    volumes, grads, centroids = geometry
    alpha = np.empty((len(mesh.cells), mesh.dimension))
    for axis, a in enumerate(alpha_diag):
        alpha[:, axis] = a(*centroids.T)
    c_vals = np.broadcast_to(c(*centroids.T), len(mesh.cells))
    if not (np.isfinite(alpha).all() and np.isfinite(c_vals).all()):
        raise EvaluationError(
            "diffusion or reaction coefficient is not finite at every centroid")
    d = mesh.dimension
    mass_base = volumes / ((d + 1) * (d + 2))

    def local(i, j):
        diffusion = volumes * np.einsum("ta,ta->t", alpha * grads[:, i], grads[:, j])
        return diffusion + c_vals * mass_base * (2 if i == j else 1)

    return _sum_into(pattern, local)


def assemble_load(mesh: Mesh, f, t: float, geometry) -> np.ndarray:
    """Read-only right-hand side F_k = sum_T f(centroid, t) * |T| / (d+1).

    Only the volumes and centroids of ``geometry`` are read; f must be
    finite at every centroid.
    """
    volumes, _, centroids = geometry
    f_vals = np.broadcast_to(f(*centroids.T, t=t), len(mesh.cells))
    if not np.isfinite(f_vals).all():
        raise EvaluationError(
            f"source term is not finite at every centroid at t = {t!r}")
    contrib = f_vals * volumes / (mesh.dimension + 1)
    values = np.zeros(mesh.num_interior)
    nodes = mesh.interior_index[mesh.cells]
    for i in range(mesh.dimension + 1):
        ri = nodes[:, i]
        keep = ri >= 0
        np.add.at(values, ri[keep], contrib[keep])
    values.setflags(write=False)
    return values


def interpolate_initial(mesh: Mesh, u0) -> np.ndarray:
    """Nodal interpolant of u0 on interior nodes, which must all be finite."""
    u = u0(*mesh.interior_nodes().T)
    values = np.asarray(np.broadcast_to(u, mesh.num_interior), dtype=float).copy()
    if not np.isfinite(values).all():
        raise EvaluationError("initial data is not finite at every interior node")
    return values
