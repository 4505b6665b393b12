"""Linear finite-element assembly over interior nodes of a Kuhn grid.

Mass entries use the closed-form simplex integrals for products of
linear nodal basis functions, so the mass matrix is exact. Variable
coefficients (diagonal diffusion, reaction, source) are frozen at each
element centroid, a one-point rule that keeps symmetry and is exact for
constant coefficients.

Every mesh is the Kuhn split of a uniform grid (mesh.kuhn_paths), so its
cells come in d! congruent types, one per reference simplex of the unit
cell. One batched det/inv of those d! small matrices gives every volume
and basis gradient, and coefficients are evaluated at each type's m^d
centroids. Local entry (i, j) of a type couples every interior node to
the one a fixed step away, so it lands on one diagonal of the lexicographic
interior-node matrix: the operators are ``DiaOperator`` values with
ascending offsets, and each entry is a slice-add of the box of cells whose
two vertices are interior. An operator keeps only the diagonals that hold
a non-zero entry: the mass matrix fills all 2^(d+1) - 1 (m >= 3), while a
stiffness without reaction is the (2d+1)-point stencil for any diagonal
alpha, because two basis gradients of a Kuhn simplex that share no axis
contribute an exact zero. M + tau*S (hifi.Discretization.system_matrix)
lives on the union of their diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seampde.errors import EvaluationError
from seampde.mesh import Mesh, kuhn_paths


@dataclass(frozen=True, eq=False)
class DiaOperator:
    """Square n x n matrix by diagonals, in the layout of scipy's DIA kernels:
    row k of the (len(offsets), n) ``data`` is the diagonal at ``offsets[k]``
    (ascending), stored by column, so entry (j - offsets[k], j) is data[k, j]."""

    offsets: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[1], self.data.shape[1]


def _reference_simplices(mesh: Mesh):
    """Kuhn paths (d!, d+1, d), volumes (d!,) and barycentric gradients
    (d!, d+1, d) of the simplex types of one grid cell."""
    d = mesh.dimension
    paths = kuhn_paths(d)
    corners = paths / mesh.divisions
    edges = corners[:, 1:] - corners[:, :1]
    volumes = np.linalg.det(edges) / math.factorial(d)
    grads = np.empty(paths.shape)
    grads[:, 1:] = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    # every entry is 0 or +-m; clear the round-off inv leaves on the zeros
    grads[np.abs(grads) < mesh.divisions / 2] = 0.0
    return paths, volumes, grads


def _at_centroids(mesh: Mesh, paths: np.ndarray, fields: dict, **kwargs):
    """Each field of ``{label: field}`` at the centroids of each simplex
    type's m^d cells, as (m,)*d arrays indexed (z, y, x), [type][field];
    EvaluationError naming the label and the field's source unless all of
    its values are finite."""
    d, m = mesh.dimension, mesh.divisions
    values = []
    for shift in paths.mean(axis=1):
        coords = [((np.arange(m) + shift[a]) / m).reshape((m,) + (1,) * a)
                  for a in range(d)]
        with np.errstate(all="ignore"):
            values.append([np.broadcast_to(field(*coords, **kwargs), (m,) * d)
                           for field in fields.values()])
    for k, (label, field) in enumerate(fields.items()):
        if not all(np.isfinite(per_type[k]).all() for per_type in values):
            where = "".join(f" at {key} = {value!r}" for key, value in kwargs.items())
            raise EvaluationError(f"{label} = {field.source!r} is not finite at "
                                  f"every centroid{where}")
    return values


def _box(m: int, *corners):
    """Slices of the cell array whose vertices at the given corner offsets
    are all interior, and of the interior-node grid at the last corner."""
    low = 1 - np.min(corners, axis=0)
    high = m - np.max(corners, axis=0)  # exclusive
    bounds = list(zip(low, high, corners[-1] - 1))[::-1]  # (z, y, x)
    return (tuple(slice(lo, hi) for lo, hi, _ in bounds),
            tuple(slice(lo + s, hi + s) for lo, hi, s in bounds))


def _sum_into_diagonals(mesh: Mesh, paths: np.ndarray, local) -> DiaOperator:
    """Sum per-cell (d+1)x(d+1) blocks into the interior-node diagonals.

    ``local(p, i, j)`` returns local entry (i, j) of the simplices of type
    p, one value per cell as an (m,)*d array. Entry (i, j) joins node
    c + P_i to node c + P_j, the diagonal at offset
    sum_a (P_j - P_i)_a (m-1)^a; a diagonal is stored by column, so it
    is added at the column node's grid position. Every operator is built
    here, so each is checked once for value symmetry to 1e-14 relative,
    diagonal against mirrored diagonal; diagonals that hold only zeros are
    dropped, and the result is treated as immutable.
    """
    d, m = mesh.dimension, mesh.divisions
    shift = paths @ (m - 1) ** np.arange(d)  # flat node offset of each vertex
    steps = shift[:, None, :] - shift[:, :, None]  # (p, i, j) -> P_j - P_i
    offsets = np.unique(steps)
    n = mesh.num_interior
    data = np.zeros((len(offsets), n))
    grid = data.reshape((len(offsets),) + (m - 1,) * d)
    for p, path in enumerate(paths):
        for i in range(d + 1):
            for j in range(d + 1):
                cells, nodes = _box(m, path[i], path[j])
                k = np.searchsorted(offsets, steps[p, i, j])
                grid[k][nodes] += local(p, i, j)[cells]
    scale = max(data.max(), -data.min())  # no data-sized temporary
    for offset in offsets[(offsets > 0) & (offsets < n)]:
        upper = data[np.searchsorted(offsets, offset), offset:]
        lower = data[np.searchsorted(offsets, -offset), :n - offset]
        skew = np.abs(upper - lower).max(initial=0.0)
        if skew > 1e-14 * scale:
            raise ValueError(
                f"matrix is not symmetric (relative skew {skew / scale:.2e})")
    keep = data.any(axis=1)
    if not keep.all():
        data, offsets = data[keep], offsets[keep]
    return DiaOperator(offsets, data)


def assemble_mass(mesh: Mesh) -> DiaOperator:
    """Exact mass matrix of the linear nodal basis on interior nodes.

    On a d-simplex T the basis-product integral is
    |T| * (1 + delta_ij) / ((d+1)(d+2)), with no quadrature error.
    """
    paths, volumes, _ = _reference_simplices(mesh)
    d, m = mesh.dimension, mesh.divisions
    base = volumes / ((d + 1) * (d + 2))
    return _sum_into_diagonals(
        mesh, paths,
        lambda p, i, j: np.broadcast_to(base[p] * (2 if i == j else 1), (m,) * d))


def assemble_stiffness(mesh: Mesh, alpha_diag, c) -> DiaOperator:
    """Stiffness of (alpha grad u, grad v) + (c u, v) with diagonal alpha.

    Coefficients are evaluated once per element at the centroid, where
    they must all be finite and alpha not negative (alpha = 0 leaves a
    reaction-only problem); the gradient term is otherwise exact for
    linear elements.
    """
    d = mesh.dimension
    paths, volumes, grads = _reference_simplices(mesh)
    labels = [f"diffusion coefficient alpha[{a}]" for a in range(d)]
    coeffs = _at_centroids(mesh, paths, {**dict(zip(labels, alpha_diag)),
                                         "reaction coefficient c": c})
    for a, field in enumerate(alpha_diag):
        if any(per_type[a].min() < 0 for per_type in coeffs):
            raise EvaluationError(f"diffusion coefficient {field.source} is negative "
                                  "at a centroid")
    mass_base = volumes / ((d + 1) * (d + 2))

    def local(p, i, j):
        # g_ia * g_ja is formed first, so entries (i, j) and (j, i) are equal
        products = grads[p, i] * grads[p, j]
        diffusion = sum(coeffs[p][a] * products[a] for a in range(d) if products[a])
        return (volumes[p] * diffusion
                + coeffs[p][d] * (mass_base[p] * (2 if i == j else 1)))

    return _sum_into_diagonals(mesh, paths, local)


def assemble_load(mesh: Mesh, f, t: float) -> np.ndarray:
    """Read-only right-hand side F_k = sum_T f(centroid, t) * |T| / (d+1).

    f must be finite at every centroid, and F.F finite: CG forms that sum.
    """
    paths, volumes, _ = _reference_simplices(mesh)
    d, m = mesh.dimension, mesh.divisions
    f_vals = _at_centroids(mesh, paths, {"source term f": f}, t=t)
    values = np.zeros(mesh.num_interior)
    grid = values.reshape((m - 1,) * d)
    for path, volume, [f_p] in zip(paths, volumes, f_vals):
        contrib = f_p * (volume / (d + 1))
        for corner in path:
            cells, nodes = _box(m, corner)
            grid[nodes] += contrib[cells]
    with np.errstate(all="ignore"):
        norm_sq = values @ values
    if not np.isfinite(norm_sq):
        raise EvaluationError(f"load vector of f = {f.source!r}: its squared 2-norm "
                              f"overflows at t = {t!r}")
    values.setflags(write=False)
    return values


def interpolate_initial(mesh: Mesh, u0) -> np.ndarray:
    """Nodal interpolant of u0 on interior nodes, whose squared 2-norm (which
    CG forms) must be finite: so must every value."""
    with np.errstate(all="ignore"):
        u = u0(*mesh.interior_nodes().T)
        values = np.asarray(np.broadcast_to(u, mesh.num_interior), dtype=float).copy()
        norm_sq = values @ values
    if not np.isfinite(norm_sq):
        raise EvaluationError(f"initial data u0 = {u0.source!r} is not finite at every "
                              "interior node, or its squared 2-norm overflows")
    return values
