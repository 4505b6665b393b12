"""Uniform simplicial meshes of the unit interval, square, and cube.

Each builder divides every axis of (0,1)^d into ``m`` equal parts and
splits every grid cube with the Kuhn split: one simplex per axis
permutation, along the path from the cube's low corner to its high
corner. That is one segment per cell in 1D, two triangles per square
(lower-left to upper-right diagonal) in 2D and six tetrahedra per cube in
3D. Vertex and interior-node numbering is lexicographic with x running
fastest, so meshes are bit-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Conforming simplicial mesh of (0,1)^d with interior-node numbering.

    Attributes
    ----------
    dimension : int
        Spatial dimension, 1, 2 or 3.
    divisions : int
        Grid cells per axis, m.
    vertices : (nv, d) float array
        Vertex coordinates.
    cells : (nc, d+1) int array
        Simplices as vertex-index tuples, positively oriented.
    interior_index : (nv,) int array
        Dense 0..M-1 numbering of interior vertices (-1 on the boundary),
        lexicographic with x fastest, so it follows the vertex order.
    """

    dimension: int
    divisions: int
    vertices: np.ndarray
    cells: np.ndarray
    interior_index: np.ndarray
    num_interior: int = field(init=False)

    def __post_init__(self):
        for arr in (self.vertices, self.cells, self.interior_index):
            arr.setflags(write=False)
        object.__setattr__(self, "num_interior", int((self.interior_index >= 0).sum()))

    def interior_nodes(self) -> np.ndarray:
        """Coordinates of the interior nodes in interior-index order, (M, d)."""
        return self.vertices[self.interior_index >= 0]


def kuhn_paths(d: int) -> np.ndarray:
    """The Kuhn split's d! simplices of the unit cube as 0/1 corner offsets
    (d!, d+1, d). Simplex p steps from the low to the high corner along the
    axes in the order of the p-th ``itertools.permutations``; odd
    permutations get vertices 1 and 2 swapped to keep the orientation
    positive."""
    perms = list(itertools.permutations(range(d)))
    paths = np.empty((len(perms), d + 1, d), dtype=np.int64)
    for path, perm in zip(paths, perms):
        path[:, perm] = np.tri(d + 1, d, -1, dtype=np.int64)
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            path[[1, 2]] = path[[2, 1]]
    return paths


def _kuhn_mesh(d: int, m: int) -> Mesh:
    """Kuhn-split mesh of (0,1)^d with m divisions per axis.

    Cells come cube by cube (low corners x fastest), one kuhn_paths simplex
    at a time.
    """
    if m < 2:
        raise ValueError(f"need at least 2 divisions per axis for an interior node, got m={m}")
    grid = np.indices((m + 1,) * d).reshape(d, -1)[::-1].T.copy()  # x fastest
    steps = (m + 1) ** np.arange(d, dtype=np.int64)  # vertex-id stride per axis
    low = np.flatnonzero((grid < m).all(axis=1))
    cells = (low[:, None, None] + kuhn_paths(d) @ steps).reshape(-1, d + 1)
    interior = np.full(len(grid), -1, dtype=np.int64)
    interior[((grid > 0) & (grid < m)).all(axis=1)] = np.arange((m - 1) ** d)
    return Mesh(d, m, grid / m, cells, interior)


def build_interval_mesh(m: int) -> Mesh:
    """Mesh of (0,1) with m segments and m-1 interior nodes."""
    return _kuhn_mesh(1, m)


def build_square_mesh(m: int) -> Mesh:
    """Mesh of (0,1)^2: m*m squares, each split into two congruent,
    counterclockwise right triangles along the lower-left to upper-right
    diagonal."""
    return _kuhn_mesh(2, m)


def build_cube_mesh(m: int) -> Mesh:
    """Mesh of (0,1)^3: m^3 cubes, each split into 6 tetrahedra sharing the
    cube's main diagonal, so the mesh is conforming across cube faces."""
    return _kuhn_mesh(3, m)
