"""Uniform simplicial meshes of the unit interval, square, and cube.

Each builder divides every axis of (0,1)^d into ``m`` equal parts and
splits the resulting cells into simplices: segments in 1D, two triangles
per square (lower-left to upper-right diagonal) in 2D, and the six-tetra
Kuhn split per cube in 3D. Vertex and interior-node numbering is
lexicographic with x running fastest, so meshes are bit-reproducible.
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
    vertices : (nv, d) float array
        Vertex coordinates.
    cells : (nc, d+1) int array
        Simplices as vertex-index tuples, positively oriented.
    boundary : (nv,) bool array
        True for vertices on the boundary of the unit domain.
    interior_index : (nv,) int array
        Dense 0..M-1 numbering of interior vertices (-1 on the boundary),
        lexicographic with x fastest.
    divisions : int
        Cells per axis (``m``).
    """

    dimension: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary: np.ndarray
    interior_index: np.ndarray
    divisions: int
    num_interior: int = field(init=False)

    def __post_init__(self):
        for arr in (self.vertices, self.cells, self.boundary, self.interior_index):
            arr.setflags(write=False)
        object.__setattr__(self, "num_interior", int((self.interior_index >= 0).sum()))

    def interior_nodes(self) -> np.ndarray:
        """Coordinates of the interior nodes in interior-index order, (M, d)."""
        mask = self.interior_index >= 0
        pts = self.vertices[mask]
        return pts[np.argsort(self.interior_index[mask])]


def _check_divisions(m: int) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 divisions per axis for an interior node, got m={m}")


def build_interval_mesh(m: int) -> Mesh:
    """Mesh of (0,1) with m segments and m-1 interior nodes."""
    _check_divisions(m)
    vertices = (np.arange(m + 1, dtype=float) / m)[:, None]
    cells = np.column_stack([np.arange(m), np.arange(1, m + 1)]).astype(np.int64)
    boundary = np.zeros(m + 1, dtype=bool)
    boundary[[0, m]] = True
    interior = np.full(m + 1, -1, dtype=np.int64)
    interior[1:m] = np.arange(m - 1)
    return Mesh(1, vertices, cells, boundary, interior, m)


def build_square_mesh(m: int) -> Mesh:
    """Mesh of (0,1)^2: m*m squares, each split into two right triangles.

    The split runs along the lower-left to upper-right diagonal of every
    square, so all 2*m^2 triangles are congruent and counterclockwise.
    """
    _check_divisions(m)
    ticks = np.arange(m + 1, dtype=float) / m
    xg, yg = np.meshgrid(ticks, ticks, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])  # x fastest

    def vid(i, j):
        return i + (m + 1) * j

    cells = np.empty((2 * m * m, 3), dtype=np.int64)
    t = 0
    for j in range(m):
        for i in range(m):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells[t] = (a, b, c)
            cells[t + 1] = (a, c, d)
            t += 2

    onb = (vertices == 0.0) | (vertices == 1.0)
    boundary = onb.any(axis=1)
    interior = np.full(len(vertices), -1, dtype=np.int64)
    interior[~boundary] = np.arange((m - 1) ** 2)
    return Mesh(2, vertices, cells, boundary, interior, m)


def build_cube_mesh(m: int) -> Mesh:
    """Mesh of (0,1)^3: m^3 cubes, each split into 6 tetrahedra (Kuhn split).

    Every tetrahedron follows one axis permutation along the path from a
    cube's low corner to its high corner, so all six share the cube's main
    diagonal and the mesh is conforming across cube faces. Odd permutations
    get two vertices swapped to keep the orientation positive.
    """
    _check_divisions(m)
    ticks = np.arange(m + 1, dtype=float) / m
    nv = (m + 1) ** 3
    vertices = np.empty((nv, 3))
    idx = np.arange(nv)
    vertices[:, 0] = ticks[idx % (m + 1)]
    vertices[:, 1] = ticks[(idx // (m + 1)) % (m + 1)]
    vertices[:, 2] = ticks[idx // (m + 1) ** 2]

    # vertex-id offsets of the six corner paths, relative to the low corner
    steps = np.array([1, m + 1, (m + 1) ** 2], dtype=np.int64)
    paths = []
    for perm in itertools.permutations(range(3)):
        path = np.cumsum([0, *steps[list(perm)]])
        if _perm_sign(perm) < 0:
            path[[1, 2]] = path[[2, 1]]
        paths.append(path)
    k, j, i = np.indices((m, m, m), dtype=np.int64).reshape(3, -1)
    low = i + (m + 1) * (j + (m + 1) * k)
    cells = (low[:, None, None] + np.array(paths)).reshape(-1, 4)

    onb = (vertices == 0.0) | (vertices == 1.0)
    boundary = onb.any(axis=1)
    interior = np.full(nv, -1, dtype=np.int64)
    interior[~boundary] = np.arange((m - 1) ** 3)
    return Mesh(3, vertices, cells, boundary, interior, m)


def _perm_sign(perm) -> int:
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1
