"""Uniform simplicial meshes of the unit interval, square, and cube.

Each builder divides every axis of (0,1)^d into ``m`` equal parts and
splits every grid cube with the Kuhn split: one simplex per axis
permutation, along the path from the cube's low corner to its high
corner (kuhn_paths). That is one segment per cell in 1D, two triangles
per square (lower-left to upper-right diagonal) in 2D and six tetrahedra
per cube in 3D. The mesh is fixed by d and m alone, so a Mesh holds only
those two numbers; interior nodes are numbered lexicographically with x
running fastest, so meshes are bit-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Kuhn-split grid of (0,1)^d with m divisions per axis (m >= 2)."""

    dimension: int
    divisions: int

    @property
    def num_interior(self) -> int:
        return (self.divisions - 1) ** self.dimension

    def interior_nodes(self) -> np.ndarray:
        """Coordinates k/m of the interior nodes in interior-index order, (M, d)."""
        d, m = self.dimension, self.divisions
        return (np.indices((m - 1,) * d).reshape(d, -1)[::-1].T + 1) / m


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


def build_interval_mesh(m: int) -> Mesh:
    """Mesh of (0,1) with m segments and m-1 interior nodes."""
    return Mesh(1, m)


def build_square_mesh(m: int) -> Mesh:
    """Mesh of (0,1)^2: m*m squares, each split into two congruent,
    counterclockwise right triangles along the lower-left to upper-right
    diagonal."""
    return Mesh(2, m)


def build_cube_mesh(m: int) -> Mesh:
    """Mesh of (0,1)^3: m^3 cubes, each split into 6 tetrahedra sharing the
    cube's main diagonal, so the mesh is conforming across cube faces."""
    return Mesh(3, m)
