import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from seampde.mesh import Mesh, build_cube_mesh, build_interval_mesh, build_square_mesh

from oracles import element_geometry, kuhn_grid

BUILDERS = {1: build_interval_mesh, 2: build_square_mesh, 3: build_cube_mesh}


def cell_volumes(mesh):
    volumes, _, _ = element_geometry(mesh)
    return volumes


def num_cells(mesh):
    return len(kuhn_grid(mesh)[1])


def test_interval_m99_size():
    mesh = build_interval_mesh(99)
    vertices, cells, _ = kuhn_grid(mesh)
    assert len(cells) == 99
    assert len(vertices) == 100
    assert mesh.num_interior == 98


def test_interval_smallest():
    mesh = build_interval_mesh(2)
    assert mesh.num_interior == 1
    np.testing.assert_allclose(mesh.interior_nodes(), [[0.5]])


def test_interval_uniform_partition():
    mesh = build_interval_mesh(10)
    vols = cell_volumes(mesh)
    np.testing.assert_allclose(vols, 0.1)
    assert abs(vols.sum() - 1.0) < 1e-12


def test_square_m32_size():
    mesh = build_square_mesh(32)
    assert num_cells(mesh) == 2048
    assert mesh.num_interior == 961


def test_square_smallest():
    mesh = build_square_mesh(2)
    assert num_cells(mesh) == 8
    assert mesh.num_interior == 1
    np.testing.assert_allclose(mesh.interior_nodes(), [[0.5, 0.5]])


def test_square_m4_counts_and_area():
    mesh = build_square_mesh(4)
    assert num_cells(mesh) == 32
    assert mesh.num_interior == 9
    assert abs(cell_volumes(mesh).sum() - 1.0) < 1e-12


def test_cube_counts():
    mesh = build_cube_mesh(2)
    assert num_cells(mesh) == 48
    assert mesh.num_interior == 1
    mesh = build_cube_mesh(3)
    assert num_cells(mesh) == 162
    assert abs(cell_volumes(mesh).sum() - 1.0) < 1e-12


def loop_square_cells(m):
    """Two triangles per square, (a, b, c) and (a, c, d) counterclockwise
    from the low corner a, squares x fastest."""
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
    return cells


def loop_kuhn_mesh(d, m):
    """Vertices, Kuhn cells and interior numbering of (0,1)^d, one grid
    point and one cube at a time (x fastest), one axis permutation at a
    time."""
    def vid(corner):
        return sum(c * (m + 1) ** axis for axis, c in enumerate(corner))

    corners = [corner[::-1] for corner in itertools.product(range(m + 1), repeat=d)]
    vertices = np.array([[c / m for c in corner] for corner in corners])
    interior = np.full(len(corners), -1, dtype=np.int64)
    interior_count = itertools.count()
    cells = []
    for corner in corners:
        if all(0 < c < m for c in corner):
            interior[vid(corner)] = next(interior_count)
        if max(corner) == m:
            continue
        for perm in itertools.permutations(range(d)):
            point = list(corner)
            path = [vid(point)]
            for axis in perm:
                point[axis] += 1
                path.append(vid(point))
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            if inversions % 2:  # odd permutation: restore orientation
                path[1], path[2] = path[2], path[1]
            cells.append(path)
    return vertices, np.array(cells, dtype=np.int64), interior


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kuhn_mesh_matches_loop_oracle(d, m):
    # the vectorized cells that the assembly oracles scatter from, and the
    # interior nodes the mesh computes from (d, m) alone, are the loop's
    mesh = BUILDERS[d](m)
    vertices, cells, interior = loop_kuhn_mesh(d, m)
    for got, want in zip(kuhn_grid(mesh), (vertices, cells, interior)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    if d == 2:
        assert np.array_equal(kuhn_grid(mesh)[1], loop_square_cells(m))
    nodes = mesh.interior_nodes()
    assert nodes.dtype == vertices.dtype
    assert np.array_equal(nodes, vertices[interior >= 0])
    assert mesh.num_interior == (interior >= 0).sum()


@pytest.mark.slow
def test_cube_m32_counts():
    mesh = build_cube_mesh(32)
    assert num_cells(mesh) == 6 * 32**3 == 196608
    assert mesh.num_interior == 31**3 == 29791


def test_interior_nodes_interval_m4():
    mesh = build_interval_mesh(4)
    np.testing.assert_allclose(mesh.interior_nodes(), [[0.25], [0.5], [0.75]])


@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_invalid_divisions_and_counts(d, m):
    with pytest.raises(ValueError):
        BUILDERS[d](1)
    mesh = BUILDERS[d](m)
    pts = mesh.interior_nodes()
    assert len(pts) == (m - 1) ** d
    assert np.all(pts > 0.0) and np.all(pts < 1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_volume_partition_exhaustive(d):
    for m in range(2, 9):
        vols = cell_volumes(BUILDERS[d](m))
        assert np.all(vols > 0), f"d={d} m={m}: nonpositive cell volume"
        assert abs(vols.sum() - 1.0) < 1e-12, f"d={d} m={m}"


def _face_is_on_boundary(vertices, face):
    coords = vertices[list(face)]
    for axis in range(coords.shape[1]):
        if np.all(coords[:, axis] == 0.0) or np.all(coords[:, axis] == 1.0):
            return True
    return False


@pytest.mark.parametrize("d,m", [(1, 6), (2, 4), (3, 3)])
def test_conformity(d, m):
    vertices, cells, _ = kuhn_grid(BUILDERS[d](m))
    faces = Counter()
    for cell in cells:
        for face in itertools.combinations(cell, d):
            faces[tuple(sorted(face))] += 1
    for face, count in faces.items():
        expected = 1 if _face_is_on_boundary(vertices, face) else 2
        assert count == expected, f"face {face} shared by {count} cells"


def test_vertex_indices_in_range():
    for d in (1, 2, 3):
        vertices, cells, _ = kuhn_grid(BUILDERS[d](3))
        assert cells.min() >= 0
        assert cells.max() < len(vertices)


def test_lexicographic_interior_order():
    mesh = build_square_mesh(4)
    pts = mesh.interior_nodes()
    # x fastest: first three nodes share y=0.25
    np.testing.assert_allclose(pts[:3, 1], 0.25)
    np.testing.assert_allclose(pts[:3, 0], [0.25, 0.5, 0.75])


def test_mesh_is_the_value_of_its_dimension_and_divisions():
    mesh = build_square_mesh(4)
    assert mesh == Mesh(2, 4) and hash(mesh) == hash(Mesh(2, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.divisions = 5
    first = mesh.interior_nodes()
    first[0, 0] = 7.0  # a fresh array on every call
    assert mesh.interior_nodes()[0, 0] == 0.25
