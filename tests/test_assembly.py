import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse

import seampde.assembly as assembly
from seampde.assembly import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    interpolate_initial,
)
from seampde.fields import parse_expression as expr, scenario
from seampde.hifi import discretize
from seampde.mesh import build_cube_mesh, build_interval_mesh, build_square_mesh

ONE = expr("1")
ZERO = expr("0")


def test_mass_1d_closed_form():
    mesh = build_interval_mesh(4)
    M = assemble_mass(mesh).toarray()
    h = 0.25
    np.testing.assert_allclose(np.diag(M), 2 * h / 3)
    np.testing.assert_allclose(np.diag(M, 1), h / 6)
    np.testing.assert_allclose(np.diag(M, -1), h / 6)
    assert M[0, 2] == 0.0


@pytest.mark.parametrize("mesh", [build_interval_mesh(5), build_square_mesh(3),
                                  build_cube_mesh(2)])
def test_mass_partition_of_unity_bound(mesh):
    M = assemble_mass(mesh)
    total = M.sum()
    assert 0 < total < 1.0  # boundary basis mass is missing from interior rows


def test_mass_exactly_symmetric():
    M = assemble_mass(build_square_mesh(4))
    assert (M != M.T).nnz == 0


def test_mass_row_sums_positive_and_1d_diagonally_dominant():
    M1 = assemble_mass(build_interval_mesh(7)).toarray()
    assert np.all(M1.sum(axis=1) > 0)
    off = np.abs(M1).sum(axis=1) - np.abs(np.diag(M1))
    assert np.all(np.diag(M1) >= off)
    M2 = assemble_mass(build_square_mesh(5)).toarray()
    assert np.all(M2.sum(axis=1) > 0)


def test_stiffness_1d_closed_form():
    mesh = build_interval_mesh(4)
    S = assemble_stiffness(mesh, [ONE], ZERO).toarray()
    np.testing.assert_allclose(np.diag(S), 8.0)
    np.testing.assert_allclose(np.diag(S, 1), -4.0)


def test_stiffness_reaction_only_equals_mass():
    mesh = build_square_mesh(4)
    S = assemble_stiffness(mesh, [ZERO, ZERO], ONE).toarray()
    M = assemble_mass(mesh).toarray()
    np.testing.assert_allclose(S, M, atol=1e-15)


def test_stiffness_symmetric_positive_semidefinite():
    mesh = build_square_mesh(4)
    S = assemble_stiffness(mesh, [ONE, ONE], ZERO).toarray()
    np.testing.assert_allclose(S, S.T, atol=0)
    assert np.linalg.eigvalsh(S).min() >= -1e-12


def test_stiffness_positive_on_random_vectors():
    mesh = build_square_mesh(4)
    S = assemble_stiffness(mesh, [ONE, ONE], ZERO)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(S.shape[0])
        assert x @ (S @ x) > 0.0


def test_stiffness_variable_alpha_symmetric():
    mesh = build_square_mesh(6)
    S = assemble_stiffness(mesh, [expr("x^2"), expr("y^2")],
                           expr("pi^2*(1-2*x^2*y^2)"))
    assert abs(S - S.T).max() < 1e-14 * abs(S).max()


def test_stiffness_wrong_alpha_count():
    with pytest.raises(ValueError, match="diagonal diffusion"):
        assemble_stiffness(build_interval_mesh(4), [ONE, ONE], ZERO)


def test_refinement_keeps_invariants():
    for m in (3, 6):
        mesh = build_square_mesh(m)
        S = assemble_stiffness(mesh, [ONE, ONE], ONE).toarray()
        np.testing.assert_allclose(S, S.T, atol=0)
        assert np.linalg.eigvalsh(S).min() > 0  # c=1 makes it definite


def test_load_zero():
    mesh = build_square_mesh(3)
    F = assemble_load(mesh, ZERO)
    np.testing.assert_array_equal(F, 0.0)


def test_load_constant_1d():
    mesh = build_interval_mesh(4)
    F = assemble_load(mesh, ONE)
    np.testing.assert_allclose(F, 0.25)


def test_load_xy_square_m2_against_centroid_rule():
    mesh = build_square_mesh(2)
    F = assemble_load(mesh, expr("x*y"))
    assert F.shape == (1,)
    expected = 0.0
    for cell in mesh.cells:
        if not np.any(mesh.interior_index[cell] >= 0):
            continue
        pts = mesh.vertices[cell]
        e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
        area = abs(e1[0] * e2[1] - e1[1] * e2[0]) / 2
        cx, cy = pts.mean(axis=0)
        expected += cx * cy * area / 3
    assert F[0] == pytest.approx(expected, rel=1e-14)


def test_load_time_dependent():
    mesh = build_interval_mesh(4)
    F = assemble_load(mesh, expr("t"), t=2.0)
    np.testing.assert_allclose(F, 2 * 0.25)


def test_interpolate_heat1d():
    mesh = build_interval_mesh(99)
    u = interpolate_initial(mesh, expr("sin(4*pi*x)"))
    k = np.arange(1, 99)
    np.testing.assert_allclose(u, np.sin(4 * np.pi * k / 99), atol=1e-15)


def test_interpolate_zero_and_constant():
    mesh = build_square_mesh(3)
    np.testing.assert_array_equal(interpolate_initial(mesh, ZERO), 0.0)
    np.testing.assert_array_equal(interpolate_initial(mesh, ONE), 1.0)


def test_interpolate_3d_center_node_zero():
    mesh = build_cube_mesh(4)
    u0 = expr("sin(2*pi*x)*sin(2*pi*y)*sin(2*pi*z)")
    u = interpolate_initial(mesh, u0)
    center = mesh.interior_index[np.all(mesh.vertices == 0.5, axis=1)][0]
    assert abs(u[center]) < 1e-15


def test_operator_validates_symmetry():
    # an element block with local entry (0, 1) but not (1, 0) is asymmetric
    pattern = assembly.sparsity_pattern(build_square_mesh(4))
    with pytest.raises(ValueError, match="not symmetric"):
        assembly._sum_into(pattern, lambda i, j: 1.0 if (i, j) == (0, 1) else 0.0)


def test_load_vector_read_only():
    F = assemble_load(build_interval_mesh(4), ONE)
    with pytest.raises(ValueError):
        F[0] = 3.0


# --- the shared sparsity pattern against a COO scatter ---------------------


def coo_scatter(mesh, local) -> sparse.csr_matrix:
    """Reference assembly: every element entry as a COO triplet.

    Duplicate (row, col) pairs are summed by scipy's COO->CSR conversion.
    """
    nodes = mesh.interior_index[mesh.cells]
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


def assembled_both_ways(monkeypatch, mesh, assemble):
    """``assemble()`` on the shared pattern, then again through coo_scatter."""
    shared = assemble()
    monkeypatch.setattr(
        assembly, "_sum_into",
        lambda pattern, local: coo_scatter(mesh, local))
    return shared, assemble()


S3 = scenario("s3")
CASES = [(build(m), operator)
         for build in (build_interval_mesh, build_square_mesh, build_cube_mesh)
         for m in (2, 3, 4, 5) for operator in ("mass", "stiffness")]
CASES += [(build_square_mesh(m), "s3") for m in (2, 3, 4, 5)]


@pytest.mark.parametrize(
    "mesh,operator", CASES,
    ids=[f"d{mesh.dimension}m{mesh.divisions}-{op}" for mesh, op in CASES])
def test_shared_pattern_matches_coo_scatter(monkeypatch, mesh, operator):
    def assemble():
        if operator == "mass":
            return assemble_mass(mesh)
        if operator == "stiffness":
            return assemble_stiffness(mesh, [ONE] * mesh.dimension, ONE)
        return assemble_stiffness(mesh, S3.alpha_diag, S3.c)

    shared, oracle = assembled_both_ways(monkeypatch, mesh, assemble)
    np.testing.assert_array_equal(shared.indptr, oracle.indptr)
    np.testing.assert_array_equal(shared.indices, oracle.indices)
    scale = np.abs(oracle.data).max()
    assert np.abs(shared.data - oracle.data).max() <= 1e-14 * scale


def test_operators_share_one_pattern():
    disc = discretize(replace(scenario("s3"), divisions=6))
    mass, stiffness = disc.mass, disc.stiffness
    assert mass.indices.dtype == np.int32 and mass.indptr.dtype == np.int32
    assert np.shares_memory(mass.indices, stiffness.indices)
    assert np.shares_memory(mass.indptr, stiffness.indptr)


@pytest.mark.parametrize("name", ["heat1d", "s1", "s3", "heat3d"])
def test_system_matrix_equals_sparse_sum(name):
    problem = scenario(name)
    disc = discretize(replace(problem, divisions=min(problem.divisions, 8)))
    a = disc.system_matrix(problem.tau)
    b = disc.mass + problem.tau * disc.stiffness
    assert (a != b).nnz == 0


def test_discretization_rejects_separate_patterns():
    disc = discretize(replace(scenario("s1"), divisions=4))
    with pytest.raises(ValueError, match="share one sparsity pattern"):
        replace(disc, mass=assemble_mass(disc.mesh))


def test_discretize_peak_memory_heat3d_m16():
    # 23.0 MB through the COO scatter; about 9 MB on the shared pattern
    problem = replace(scenario("heat3d"), divisions=16)
    discretize(problem)  # warm any one-time imports and caches
    tracemalloc.start()
    try:
        discretize(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12e6
