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

from oracles import centroid_load, coo_operators

ONE = expr("1")
ZERO = expr("0")
BUILDERS = (build_interval_mesh, build_square_mesh, build_cube_mesh)


def load_of(mesh, f, t=0.0):
    return assemble_load(mesh, f, t)


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
                     expr("pi^2*(1-2*x^2*y^2)")).tocsr()
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
    F = load_of(mesh, ZERO)
    np.testing.assert_array_equal(F, 0.0)


def test_load_constant_1d():
    mesh = build_interval_mesh(4)
    F = load_of(mesh, ONE)
    np.testing.assert_allclose(F, 0.25)


def test_load_xy_square_m2_against_centroid_rule():
    mesh = build_square_mesh(2)
    F = load_of(mesh, expr("x*y"))
    assert F.shape == (1,)
    assert F[0] == pytest.approx(centroid_load(mesh, expr("x*y"), 0.0)[0], rel=1e-14)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("build", BUILDERS)
def test_load_matches_cell_by_cell_centroid_rule(build, m):
    mesh = build(m)
    f = expr("1 + x*y*t - z^2 + sin(3*x)")
    got = load_of(mesh, f, t=0.7)
    want = centroid_load(mesh, f, 0.7)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_load_time_dependent():
    mesh = build_interval_mesh(4)
    F = load_of(mesh, expr("t"), t=2.0)
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
    mesh = build_square_mesh(4)
    paths = assembly.kuhn_paths(2)
    with pytest.raises(ValueError, match="not symmetric"):
        assembly._sum_into_diagonals(
            mesh, paths, lambda p, i, j: np.full((4, 4), float((i, j) == (0, 1))))


def test_load_vector_read_only():
    F = load_of(build_interval_mesh(4), ONE)
    with pytest.raises(ValueError):
        F[0] = 3.0


# --- the shared diagonal pattern against a cell-by-cell COO scatter --------


S3 = scenario("s3")
CASES = [pytest.param(build(m), operator, id=f"d{d}m{m}-{operator}")
         for d, build in enumerate(BUILDERS, 1)
         for m in (2, 3, 4, 5) for operator in ("mass", "stiffness", "s3")
         if operator != "s3" or d == 2]


@pytest.mark.parametrize("mesh,operator", CASES)
def test_shared_pattern_matches_coo_scatter(mesh, operator):
    alpha_diag, c = ((S3.alpha_diag, S3.c) if operator == "s3"
                     else ([ONE] * mesh.dimension, ONE))
    mass, stiffness = coo_operators(mesh, alpha_diag, c)
    oracle = mass if operator == "mass" else stiffness
    got = (assemble_mass(mesh) if operator == "mass"
           else assemble_stiffness(mesh, alpha_diag, c))
    assert got.format == "dia"
    scale = np.abs(oracle.data).max()
    assert np.abs(got.toarray() - oracle.toarray()).max() <= 1e-14 * scale


def test_operators_share_one_pattern():
    # the pattern is the 2^(d+1) - 1 ascending diagonal offsets (m >= 3)
    for build in BUILDERS:
        for m in (3, 4, 7):
            mesh = build(m)
            d = mesh.dimension
            offsets = assemble_mass(mesh).offsets
            assert len(offsets) == 2 ** (d + 1) - 1
            assert np.all(np.diff(offsets) > 0)
            stiffness = assemble_stiffness(mesh, [ONE] * d, ONE)
            np.testing.assert_array_equal(stiffness.offsets, offsets)


@pytest.mark.parametrize("name", ["heat1d", "s1", "s3", "heat3d"])
def test_system_matrix_equals_sparse_sum(name):
    problem = scenario(name)
    disc = discretize(replace(problem, divisions=min(problem.divisions, 8)))
    a = disc.system_matrix(problem.tau)
    b = disc.mass + problem.tau * disc.stiffness
    assert (a != b).nnz == 0


def test_discretization_rejects_separate_patterns():
    disc = discretize(replace(scenario("s1"), divisions=4))
    other = build_square_mesh(5)  # offsets 0, +-1, +-4, +-5 against +-3, +-4
    with pytest.raises(ValueError, match="share one set of diagonal offsets"):
        replace(disc, mass=assemble_mass(other))
    cut = sparse.dia_matrix((disc.mass.data[1:], disc.mass.offsets[1:]),
                            shape=disc.mass.shape)
    with pytest.raises(ValueError, match="share one set of diagonal offsets"):
        replace(disc, mass=cut)


def test_dia_products_equal_csr_products_bit_for_bit():
    problem = replace(scenario("heat3d"), divisions=8)
    disc = discretize(problem)
    rng = np.random.default_rng(3)
    vector = rng.standard_normal(disc.mass.shape[0])
    block = np.asfortranarray(rng.standard_normal((disc.mass.shape[0], 5)))
    for operator in (disc.mass, disc.stiffness, disc.system_matrix(problem.tau)):
        csr = operator.tocsr()
        assert np.array_equal(operator @ vector, csr @ vector)
        assert np.array_equal(operator @ block, csr @ block)


def test_discretize_peak_memory_heat3d_m16():
    # 23.0 MB through a COO scatter and 9.0 MB on a CSR pattern with per-cell
    # geometry; 2.2 MB summed straight into the diagonals, held to 3 MB
    problem = replace(scenario("heat3d"), divisions=16)
    discretize(problem)  # warm any one-time imports and caches
    tracemalloc.start()
    try:
        discretize(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6
