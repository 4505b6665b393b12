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
from seampde.errors import EvaluationError
from seampde.fields import parse_expression as expr, scenario
from seampde.hifi import Discretization, discretize
from seampde.mesh import build_cube_mesh, build_interval_mesh, build_square_mesh, kuhn_paths

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


def test_stiffness_rejects_negative_alpha_but_not_zero():
    # 4y-1 < 0 only at the centroids of the first row of cells (y < 1/4)
    with pytest.raises(EvaluationError, match="coefficient 4\\*y-1 is negative"):
        assemble_stiffness(build_square_mesh(4), [ONE, expr("4*y-1")], ZERO)
    with pytest.raises(EvaluationError, match="coefficient x-1 is negative"):
        assemble_stiffness(build_interval_mesh(4), [expr("x-1")], ZERO)
    S = assemble_stiffness(build_interval_mesh(4), [ZERO], ONE)
    assert np.linalg.eigvalsh(S.toarray()).min() > 0


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


@pytest.mark.parametrize("build", [
    lambda mesh: load_of(mesh, expr("1e300*x")),
    lambda mesh: interpolate_initial(mesh, expr("1e200*x")),
], ids=["load", "initial"])
def test_vectors_whose_squared_norm_overflows_are_rejected(build):
    # every entry is finite, but CG cannot form v.v
    with pytest.raises(EvaluationError, match="squared 2-norm overflows"):
        build(build_interval_mesh(6))


def test_interpolate_3d_center_node_zero():
    mesh = build_cube_mesh(4)
    u0 = expr("sin(2*pi*x)*sin(2*pi*y)*sin(2*pi*z)")
    u = interpolate_initial(mesh, u0)
    [center] = np.flatnonzero(np.all(mesh.interior_nodes() == 0.5, axis=1))
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


def test_stiffness_stores_only_its_nonzero_diagonals():
    # M fills the 2^(d+1) - 1 ascending diagonal offsets (m >= 3); without
    # reaction, S is the (2d+1)-point stencil 0, +-(m-1)^a for any diagonal
    # alpha, and with it S fills M's diagonals
    for build in BUILDERS:
        for m in (3, 4, 7):
            mesh = build(m)
            d = mesh.dimension
            offsets = assemble_mass(mesh).offsets
            assert len(offsets) == 2 ** (d + 1) - 1
            assert np.all(np.diff(offsets) > 0)
            stencil = np.sort([0, *(s * (m - 1) ** a for a in range(d) for s in (-1, 1))])
            for alpha in ([ONE] * d, [expr("1 + x^2"), expr("2"), expr("y + z + 1")][:d]):
                laplacian = assemble_stiffness(mesh, alpha, ZERO)
                assert len(laplacian.offsets) == 2 * d + 1
                np.testing.assert_array_equal(laplacian.offsets, stencil)
                assert laplacian.data.any(axis=1).all()
                stiffness = assemble_stiffness(mesh, alpha, ONE)
                np.testing.assert_array_equal(stiffness.offsets, offsets)


@pytest.mark.parametrize("name", ["heat1d", "s1", "s3", "heat3d"])
def test_system_matrix_equals_sparse_sum(name):
    problem = scenario(name)
    disc = discretize(replace(problem, divisions=min(problem.divisions, 8)))
    a = disc.system_matrix(problem.tau)
    b = disc.mass + problem.tau * disc.stiffness
    assert (a != b).nnz == 0


def test_system_matrix_takes_a_stiffness_diagonal_the_mass_lacks():
    disc = discretize(replace(scenario("heat3d"), divisions=4))
    n, tau = disc.mass.shape[0], 0.1
    assert 2 not in disc.mass.offsets  # M: 0, 1, 3, 4, ...
    stray = sparse.dia_matrix((np.ones((1, n)), [2]), shape=(n, n))
    a = replace(disc, stiffness=stray).system_matrix(tau)
    assert isinstance(a, sparse.dia_matrix)
    assert (a != disc.mass.tocsr() + tau * stray.tocsr()).nnz == 0
    other = replace(disc, mass=assemble_mass(build_cube_mesh(5)))  # another shape
    with pytest.raises(ValueError, match="inconsistent shapes"):
        other.system_matrix(tau)


def kuhn_offsets(d, m):
    """All 2^(d+1) - 1 offsets P_j - P_i of the Kuhn grid's diagonals."""
    shift = kuhn_paths(d) @ (m - 1) ** np.arange(d)
    return np.unique(shift[:, None, :] - shift[:, :, None])


def padded_to(operator, offsets):
    """``operator`` stored on all of ``offsets``, its missing diagonals zero."""
    data = np.zeros((len(offsets), operator.shape[1]))
    data[np.searchsorted(offsets, operator.offsets)] = operator.data
    return sparse.dia_matrix((data, offsets), shape=operator.shape)


def coo_triplets(operator):
    """CSR summed by scipy from COO triplets of every stored DIA entry,
    explicit zeros included."""
    n = operator.shape[0]
    rows, cols, vals = [], [], []
    for offset, diagonal in zip(operator.offsets, operator.data):
        col = np.arange(max(offset, 0), min(n + offset, n))  # stored by column
        rows.append(col - offset)
        cols.append(col)
        vals.append(diagonal[col])
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=operator.shape).tocsr()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_products_equal_full_diagonal_and_coo_products_bit_for_bit(d, m):
    mesh = BUILDERS[d - 1](m)
    tau = 1e-3
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh, [ONE] * d, ZERO)
    zero = np.zeros(mesh.num_interior)
    disc = Discretization(mesh, mass, stiffness, zero, zero)
    offsets = kuhn_offsets(d, m)  # every diagonal, all-zero ones too
    full = padded_to(stiffness, offsets)
    full_system = sparse.dia_matrix(
        (padded_to(mass, offsets).data + tau * full.data, offsets), shape=mass.shape)
    system = disc.system_matrix(tau)
    assert np.array_equal(padded_to(system, offsets).data, full_system.data)
    rng = np.random.default_rng(d * 10 + m)
    for v in (rng.standard_normal(mesh.num_interior),
              np.asfortranarray(rng.standard_normal((mesh.num_interior, 3)))):
        for got, want in ((stiffness, full), (system, full_system)):
            product = got @ v
            assert np.array_equal(product, want @ v)
            assert np.array_equal(product, coo_triplets(want) @ v)


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
