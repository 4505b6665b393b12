import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import seampde.hifi as hifi
from seampde.analysis import (
    HoffmanWielandtRecord,
    build_spectral_report,
    hoffman_wielandt_check,
    operator_norm,
    column_error_norms,
    perturbation_quantity,
    reference_principal_eigenvalue,
    relative_l2_error,
)
from seampde.cli import _write_json
from seampde.errors import DegenerateReferenceError
from seampde.fields import ProblemSpec, parse_expression as expr, scenario
from seampde.hifi import CG_RTOL, SnapshotMatrix, cg_solve, discretize, run_hifi
from seampde.pod import eig_descending, gram
from seampde.seam import SeamSolution, run_parallel_seam

from oracles import from_scipy, heat_operators, to_scipy


def diag_op(values):
    return from_scipy(sparse.diags(np.asarray(values, dtype=float), format="dia"))


def reference_matrix(u0, norm_a, tau, n):
    """Explicit rank-one reference columns (1 - tau*norm)^k u0, k = 0..n."""
    r = 1.0 - tau * norm_a
    return np.outer(u0, r ** np.arange(n + 1))


def loop_column_errors(ref, red, mass):
    """Per-column M-norms of ref - red and of ref, one matvec at a time."""
    mass = to_scipy(mass)
    abs_err = np.empty(ref.shape[1])
    ref_norm = np.empty(ref.shape[1])
    for j in range(ref.shape[1]):
        diff = ref[:, j] - red[:, j]
        abs_err[j] = np.sqrt(diff @ (mass @ diff))
        ref_norm[j] = np.sqrt(ref[:, j] @ (mass @ ref[:, j]))
    return abs_err, ref_norm


@pytest.fixture(scope="module")
def segmented_run():
    problem = ProblemSpec(
        name="square", dimension=2, alpha_diag=(expr("1"), expr("1")),
        c=expr("0"), f=expr("1"), u0=expr("sin(pi*x)*sin(pi*y)*(1+x)"),
        tau=1e-3, divisions=8, segment_steps=8, segment_count=4)
    disc = discretize(problem)
    snapshots = run_hifi(problem, disc)
    solution = run_parallel_seam(snapshots, disc.mass, disc.stiffness,
                                 disc.load, segment_steps=problem.segment_steps)
    return snapshots, solution, disc.mass


def test_operator_norm_diagonal():
    assert operator_norm(diag_op([1, 1, 1]), diag_op([1, 4, 9])) == pytest.approx(9.0)


def test_operator_norm_scaled_identity():
    assert operator_norm(diag_op([2, 2, 2]), diag_op([2, 2, 2])) == pytest.approx(1.0)


def test_operator_norm_against_dense_pencil():
    mass, stiffness = heat_operators(4)
    top = operator_norm(mass, stiffness)
    dense = scipy.linalg.eigh(to_scipy(stiffness).toarray(), to_scipy(mass).toarray(),
                              eigvals_only=True)
    assert top == pytest.approx(dense[-1], rel=1e-8)


def test_operator_norm_zero_stiffness():
    assert operator_norm(diag_op([1.0, 2.0]), diag_op([0.0, 0.0])) == 0.0


def one_vector_power_iteration(mass, stiffness, rtol=1e-10, maxiter=10000):
    """Reference operator norm: each mass solve starts from (v.Sv) v, with
    its product M x0 formed, and is held to CG_RTOL (1e-12); every M w is a
    fresh product. Its products go through hifi.product, so that the
    products fixture counts them."""
    v = np.random.default_rng(0).standard_normal(mass.shape[0])
    v /= np.sqrt(v @ hifi.product(mass, v))
    estimate = None
    for _ in range(maxiter):
        sv = hifi.product(stiffness, v)
        current = float(v @ sv)
        if estimate is not None and abs(current - estimate) <= rtol * abs(current):
            return current
        estimate = current
        x0 = v * current
        w, _ = cg_solve(mass, sv, x0, hifi.product(mass, x0), CG_RTOL)
        v = w / np.sqrt(w @ hifi.product(mass, w))
    raise AssertionError("reference power iteration did not converge")


@pytest.mark.parametrize("problem,max_mass_products", [
    (replace(scenario("heat3d"), divisions=16), 2600),
    (scenario("s1"), 4900),
], ids=["heat3d-m16", "s1"])
def test_operator_norm_matches_one_vector_start_with_fewer_mass_products(
        products, problem, max_mass_products):
    disc = discretize(problem)
    ref_mass, ref_stiff = replace(disc.mass), replace(disc.stiffness)  # new identities
    mass, stiff = disc.mass, disc.stiffness
    reference = one_vector_power_iteration(ref_mass, ref_stiff)
    value = operator_norm(mass, stiff)
    assert value == pytest.approx(reference, rel=1e-13, abs=0)
    # one stiffness product per power step on both sides
    assert products[stiff] == products[ref_stiff]
    assert products[mass] < products[ref_mass]
    # no mass product for a CG start or for M w, and solves held to 1e-10
    # (4,463 and 8,634 while each step formed M w and M x0 and solved to 1e-12)
    assert products[mass] <= max_mass_products


# Estimates while each mass solve was held to 1e-12 and every M w was a
# fresh product; the solves now stop at the power iteration's own 1e-10
@pytest.mark.parametrize("problem,expected", [
    (scenario("heat1d"), 117523.22312582751),
    (scenario("s1"), 26320.972975639706),
    (scenario("s3"), 19793.08531893141),
    (replace(scenario("heat3d"), divisions=16), 14943.048659950535),
], ids=["heat1d", "s1", "s3", "heat3d-m16"])
def test_operator_norm_holds_its_estimates_with_looser_mass_solves(problem, expected):
    disc = discretize(problem)
    assert operator_norm(disc.mass, disc.stiffness) == pytest.approx(
        expected, rel=1e-11, abs=0)


def test_time_step_check_arithmetic():
    """report.json carries tau*||A|| and flags whether it sits below one; a
    zero stiffness (||A|| = 0) is rejected."""
    snaps = SnapshotMatrix(np.random.default_rng(3).standard_normal((3, 8)), 1e-4)
    mass = diag_op([1.0, 1.0, 1.0])
    for tau, stiffness, product, satisfied in ((1e-4, [1e3, 3e3, 5e3], 0.5, True),
                                               (1e-3, [5e2, 2e3, 1e3], 2.0, False)):
        _, payload = build_spectral_report(snaps.segments(3), tau, mass,
                                           diag_op(stiffness), segment_steps=3)
        assert payload["tau_norm_a"] == pytest.approx(product)
        assert payload["time_step_assumption_satisfied"] is satisfied
    with pytest.raises(ValueError, match="operator norm must be positive"):
        build_spectral_report(snaps.segments(3), 1e-4, mass, diag_op([0.0] * 3),
                              segment_steps=3)


def test_reference_limit_cases():
    u0 = np.array([3.0, 4.0])  # norm^2 = 25
    # tau*norm -> 0: geometric sum of ones
    assert reference_principal_eigenvalue(u0, 1e-30, 1e-30, 7) == pytest.approx(
        8 * 25.0)
    # n=1: ||u0||^2 (1 + r^2)
    r = 1 - 0.2 * 3.0
    assert reference_principal_eigenvalue(u0, 3.0, 0.2, 1) == pytest.approx(
        25.0 * (1 + r**2))


def test_reference_closed_form_matches_dense_oracle():
    rng = np.random.default_rng(14)
    for _ in range(50):
        dim = rng.integers(2, 20)
        u0 = rng.standard_normal(dim)
        tau = rng.uniform(1e-4, 0.5)
        norm_a = rng.uniform(0.1, 0.9) / tau  # keep tau*norm < 1
        n = int(rng.integers(1, 30))
        closed = reference_principal_eigenvalue(u0, norm_a, tau, n)
        columns = reference_matrix(u0, norm_a, tau, n)
        spectrum = eig_descending(gram(columns))
        assert float(closed) == pytest.approx(spectrum.eigenvalues[0], rel=1e-10)
        # rank one: everything after the principal eigenvalue vanishes
        assert spectrum.eigenvalues[1:].max(initial=0.0) <= 1e-10 * float(closed)


def test_reference_extended_range_no_overflow():
    u0 = np.ones(10)
    value = reference_principal_eigenvalue(u0, 120000.0, 4e-4, 100)
    assert np.isfinite(value)
    assert np.log10(value) > 300  # far beyond float64 range


def test_perturbation_zero_for_matching_reference():
    u0 = np.array([1.0, 2.0])
    columns = reference_matrix(u0, 2.0, 0.1, 5)
    spectrum = eig_descending(gram(columns))
    lam_ref = reference_principal_eigenvalue(u0, 2.0, 0.1, 5)
    record = perturbation_quantity(spectrum, lam_ref, 5, 0.1)
    assert float(record["quantity"]) == pytest.approx(0.0, abs=1e-12)
    assert record["bound_proxy"] == pytest.approx(5**4 * 0.01)


def test_perturbation_dominated_by_tail_lower_bound():
    spectrum = eig_descending(np.diag([4.0, 1.0, 0.25]))
    record = perturbation_quantity(spectrum, np.longdouble(4.0), 2, 0.1)
    assert float(record["quantity"]) >= record["tail_sum_sq"]
    assert record["tail_sum_sq"] == pytest.approx(1.0 + 0.0625)


def test_hoffman_wielandt_zero_perturbation():
    a = np.diag([1.0, 2.0, 3.0])
    record = hoffman_wielandt_check(a, np.zeros((3, 3)))
    assert record.sum_sq_shift == pytest.approx(0.0, abs=1e-12)
    assert record.frobenius_margin == pytest.approx(0.0, abs=1e-12)
    assert record.holds(tol=1e-12)


def test_hoffman_wielandt_commuting_diagonals_equality():
    record = hoffman_wielandt_check(np.diag([1.0, 2.0]), np.diag([0.1, -0.1]))
    assert record.sum_sq_shift == pytest.approx(0.02, abs=1e-12)
    assert record.frob_sq == pytest.approx(0.02)
    assert abs(record.frobenius_margin) < 1e-12


def test_hoffman_wielandt_random_pairs():
    rng = np.random.default_rng(100)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        a = rng.uniform(-1, 1, (n, n))
        e = rng.uniform(-1, 1, (n, n))
        a = (a + a.T) / 2
        e = (e + e.T) / 2
        record = hoffman_wielandt_check(a, e)
        assert record.holds(tol=1e-9)


def test_relative_error_identical_is_zero(segmented_run):
    _, solution, mass = segmented_run
    exact = SnapshotMatrix(solution.to_matrix(), solution.tau)
    assert relative_l2_error(exact, solution, mass, 0.1) == 0.0


def test_relative_error_zero_model_is_one(segmented_run):
    snapshots, solution, mass = segmented_run
    zero = SeamSolution(solution.models, np.zeros_like(solution.alphas),
                        solution.tau)
    assert relative_l2_error(snapshots, zero, mass, 0.1) == pytest.approx(1.0)


def test_relative_error_degenerate_reference(segmented_run):
    snapshots, solution, mass = segmented_run
    zero = SnapshotMatrix(np.zeros_like(snapshots.data), snapshots.tau)
    with pytest.raises(DegenerateReferenceError):
        relative_l2_error(zero, solution, mass, 0.1)


def test_relative_error_column_permutation_invariance(segmented_run):
    # permuting whole segments permutes the columns of both runs alike
    snapshots, solution, mass = segmented_run
    base = relative_l2_error(snapshots, solution, mass, 0.2)
    perm = [2, 0, 3, 1]
    blocks = np.split(snapshots.data, len(solution.models), axis=1)
    reference = SnapshotMatrix(np.hstack([blocks[k] for k in perm]), snapshots.tau)
    reduced = SeamSolution(tuple(solution.models[k] for k in perm),
                           solution.alphas[perm], solution.tau)
    assert relative_l2_error(reference, reduced, mass, 0.2) == pytest.approx(
        base, rel=1e-12)


def test_relative_error_shape_mismatch(segmented_run):
    snapshots, solution, mass = segmented_run
    fewer_dofs = SnapshotMatrix(snapshots.data[:-1], snapshots.tau)
    with pytest.raises(ValueError, match="shape"):
        relative_l2_error(fewer_dofs, solution, mass, snapshots.tau)


def test_column_error_norms_match_loop_oracle(segmented_run):
    snapshots, solution, mass = segmented_run
    assert len(solution.models) == 4
    abs_err, ref_norm = loop_column_errors(snapshots.data, solution.to_matrix(),
                                           mass)
    error_sq, reference_sq = column_error_norms(snapshots, solution, mass)
    np.testing.assert_allclose(np.sqrt(error_sq), abs_err, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.sqrt(reference_sq), ref_norm, rtol=1e-12, atol=0)


def test_relative_error_of_segmented_solution_matches_loop_oracle(segmented_run):
    snapshots, solution, mass = segmented_run
    abs_err, ref_norm = loop_column_errors(snapshots.data, solution.to_matrix(),
                                           mass)
    expected = np.sqrt(np.sum(abs_err**2) / np.sum(ref_norm**2))
    error = relative_l2_error(snapshots, solution, mass, snapshots.tau)
    assert error > 0
    assert error == pytest.approx(expected, rel=1e-12)


def test_relative_error_segmented_shape_mismatch(segmented_run):
    snapshots, solution, mass = segmented_run
    fewer_columns = SnapshotMatrix(snapshots.data[:, :-1], snapshots.tau)
    with pytest.raises(ValueError, match="shape"):
        relative_l2_error(fewer_columns, solution, mass, snapshots.tau)


def test_spectral_report_roundtrip(tmp_path):
    mass, stiffness = heat_operators(8)
    rng = np.random.default_rng(2)
    data = rng.standard_normal((7, 12)) * np.exp(-0.3 * np.arange(12))
    snaps = SnapshotMatrix(data, 0.01)
    spectra, payload = build_spectral_report(snaps.segments(3), snaps.tau, mass,
                                             stiffness, segment_steps=3)
    assert len(spectra) == 3
    assert payload["norm_a"] > 0
    perturbation = payload["perturbation"]
    assert perturbation["quantity"] >= perturbation["tail_sum_sq"] * (1 - 1e-12)

    _write_json(tmp_path / "report.json", payload)  # the payload holds longdoubles
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["schema"] == 1
    assert [s["segment"] for s in loaded["segments"]] == [0, 1, 2]
    assert len(loaded["segments"][0]["eigenvalues"]) <= 5
    assert loaded["tau_norm_a"] == pytest.approx(0.01 * payload["norm_a"])


@pytest.mark.parametrize("segment_steps", [3, -1])
def test_spectral_report_bad_segmentation(segment_steps):
    from seampde.errors import SegmentationError

    snaps = SnapshotMatrix(np.ones((3, 10)), 0.1)
    mass = diag_op([1.0, 1.0, 1.0])
    with pytest.raises(SegmentationError, match="split"):
        build_spectral_report(snaps.segments(segment_steps), snaps.tau, mass, mass,
                              segment_steps=segment_steps)


def test_record_holds_flags():
    bad = HoffmanWielandtRecord(1.0, 0.5, -0.5, 0.0, 0.0)
    assert not bad.holds(tol=1e-9)
