import numpy as np
import pytest

from seampde import pod
from seampde.cli import _write_csv
from seampde.errors import DegenerateSnapshotError, StagnationError
from seampde.pod import (
    GramSpectrum,
    block_spectrum,
    eig_descending,
    gram,
    jacobi_eigh,
    pod_basis,
)

from oracles import charpoly_eigenvalues, projection_residual


def test_gram_identical_unit_columns():
    v = np.array([0.6, 0.8])
    seg = np.column_stack([v, v])
    np.testing.assert_allclose(gram(seg), [[1, 1], [1, 1]], atol=1e-15)


def test_gram_orthonormal_columns():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 3)))
    np.testing.assert_allclose(gram(q), np.eye(3), atol=1e-14)


def test_gram_trace_matches_column_norms():
    rng = np.random.default_rng(5)
    seg = rng.standard_normal((40, 12))
    x = gram(seg)
    norms = sum(np.linalg.norm(seg[:, j]) ** 2 for j in range(12))
    assert np.trace(x) == pytest.approx(norms, rel=1e-13)


def test_eig_descending_diagonal():
    spectrum = eig_descending(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(spectrum.eigenvalues, [3.0, 2.0, 1.0])


def test_jacobi_against_charpoly_oracle_5x5():
    rng = np.random.default_rng(42)
    for _ in range(25):
        q = rng.standard_normal((5, 5))
        x = q + q.T
        vals, _ = jacobi_eigh(x)
        np.testing.assert_allclose(vals, charpoly_eigenvalues(x),
                                   rtol=1e-8, atol=1e-8)


def test_jacobi_against_dense_reference_various_sizes():
    rng = np.random.default_rng(9)
    for n in (2, 3, 7, 15, 40):
        q = rng.standard_normal((n, n))
        x = q + q.T
        vals, vecs = jacobi_eigh(x)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(x)[::-1],
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(x @ vecs, vecs * vals, atol=1e-9)


def test_jacobi_eigenvectors_orthonormal():
    rng = np.random.default_rng(10)
    q = rng.standard_normal((20, 20))
    x = q + q.T
    _, vecs = jacobi_eigh(x)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(20), atol=1e-12)


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eig_descending(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_jacobi_raises_when_sweeps_run_out(monkeypatch):
    q = np.random.default_rng(11).standard_normal((6, 6))
    x = q + q.T
    jacobi_eigh(x)  # converges well inside the default cap
    monkeypatch.setattr(pod, "_MAX_SWEEPS", 1)
    with pytest.raises(StagnationError, match="1 sweeps"):
        jacobi_eigh(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_rejects_non_finite(bad):
    x = np.eye(3)
    x[1, 2] = x[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eig_descending(x)


def test_eig_descending_matches_jacobi_on_s1_gram_blocks():
    from seampde.fields import scenario
    from seampde.hifi import discretize, run_hifi

    problem = scenario("s1")
    snapshots = run_hifi(problem, discretize(problem))
    cols = problem.segment_steps + 1
    last = problem.segment_count - 1
    for k in (0, last // 2, last):
        x = gram(snapshots.data[:, k * cols:(k + 1) * cols])
        spectrum = eig_descending(x)
        values, vectors = jacobi_eigh(x)
        lam0 = values[0]
        np.testing.assert_allclose(spectrum.eigenvalues, np.maximum(values, 0.0),
                                   rtol=0, atol=1e-12 * lam0)
        b0 = vectors[:, 0] * np.sign(vectors[np.argmax(np.abs(vectors[:, 0])), 0])
        np.testing.assert_allclose(spectrum.leading_vector, b0, rtol=0, atol=1e-10)


def heat1d_block():
    from seampde.fields import scenario
    from seampde.hifi import discretize, step_blocks

    problem = scenario("heat1d")
    [block] = step_blocks(problem, discretize(problem), problem.num_steps + 1)
    return block


@pytest.mark.parametrize("block", [
    pytest.param(lambda: np.random.default_rng(5).standard_normal((12, 40)),
                 id="random-12x40"),
    # the same X X^T, so the same u0, but X^T u0 changes sign
    pytest.param(lambda: -np.random.default_rng(5).standard_normal((12, 40)),
                 id="random-12x40-negated"),
    pytest.param(heat1d_block, id="heat1d-98x1001"),
])
def test_block_spectrum_of_a_wide_block_matches_the_column_gram(block):
    # more columns than rows: the rows x rows product X X^T is solved
    block = block()
    rows, cols = block.shape
    assert cols > rows
    wide, reference = block_spectrum(block), eig_descending(gram(block))
    lam0 = reference.eigenvalues[0]
    assert wide.eigenvalues.shape == (cols,)
    np.testing.assert_allclose(wide.eigenvalues, reference.eigenvalues,
                               rtol=0, atol=1e-12 * lam0)
    assert not wide.eigenvalues[rows:].any()  # exact zeros beyond the rows
    np.testing.assert_allclose(wide.leading_vector, reference.leading_vector,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(pod_basis(block, wide), pod_basis(block, reference),
                               rtol=0, atol=1e-12)


def test_block_spectrum_of_a_narrow_block_is_the_column_gram_spectrum():
    block = np.random.default_rng(6).standard_normal((40, 12))
    spectrum, reference = block_spectrum(block), eig_descending(gram(block))
    assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
    assert np.array_equal(spectrum.leading_vector, reference.leading_vector)


def test_eig_clamps_roundoff_negatives():
    x = np.diag([1.0, -1e-15])
    spectrum = eig_descending(x)
    assert spectrum.eigenvalues[1] == 0.0


def test_eig_raises_on_genuinely_indefinite_when_clamping():
    with pytest.raises(ValueError, match="clamp floor"):
        eig_descending(np.diag([1.0, -0.5]))


def test_eig_sign_convention():
    x = np.diag([4.0, 1.0])
    spectrum = eig_descending(x)
    assert spectrum.leading_vector[0] > 0


def test_eig_permutation_invariance():
    rng = np.random.default_rng(21)
    seg = rng.standard_normal((15, 8))
    base = np.sort(eig_descending(gram(seg)).eigenvalues)
    for _ in range(5):
        perm = rng.permutation(8)
        vals = np.sort(eig_descending(gram(seg[:, perm])).eigenvalues)
        np.testing.assert_allclose(vals, base, rtol=1e-10, atol=1e-12)


def test_pod_basis_exact_rank_one():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(30)
    v /= np.linalg.norm(v)
    seg = np.outer(v, 2.0 * 0.9 ** np.arange(10))
    beta = pod_basis(seg, eig_descending(gram(seg)))
    assert abs(np.linalg.norm(beta) - 1) < 1e-12
    np.testing.assert_allclose(np.abs(beta), np.abs(v), atol=1e-10)
    assert projection_residual(seg, beta) < 1e-12
    assert not beta.flags.writeable


def test_pod_basis_unit_norm_on_generic_data():
    rng = np.random.default_rng(8)
    seg = rng.standard_normal((25, 7))
    beta = pod_basis(seg, eig_descending(gram(seg)))
    assert abs(np.linalg.norm(beta) - 1) < 1e-12


def test_eig_descending_rejects_a_zero_gram_matrix():
    with pytest.raises(DegenerateSnapshotError, match="numerically zero"):
        eig_descending(gram(np.zeros((10, 4))))


def test_pod_basis_deterministic():
    rng = np.random.default_rng(12)
    seg = rng.standard_normal((18, 6))
    first = pod_basis(seg, eig_descending(gram(seg)))
    copy = seg.copy()
    second = pod_basis(copy, eig_descending(gram(copy)))
    assert np.array_equal(first, second)


def test_projection_residual_orthonormal_columns():
    q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((9, 3)))
    basis_vec = q[:, 0]
    spectrum = eig_descending(gram(q))
    beta = pod_basis(q, GramSpectrum(spectrum.eigenvalues, np.array([1.0, 0.0, 0.0])))
    # beta equals the first column exactly; two unit residuals remain
    assert projection_residual(q, beta) == pytest.approx(2.0, abs=1e-12)


def test_projection_identity_random_segments():
    rng = np.random.default_rng(33)
    for rows, cols in [(20, 10), (12, 5), (7, 7), (16, 2)]:
        seg = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 3)
        spectrum = eig_descending(gram(seg))
        residual = projection_residual(seg, pod_basis(seg, spectrum))
        tail = spectrum.eigenvalues[1:].sum()
        scale = spectrum.eigenvalues.sum()
        assert abs(residual - tail) <= 1e-10 * scale


def test_trace_identity():
    rng = np.random.default_rng(17)
    seg = rng.standard_normal((30, 9))
    spectrum = eig_descending(gram(seg))
    frob2 = np.linalg.norm(seg, "fro") ** 2
    assert spectrum.eigenvalues.sum() == pytest.approx(frob2, rel=1e-10)


def test_export_spectra_csv(tmp_path):
    assert pod.SPECTRUM_HEAD == 5
    spectra = [
        GramSpectrum(np.array([3.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]),
                     np.eye(7)[0]),
        GramSpectrum(np.array([2.0, 0.25, 0.1]), np.eye(3)[0]),
    ]
    path = tmp_path / "spectra.csv"
    # the rows cli._pass writes to eigenvalues.csv
    _write_csv(path, ("segment", "index", "eigenvalue"),
               ((k, i, float(value)) for k, s in enumerate(spectra)
                for i, value in enumerate(s.eigenvalues[:pod.SPECTRUM_HEAD])))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "segment,index,eigenvalue"
    # the first spectrum is cut after five values; segments count from 0
    assert lines[1:] == ["0,0,3.0", "0,1,1.0", "0,2,0.5", "0,3,0.25", "0,4,0.125",
                         "1,0,2.0", "1,1,0.25", "1,2,0.1"]
