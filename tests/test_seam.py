import numpy as np
import pytest
import scipy.sparse as sparse

from seampde.errors import DegenerateSnapshotError, SegmentationError
from seampde.hifi import SnapshotMatrix, load_snapshots, save_snapshots
from seampde.pod import GramSpectrum
from seampde.seam import (
    SeamModel,
    export_segment_metadata,
    run_parallel_seam,
    save_seam,
    seam_offline,
    seam_online,
)


def identity_operator(n):
    return sparse.eye(n, format="csr")


UNIT = (np.array([1.0]), GramSpectrum(np.array([1.0]), np.array([1.0])))


def rank_one_segment(n_dofs, n_cols, ratio, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n_dofs)
    v /= np.linalg.norm(v)
    return v, np.outer(v, ratio ** np.arange(n_cols))


def test_offline_identity_operators():
    v, seg = rank_one_segment(12, 5, 0.9)
    model = seam_offline(seg, identity_operator(12), identity_operator(12),
                         np.zeros(12), tau=0.5)
    assert model.system_coeff == pytest.approx(1.5, rel=1e-12)
    assert model.mass_coeff == pytest.approx(1.0, rel=1e-12)
    assert abs(model.alpha0) == pytest.approx(1.0, rel=1e-12)


def test_offline_zero_segment():
    with pytest.raises(DegenerateSnapshotError):
        seam_offline(np.zeros((8, 4)), identity_operator(8),
                     identity_operator(8), np.zeros(8), tau=0.1)


def test_online_hand_iterated_recurrence():
    model = SeamModel(*UNIT, system_coeff=2.0, mass_coeff=1.0, load_coeff=1.0,
                      alpha0=0.0, tau=1.0)
    np.testing.assert_allclose(seam_online(model, 3), [0.0, 0.5, 0.75, 0.875])


def test_online_geometric_decay_without_load():
    model = SeamModel(*UNIT, system_coeff=1.25, mass_coeff=1.0, load_coeff=0.0,
                      alpha0=3.0, tau=0.7)
    alphas = seam_online(model, 6)
    np.testing.assert_allclose(alphas, 3.0 * 0.8 ** np.arange(7), rtol=1e-14)


def test_online_per_step_load():
    model = SeamModel(*UNIT, system_coeff=1.0, mass_coeff=1.0,
                      load_coeff=np.array([1.0, 2.0]), alpha0=0.0, tau=1.0)
    np.testing.assert_allclose(seam_online(model, 2), [0.0, 1.0, 3.0])


def test_model_rejects_nonpositive_coefficients():
    with pytest.raises(ValueError, match="positive"):
        SeamModel(*UNIT, system_coeff=0.0, mass_coeff=1.0, load_coeff=0.0,
                  alpha0=0.0, tau=0.1)


def test_exact_rank_one_reproduction():
    # columns follow exactly the ratio the reduced recurrence produces
    tau = 0.25
    ratio = 1.0 / (1.0 + tau)  # mass = I, stiffness = I
    v, seg = rank_one_segment(20, 9, ratio, seed=4)
    snaps = SnapshotMatrix(seg, tau)
    solution = run_parallel_seam(snaps, identity_operator(20),
                                 identity_operator(20), np.zeros(20),
                                 segment_steps=8)
    np.testing.assert_allclose(solution.to_matrix(), seg, atol=1e-12)


def test_single_segment_matches_offline_online_exactly():
    rng = np.random.default_rng(6)
    seg = rng.standard_normal((10, 6)) * 0.5
    mass = identity_operator(10)
    stiffness = identity_operator(10)
    load = rng.standard_normal(10)
    snaps = SnapshotMatrix(seg, 0.1)
    solution = run_parallel_seam(snaps, mass, stiffness, load, segment_steps=5)
    assert len(solution.models) == 1
    model = seam_offline(snaps.data, mass, stiffness, load, 0.1)
    alphas = seam_online(model, 5)
    assert np.array_equal(solution.alphas[0], alphas)
    np.testing.assert_allclose(solution.to_matrix(),
                               np.outer(model.basis, alphas))


def test_sign_invariance_of_reconstruction():
    rng = np.random.default_rng(13)
    seg = rng.standard_normal((14, 7))
    mass = identity_operator(14)
    model = seam_offline(seg, mass, mass, np.zeros(14), 0.2)
    flipped = SeamModel(-model.basis, model.spectrum, model.system_coeff,
                        model.mass_coeff, -np.asarray(model.load_coeff),
                        -model.alpha0, model.tau)
    original = np.outer(model.basis, seam_online(model, 6))
    mirrored = np.outer(flipped.basis, seam_online(flipped, 6))
    np.testing.assert_allclose(original, mirrored, atol=1e-14)


@pytest.mark.parametrize("segment_steps", [3, -1])
def test_divisibility_violation(segment_steps):
    snaps = SnapshotMatrix(np.ones((4, 10)), 0.1)
    with pytest.raises(SegmentationError):
        run_parallel_seam(snaps, identity_operator(4), identity_operator(4),
                          np.zeros(4), segment_steps=segment_steps)


def test_column_accessor():
    v, seg = rank_one_segment(6, 4, 0.5)
    snaps = SnapshotMatrix(seg, 0.1)
    solution = run_parallel_seam(snaps, identity_operator(6),
                                 identity_operator(6), np.zeros(6),
                                 segment_steps=1)
    full = solution.to_matrix()
    for j in range(4):
        np.testing.assert_allclose(solution.column(j), full[:, j])


@pytest.mark.slow
def test_galerkin_error_tracks_projection_error():
    # the reduced recurrence cannot beat the optimal projection, and on a
    # real scenario it stays within a factor 10 of it (measured: ~1.002)
    from seampde.fields import scenario
    from seampde.hifi import discretize, run_hifi
    from seampde.pod import eig_descending, gram

    problem = scenario("s3")
    disc = discretize(problem)
    snaps = run_hifi(problem, disc)
    solution = run_parallel_seam(snaps, disc.mass, disc.stiffness, disc.load,
                                 segment_steps=problem.segment_steps)
    cols = problem.segment_steps + 1
    projection_sq = 0.0
    galerkin_sq = 0.0
    scale = 0.0
    for k in range(len(solution.models)):
        block = snaps.data[:, k * cols:(k + 1) * cols]
        spectrum = eig_descending(gram(block))
        projection_sq += spectrum.eigenvalues[1:].sum()
        scale += spectrum.eigenvalues.sum()
        reconstructed = np.outer(solution.models[k].basis,
                                 solution.alphas[k])
        diff = block - reconstructed
        galerkin_sq += float(np.einsum("ij,ij->", diff, diff))
    noise = 1e-12 * scale
    assert galerkin_sq >= projection_sq * (1 - 1e-6) - noise
    assert galerkin_sq <= 10 * projection_sq + noise


def test_save_and_metadata_export(tmp_path):
    tau = 0.25
    v, seg = rank_one_segment(9, 6, 1.0 / 1.25, seed=5)
    snaps = SnapshotMatrix(seg, tau)
    solution = run_parallel_seam(snaps, identity_operator(9),
                                 identity_operator(9), np.zeros(9),
                                 segment_steps=2)
    bin_path = tmp_path / "seam.bin"
    save_seam(solution, bin_path)
    back = load_snapshots(bin_path)
    np.testing.assert_allclose(back.data, solution.to_matrix())

    meta_path = tmp_path / "segments.csv"
    export_segment_metadata(solution, meta_path)
    lines = meta_path.read_text().strip().splitlines()
    assert lines[0] == "segment,lambda0,system_coeff,mass_coeff,alpha0"
    assert len(lines) == 1 + len(solution.models)


def test_save_seam_bytes_equal_dense_snapshot_file(tmp_path):
    rng = np.random.default_rng(21)
    segments = [rank_one_segment(7, 4, ratio, seed=k)[1]
                + 1e-3 * rng.standard_normal((7, 4))
                for k, ratio in enumerate((0.9, 0.7, 1.1))]
    snaps = SnapshotMatrix(np.hstack(segments), 0.05)
    solution = run_parallel_seam(snaps, identity_operator(7),
                                 identity_operator(7), np.ones(7),
                                 segment_steps=3)
    assert len(solution.models) == 3
    save_seam(solution, tmp_path / "seam.bin")
    save_snapshots(SnapshotMatrix(solution.to_matrix(), solution.tau),
                   tmp_path / "dense.bin")
    assert ((tmp_path / "seam.bin").read_bytes()
            == (tmp_path / "dense.bin").read_bytes())
