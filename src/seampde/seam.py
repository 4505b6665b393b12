"""Rank-1 reduced time stepping and the segmented parallel driver.

Offline, each snapshot block contributes one basis vector beta and three
scalars: beta' (M + tau S) beta, beta' M beta, and beta' F. Online, every
backward-Euler step collapses to a single scalar division, so replaying a
run costs O(1) work per step instead of a linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from seampde.hifi import SnapshotMatrix, snapshot_writer
from seampde.pod import GramSpectrum, block_spectrum, pod_basis


@dataclass(frozen=True)
class SeamModel:
    """One segment's reduced model: basis beta, the Gram spectrum it came
    from, and the scalar recurrence data."""

    basis: np.ndarray  # beta, unit 2-norm
    spectrum: GramSpectrum
    system_coeff: float  # beta' (M + tau S) beta
    mass_coeff: float    # beta' M beta
    load_coeff: float | np.ndarray  # beta' F, per step when the source varies
    alpha0: float
    tau: float

    def __post_init__(self):
        if not self.system_coeff > 0 or not self.mass_coeff > 0:
            raise ValueError(
                "reduced operators must be positive, got "
                f"system={self.system_coeff!r} mass={self.mass_coeff!r}"
            )


@dataclass(frozen=True)
class SeamSolution:
    """Per-segment coefficient sequences with their bases."""

    models: tuple
    alphas: np.ndarray  # (segments, n+1)
    tau: float

    def __post_init__(self):
        self.alphas.setflags(write=False)

    @property
    def segment_steps(self) -> int:
        return self.alphas.shape[1] - 1

    @property
    def num_dofs(self) -> int:
        return len(self.models[0].basis)

    @property
    def num_columns(self) -> int:
        return self.alphas.size

    def blocks(self):
        """Each segment's Fortran-ordered dofs x (n+1) block beta alpha_k'."""
        return (np.outer(alpha, model.basis).T
                for model, alpha in zip(self.models, self.alphas))

    def to_matrix(self) -> np.ndarray:
        return np.hstack(list(self.blocks()))


def seam_offline(segment_data: np.ndarray, mass: sparse.dia_matrix,
                 stiffness: sparse.dia_matrix, load: np.ndarray,
                 tau: float) -> SeamModel:
    """Extract the rank-1 basis of a snapshot block and reduce the operators."""
    spectrum = block_spectrum(segment_data)
    beta = pod_basis(segment_data, spectrum)
    mass_coeff = float(beta @ (mass @ beta))
    system_coeff = float(mass_coeff + tau * (beta @ (stiffness @ beta)))
    load_coeff = float(beta @ load)
    alpha0 = float(beta @ segment_data[:, 0])
    return SeamModel(beta, spectrum, system_coeff, mass_coeff, load_coeff,
                     alpha0, tau)


def seam_online(model: SeamModel, steps: int) -> np.ndarray:
    """Run the scalar recurrence; returns alpha_0..alpha_steps."""
    a, m, tau = model.system_coeff, model.mass_coeff, model.tau
    current = model.alpha0
    alphas = [current]
    # Python floats: NumPy-scalar arithmetic costs several times more per
    # operation, and the same operations in the same order give the same doubles.
    for g in np.broadcast_to(model.load_coeff, steps).tolist():
        current = (m * current + tau * g) / a
        alphas.append(current)
    return np.array(alphas, dtype=float)


def run_parallel_seam(snapshots: SnapshotMatrix, mass: sparse.dia_matrix,
                      stiffness: sparse.dia_matrix, load,
                      segment_steps: int) -> SeamSolution:
    """Reduce every segment of a snapshot matrix independently, then replay.

    The column count must be an exact multiple of segment_steps+1. Nothing
    is timed: the command line reduces and replays each streamed block with
    seam_offline and seam_online, and times those calls itself.
    """
    tau = snapshots.tau
    models = tuple(seam_offline(block, mass, stiffness, load, tau)
                   for block in snapshots.segments(segment_steps))
    alphas = np.vstack([seam_online(model, segment_steps) for model in models])
    return SeamSolution(models, alphas, tau)


def save_seam(solution: SeamSolution, path) -> None:
    """Reconstructed columns in the snapshot binary format, one segment at a time."""
    with snapshot_writer(path, solution.num_dofs, solution.num_columns,
                         solution.tau) as append:
        for block in solution.blocks():
            append(block)
