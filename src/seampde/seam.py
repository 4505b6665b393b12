"""Rank-1 reduced time stepping and the segmented parallel driver.

Offline, each snapshot block contributes one basis vector beta and three
scalars: beta' (M + tau S) beta, beta' M beta, and beta' F. Online, every
backward-Euler step collapses to a single scalar division, so replaying a
run costs O(1) work per step instead of a linear solve. The replay is
plain Python-float arithmetic, whose one NumPy call is the conversion of
the result to an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from seampde.assembly import DiaOperator
from seampde.hifi import SnapshotMatrix, product, save_snapshots
from seampde.pod import block_spectrum, pod_basis


@dataclass(frozen=True)
class SeamModel:
    """One segment's reduced model: basis beta, the Gram eigenvalues it
    came from, and the scalar recurrence data."""

    basis: np.ndarray  # beta, unit 2-norm
    eigenvalues: np.ndarray  # descending, read-only
    system_coeff: float  # beta' (M + tau S) beta
    mass_coeff: float    # beta' M beta
    load_coeff: float    # beta' F
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

    def to_matrix(self) -> np.ndarray:
        """The dofs x (segments*(n+1)) matrix of each segment's beta alpha_k'."""
        return np.hstack([np.outer(model.basis, alpha)
                          for model, alpha in zip(self.models, self.alphas)])


def seam_offline(segment_data: np.ndarray, mass: DiaOperator,
                 stiffness: DiaOperator, load: np.ndarray,
                 tau: float) -> SeamModel:
    """Extract the rank-1 basis of a snapshot block and reduce the operators."""
    eigenvalues, leading_vector = block_spectrum(segment_data)
    beta = pod_basis(segment_data, eigenvalues, leading_vector)
    mass_coeff = float(beta @ product(mass, beta))
    system_coeff = float(mass_coeff + tau * (beta @ product(stiffness, beta)))
    load_coeff = float(beta @ load)
    alpha0 = float(beta @ segment_data[:, 0])
    return SeamModel(beta, eigenvalues, system_coeff, mass_coeff, load_coeff,
                     alpha0, tau)


def seam_online(model: SeamModel, steps: int) -> np.ndarray:
    """Run the scalar recurrence; returns alpha_0..alpha_steps."""
    a, m, tau = model.system_coeff, model.mass_coeff, model.tau
    load = model.load_coeff
    # Python floats: NumPy-scalar arithmetic costs several times more per
    # operation, and the same operations in the same order give the same
    # doubles. The forcing tau*g is one product for all steps.
    current = model.alpha0
    alphas = [current]
    for f in repeat(tau * load, steps):
        current = (m * current + f) / a
        alphas.append(current)
    return np.array(alphas, dtype=float)


def run_parallel_seam(snapshots: SnapshotMatrix, mass: DiaOperator,
                      stiffness: DiaOperator, load,
                      segment_steps: int) -> SeamSolution:
    """Reduce every segment of a snapshot matrix independently, then replay.

    Raises ValueError unless the column count is an exact multiple of
    segment_steps+1. Nothing is timed: the command line reduces and replays
    each streamed block with seam_offline and seam_online, and times those
    calls itself.
    """
    data, tau, cols = snapshots.data, snapshots.tau, segment_steps + 1
    if cols < 1 or snapshots.num_columns % cols != 0:
        raise ValueError(f"{snapshots.num_columns} snapshot columns do not "
                         f"split into segments of {cols}")
    models = tuple(seam_offline(data[:, k:k + cols], mass, stiffness, load, tau)
                   for k in range(0, snapshots.num_columns, cols))
    alphas = np.vstack([seam_online(model, segment_steps) for model in models])
    return SeamSolution(models, alphas, tau)


def save_seam(solution: SeamSolution, path) -> None:
    """The reconstructed matrix, written by save_snapshots."""
    save_snapshots(SnapshotMatrix(solution.to_matrix(), solution.tau), path)
