"""Gram-matrix eigenanalysis and rank-1 POD basis extraction.

`block_spectrum` gives a snapshot block's Gram spectrum from the smaller
of its two products: `eig_descending` solves the (n+1)x(n+1) Gram matrix
X^T X with LAPACK's symmetric solver, or, for a block with more columns
than dofs, the dofs x dofs product X X^T, which has the same non-zero
eigenvalues (Sirovich's method of snapshots). `jacobi_eigh`,
a cyclic Jacobi iteration, is kept as the reference solver that the
tests compare LAPACK's results against; no run calls it. Rotations below
an absolute threshold tied to the matrix scale are skipped, which makes
sweeps on near-rank-1 Gram matrices essentially free after the first
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seampde.errors import DegenerateSnapshotError, StagnationError

_MAX_SWEEPS = 50
# Leading eigenvalues per segment that eigenvalues.csv and report.json keep.
SPECTRUM_HEAD = 5


def _jacobi_kernel(a, v, tol, max_sweeps):
    """Rotate `a` towards diagonal in place; True if the last sweep still rotated."""
    n = a.shape[0]
    sweeps = 0
    rotated = True
    while rotated and sweeps < max_sweeps:
        rotated = False
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol:
                    continue
                rotated = True
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
                a[p, q] = 0.0
                a[q, p] = 0.0
                for k in range(n):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
    return rotated


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) in descending eigenvalue order;
    column j of the eigenvector matrix belongs to eigenvalue j. Raises
    StagnationError if rotations are still pending after _MAX_SWEEPS sweeps.
    """
    a = np.array(matrix, dtype=float, order="C")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    v = np.eye(n)
    scale = np.linalg.norm(a)
    if scale > 0.0 and _jacobi_kernel(a, v, 1e-15 * scale, _MAX_SWEEPS):
        raise StagnationError(
            f"Jacobi rotations still pending after {_MAX_SWEEPS} sweeps")
    values = np.diag(a).copy()
    order = np.argsort(values)[::-1]
    return values[order], v[:, order]


@dataclass(frozen=True)
class GramSpectrum:
    """Eigenvalues of one snapshot block's Gram matrix, plus the top eigenvector."""

    eigenvalues: np.ndarray  # descending, clamped at zero
    leading_vector: np.ndarray  # unit norm, largest-magnitude entry positive

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.leading_vector.setflags(write=False)


def gram(segment: np.ndarray) -> np.ndarray:
    """Exact symmetric product X = segment^T segment."""
    return segment.T @ segment


def eig_descending(x: np.ndarray) -> GramSpectrum:
    """Descending eigenvalues of a symmetric matrix, clamped at zero.

    Non-finite entries and asymmetry beyond 1e-10 relative are rejected;
    eigenvalues below -1e-12 * trace are treated as a numerical fault
    rather than clamped. A matrix whose largest eigenvalue is at most
    machine epsilon times its trace (the Gram matrix of an all-zero block)
    raises DegenerateSnapshotError: it has no POD basis.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"matrix must be square, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(x).max() if x.size else 0.0
    if scale > 0 and np.abs(x - x.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(x)
    values, vectors = values[::-1], vectors[:, ::-1]
    floor = -1e-12 * max(np.trace(x), 0.0)
    if values.min(initial=0.0) < floor:
        raise ValueError(
            f"eigenvalue {values.min():.3e} below the clamp floor {floor:.3e}; "
            "input is not numerically positive semi-definite"
        )
    values = np.maximum(values, 0.0)
    trace = float(np.trace(x))
    if values[0] <= np.finfo(float).eps * trace or trace == 0.0:
        raise DegenerateSnapshotError(
            "snapshot block is numerically zero; no POD basis exists"
        )
    return GramSpectrum(values, _largest_entry_positive(vectors[:, 0]).copy())


def _largest_entry_positive(vector: np.ndarray) -> np.ndarray:
    return -vector if vector[np.argmax(np.abs(vector))] < 0 else vector


def block_spectrum(segment: np.ndarray) -> GramSpectrum:
    """eig_descending(gram(X)) of a snapshot block X, from the smaller
    product: a block with more columns than rows solves X X^T (the same
    non-zero eigenvalues), pads them with exact zeros to one per column,
    and takes the leading vector as X^T u0 (of norm sqrt(lam0)) from the
    leading u0 of X X^T, unit-normed, largest-magnitude entry positive."""
    if segment.shape[1] <= segment.shape[0]:
        return eig_descending(gram(segment))
    left = eig_descending(gram(segment.T))
    values = np.zeros(segment.shape[1])
    values[:len(left.eigenvalues)] = left.eigenvalues
    b0 = segment.T @ left.leading_vector
    return GramSpectrum(values, _largest_entry_positive(b0 / np.linalg.norm(b0)))


def pod_basis(segment_data: np.ndarray, spectrum: GramSpectrum) -> np.ndarray:
    """Read-only rank-1 basis beta = (1/sqrt(lam0)) * segment @ b0 from the
    segment's Gram spectrum, which eig_descending has checked is not zero;
    unit 2-norm by construction."""
    lam0 = float(spectrum.eigenvalues[0])
    beta = segment_data @ spectrum.leading_vector / np.sqrt(lam0)
    beta.setflags(write=False)
    return beta
