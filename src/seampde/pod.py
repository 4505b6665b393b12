"""Gram-matrix eigenanalysis and rank-1 POD basis extraction.

`block_spectrum` gives a snapshot block's Gram eigenvalues and leading
eigenvector, a plain pair of arrays, from the smaller of its two products:
`eig_descending` solves the (n+1)x(n+1) Gram matrix X^T X with LAPACK's
symmetric solver, or, for a block with more columns than dofs, the dofs x
dofs product X X^T, which has the same non-zero eigenvalues (Sirovich's
method of snapshots). `jacobi_eigh`, which no run calls, is the reference
the tests check LAPACK against: cyclic Jacobi rotations of whole rows and
columns, skipping any off-diagonal entry at most 1e-15 times the matrix's
Frobenius norm.
"""

from __future__ import annotations

import math
import numpy as np

from seampde.errors import DegenerateSnapshotError, StagnationError

_MAX_SWEEPS = 50
# Leading eigenvalues per segment that eigenvalues.csv and report.json keep.
SPECTRUM_HEAD = 5


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
    tol = 1e-15 * scale
    rotated = scale > 0.0
    sweeps = 0
    while rotated:
        if sweeps == _MAX_SWEEPS:
            raise StagnationError(
                f"Jacobi rotations still pending after {_MAX_SWEEPS} sweeps")
        sweeps += 1
        rotated = False
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
                # a <- J^T a J (its columns, then its rows), then v <- v J.
                for x in (a, a.T, v):
                    x[:, p], x[:, q] = c*x[:, p] - s*x[:, q], s*x[:, p] + c*x[:, q]
                a[p, q] = a[q, p] = 0.0
    values = np.diag(a).copy()
    order = np.argsort(values)[::-1]
    return values[order], v[:, order]


def gram(segment: np.ndarray) -> np.ndarray:
    """Exact symmetric product X = segment^T segment."""
    return segment.T @ segment


def eig_descending(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of a symmetric matrix, clamped at zero, and
    its top eigenvector, unit norm, largest-magnitude entry positive.

    Non-finite entries (a finite block's Gram matrix may overflow) and
    asymmetry beyond 1e-10 relative are rejected; eigenvalues below
    -1e-12 * trace are treated as a numerical fault rather than clamped. A
    matrix whose largest eigenvalue is at most machine epsilon times its
    trace (the Gram matrix of an all-zero block) raises
    DegenerateSnapshotError: it has no POD basis.
    """
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(x).max()
    if scale > 0 and np.abs(x - x.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(x)
    values, vectors = values[::-1], vectors[:, ::-1]
    trace = float(np.trace(x))
    floor = -1e-12 * max(trace, 0.0)
    if values.min() < floor:
        raise ValueError(
            f"eigenvalue {values.min():.3e} below the clamp floor {floor:.3e}; "
            "input is not numerically positive semi-definite"
        )
    values = np.maximum(values, 0.0)
    if values[0] <= np.finfo(float).eps * trace:
        raise DegenerateSnapshotError(
            "snapshot block is numerically zero; no POD basis exists"
        )
    return values, _largest_entry_positive(vectors[:, 0]).copy()


def _largest_entry_positive(vector: np.ndarray) -> np.ndarray:
    return -vector if vector[np.argmax(np.abs(vector))] < 0 else vector


def block_spectrum(segment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_descending(gram(X)) of a snapshot block X, eigenvalues read-only,
    from the smaller product: a block with more columns than rows solves
    X X^T (the same non-zero eigenvalues), pads them with exact zeros to one
    per column, and takes the leading vector as X^T u0 (of norm sqrt(lam0))
    from the leading u0 of X X^T, unit-normed, largest-magnitude entry positive."""
    if segment.shape[1] <= segment.shape[0]:
        values, b0 = eig_descending(gram(segment))
    else:
        left, u0 = eig_descending(gram(segment.T))
        values = np.concatenate([left, np.zeros(segment.shape[1] - len(left))])
        b0 = segment.T @ u0
        b0 = _largest_entry_positive(b0 / np.linalg.norm(b0))
    values.setflags(write=False)
    return values, b0


def pod_basis(segment_data: np.ndarray, eigenvalues: np.ndarray,
              leading_vector: np.ndarray) -> np.ndarray:
    """Read-only rank-1 basis beta = (1/sqrt(lam0)) * segment @ b0 from the
    segment's Gram eigenvalues, which eig_descending has checked are not
    zero, and leading vector b0; unit 2-norm by construction."""
    lam0 = float(eigenvalues[0])
    beta = segment_data @ leading_vector / np.sqrt(lam0)
    beta.setflags(write=False)
    return beta
