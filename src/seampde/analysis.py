"""Spectral diagnostics for the rank-1 reduction.

Covers the operator norm of the symmetrized evolution operator (via the
generalized eigenproblem, never forming mass-matrix square roots), the
time-step smallness check, the rank-one reference spectrum and its
perturbation distance to the true Gram spectrum, Hoffman-Wielandt
eigenvalue-displacement checks, and the space-time relative L2 error
between a high-fidelity run and its reduced replay.

The rank-one reference grows like |1 - tau*norm|^(2n) and overflows
float64 for the coarser time steps, so reference and perturbation
quantities are carried in extended precision (numpy longdouble).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from seampde.errors import DegenerateReferenceError, StagnationError
from seampde.hifi import SnapshotMatrix, cg_solve, galerkin_start
from seampde.pod import SPECTRUM_HEAD, GramSpectrum, eig_descending, gram, jacobi_eigh
from seampde.seam import SeamSolution

# operator_norm's stopping rule: relative change of the estimate, step cap
_POWER_RTOL = 1e-10
_POWER_MAXITER = 10000


def operator_norm(mass: sparse.csr_matrix, stiffness: sparse.csr_matrix) -> float:
    """Largest generalized eigenvalue of (S, M) by power iteration.

    Equals the 2-norm of the symmetrized evolution operator. Each step
    solves M w = S v by CG, started by ``galerkin_start`` (A = M) on the last
    two M-normalized iterates (on v alone, giving (v.Sv) v, at first); their
    M v come free with the normalization. The first v is a fixed random draw.
    """
    w = np.random.default_rng(0).standard_normal(mass.shape[0])
    v = mv = estimate = None
    for _ in range(_POWER_MAXITER):
        mw = mass @ w
        norm_w = np.sqrt(w @ mw)
        if norm_w == 0.0:
            return 0.0  # stiffness annihilates the iterate: S is zero on it
        v_prev, mv_prev, v, mv = v, mv, w / norm_w, mw / norm_w
        sv = stiffness @ v
        current = float(v @ sv)
        if (estimate is not None
                and abs(current - estimate) <= _POWER_RTOL * abs(current)):
            return current
        estimate = current
        w = cg_solve(mass, sv, x0=galerkin_start(sv, v, mv, v_prev, mv_prev))
    raise StagnationError(
        f"power iteration stagnated after {_POWER_MAXITER} iterations "
        f"(last estimate {estimate!r})"
    )


def reference_principal_eigenvalue(u0: np.ndarray, norm_a: float, tau: float,
                                   n: int) -> np.longdouble:
    """Principal Gram eigenvalue of the rank-one reference, in closed form.

    The reference has rank at most one, so its Gram spectrum is
    ||u0||^2 * sum_{k=0..n} (1 - tau*norm)^(2k) followed by exact zeros;
    the geometric sum is evaluated in extended precision.
    """
    if not tau * norm_a < 1.0:
        warnings.warn(
            f"tau*||A|| = {tau * norm_a:.3g} >= 1: the rank-one reference "
            "grows instead of decaying",
            stacklevel=2,
        )
    r2 = np.longdouble(1.0 - tau * norm_a) ** 2
    if r2 == 1.0:
        total = np.longdouble(n + 1)
    else:
        total = (r2 ** (n + 1) - 1.0) / (r2 - 1.0)
    u0 = np.asarray(u0, dtype=float)
    return np.longdouble(u0 @ u0) * total


@dataclass(frozen=True)
class PerturbationRecord:
    """Distance of a Gram spectrum from the rank-one reference spectrum."""

    quantity: np.longdouble  # (lam0 - lam0_ref)^2 + sum_{k>=1} lam_k^2
    tail_sum_sq: float       # sum_{k>=1} lam_k^2 alone
    bound_proxy: float       # n^4 tau^2
    ratio: np.longdouble

    def to_json_dict(self) -> dict:
        return {
            "quantity": _json_number(self.quantity),
            "tail_sum_sq": self.tail_sum_sq,
            "bound_proxy": self.bound_proxy,
            "ratio": _json_number(self.ratio),
        }


def perturbation_quantity(spectrum: GramSpectrum, lambda0_ref,
                          n: int, tau: float) -> PerturbationRecord:
    """Squared principal-eigenvalue shift plus the squared trailing tail."""
    values = np.asarray(spectrum.eigenvalues, dtype=float)
    tail = float(np.sum(np.square(values[1:], dtype=float)))
    shift = np.longdouble(values[0]) - np.longdouble(lambda0_ref)
    quantity = shift * shift + np.longdouble(tail)
    proxy = float(n) ** 4 * tau**2
    return PerturbationRecord(quantity, tail, proxy, quantity / np.longdouble(proxy))


@dataclass(frozen=True)
class HoffmanWielandtRecord:
    """Margins of the two eigenvalue-displacement inequalities.

    ``frobenius_margin`` is ||E||_F^2 minus the summed squared eigenvalue
    shifts; ``lower_margin``/``upper_margin`` are the worst-case slack of
    the bracketing by the extreme eigenvalues of the perturbation. All
    three are nonnegative in exact arithmetic.
    """

    sum_sq_shift: float
    frob_sq: float
    frobenius_margin: float
    lower_margin: float
    upper_margin: float

    def holds(self, tol: float = 1e-9) -> bool:
        return (self.frobenius_margin >= -tol and self.lower_margin >= -tol
                and self.upper_margin >= -tol)


def hoffman_wielandt_check(a: np.ndarray, e: np.ndarray) -> HoffmanWielandtRecord:
    """Evaluate both displacement inequalities for symmetric A and E."""
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    for name, mat in (("A", a), ("E", e)):
        scale = np.abs(mat).max()
        if scale > 0 and np.abs(mat - mat.T).max() > 1e-10 * scale:
            raise ValueError(f"matrix {name} is not symmetric")
    if a.shape != e.shape:
        raise ValueError("A and E must have the same shape")
    base, _ = jacobi_eigh(a)
    shifted, _ = jacobi_eigh(a + e)
    perturb, _ = jacobi_eigh(e)
    diffs = shifted - base
    sum_sq = float(diffs @ diffs)
    frob_sq = float(np.sum(e * e))
    return HoffmanWielandtRecord(
        sum_sq_shift=sum_sq,
        frob_sq=frob_sq,
        frobenius_margin=frob_sq - sum_sq,
        lower_margin=float((diffs - perturb[-1]).min()),
        upper_margin=float((perturb[0] - diffs).min()),
    )


def column_error_norms(reference: SnapshotMatrix, reduced: SeamSolution,
                       mass: sparse.csr_matrix):
    """Squared M-norms of the error and of the reference, one per column.

    The reduced solution is expanded one segment block at a time, so the
    dense reduced matrix is never formed. Returns ``(error_sq, reference_sq)``.
    """
    ref = reference.data
    shape = (reduced.num_dofs, reduced.num_columns)
    if ref.shape != shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {shape}")
    error_sq = np.empty(shape[1])
    reference_sq = np.empty(shape[1])
    start = 0
    for block in reduced.blocks():
        part = slice(start, start + block.shape[1])
        columns = ref[:, part]
        diff = columns - block
        error_sq[part] = np.einsum("ij,ij->j", diff, mass @ diff)
        reference_sq[part] = np.einsum("ij,ij->j", columns, mass @ columns)
        start = part.stop
    return error_sq, reference_sq


def relative_l2_error(reference: SnapshotMatrix, reduced: SeamSolution,
                      mass: sparse.csr_matrix, tau: float) -> float:
    """Space-time relative L2 error of a reduced run against its reference.

    The spatial integral is exact on the FE space through the mass
    matrix; the time integral is a rectangle sum with weight tau over
    every column of the grid.
    """
    return space_time_error(*column_error_norms(reference, reduced, mass), tau)


def space_time_error(error_sq: np.ndarray, reference_sq: np.ndarray,
                     tau: float) -> float:
    """Relative L2 error from the per-column norms of column_error_norms."""
    num = tau * error_sq.sum()
    den = tau * reference_sq.sum()
    if den == 0.0:
        raise DegenerateReferenceError("reference solution is identically zero")
    return float(np.sqrt(num / den))


@dataclass(frozen=True)
class SpectralReport:
    """Per-segment eigenvalue heads plus the rank-one-reference diagnostics."""

    spectra: tuple          # GramSpectrum per segment
    norm_a: float
    tau_norm_a: float       # the time-step smallness product, reported not enforced
    lambda0_ref: np.longdouble
    perturbation: PerturbationRecord
    segment_steps: int
    tau: float

    def leading_eigenvalues(self) -> np.ndarray:
        return np.array([s.eigenvalues[0] for s in self.spectra])

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "segments": [
                {"segment": k,
                 "eigenvalues": [float(v) for v in s.eigenvalues[:SPECTRUM_HEAD]]}
                for k, s in enumerate(self.spectra)
            ],
            "norm_a": self.norm_a,
            "tau_norm_a": self.tau_norm_a,
            "time_step_assumption_satisfied": self.tau_norm_a < 1.0,
            "lambda0_reference": _json_number(self.lambda0_ref),
            "perturbation": self.perturbation.to_json_dict(),
            "segment_steps": self.segment_steps,
            "tau": self.tau,
        }


def build_spectral_report(blocks, tau: float, mass: sparse.csr_matrix,
                          stiffness: sparse.csr_matrix,
                          segment_steps: int) -> SpectralReport:
    """Eigenanalyze each segment block in turn; compare the first to the reference."""
    spectra, u0 = [], None
    for block in blocks:
        u0 = block[:, 0].copy() if u0 is None else u0
        spectra.append(eig_descending(gram(block)))
    norm_a = operator_norm(mass, stiffness)
    if norm_a <= 0:
        raise ValueError("operator norm must be positive")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the report flags tau*||A|| >= 1
        lambda0_ref = reference_principal_eigenvalue(u0, norm_a, tau, segment_steps)
    record = perturbation_quantity(spectra[0], lambda0_ref, segment_steps, tau)
    return SpectralReport(
        spectra=tuple(spectra),
        norm_a=norm_a,
        tau_norm_a=tau * norm_a,
        lambda0_ref=lambda0_ref,
        perturbation=record,
        segment_steps=segment_steps,
        tau=tau,
    )


def _json_number(value):
    """Finite numbers as floats; extended-precision overflow as a string."""
    as_float = float(value)
    if np.isfinite(as_float):
        return as_float
    return repr(np.longdouble(value))
