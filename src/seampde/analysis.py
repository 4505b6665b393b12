"""Spectral diagnostics for the rank-1 reduction.

Covers the operator norm of the symmetrized evolution operator (via the
generalized eigenproblem, never forming mass-matrix square roots; its mass
solves start from products the power iteration holds and stop at its own
1e-10), the rank-one reference spectrum and its perturbation distance to
the true Gram spectrum, Hoffman-Wielandt eigenvalue-displacement checks,
and the space-time relative L2 error between a high-fidelity run and its
reduced replay. The time-step product tau*||A|| is reported in report.json
(``tau_norm_a`` and ``time_step_assumption_satisfied``), neither enforced
nor warned about.

The rank-one reference grows like |1 - tau*norm|^(2n) and overflows
float64 for the coarser time steps, so reference and perturbation
quantities are carried in extended precision (numpy longdouble); the
report.json payload holds them so, for the command line's JSON writer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seampde.errors import DegenerateReferenceError, StagnationError
from seampde.assembly import DiaOperator
from seampde.hifi import SnapshotMatrix, block_product, cg_solve, galerkin_start, product
from seampde.pod import SPECTRUM_HEAD, GramSpectrum, block_spectrum
from seampde.seam import SeamSolution

# operator_norm's stopping rule (relative change of the estimate, also the
# relative residual of its mass solves) and step cap
_POWER_RTOL = 1e-10
_POWER_MAXITER = 10000


def operator_norm(mass: DiaOperator, stiffness: DiaOperator) -> float:
    """Largest generalized eigenvalue of (S, M) by power iteration.

    Equals the 2-norm of the symmetrized evolution operator. Each step
    solves M w = S v by CG to the stopping rule's own relative 1e-10, started
    by ``galerkin_start`` (A = M) on the last two M-normalized iterates (on v
    alone, giving (v.Sv) v, at first); their M v come free with the
    normalization, and M w is S v minus CG's final residual, so only the
    first, random, iterate costs a mass product outside CG. An iterate is
    renormalized every step, so that residual's error does not accumulate.
    """
    w = np.random.default_rng(0).standard_normal(mass.shape[0])
    mw = product(mass, w)
    v = mv = estimate = None
    for _ in range(_POWER_MAXITER):
        norm_w = np.sqrt(w @ mw)
        if norm_w == 0.0:
            return 0.0  # stiffness annihilates the iterate: S is zero on it
        v_prev, mv_prev, v, mv = v, mv, w / norm_w, mw / norm_w
        sv = product(stiffness, v)
        current = float(v @ sv)
        if (estimate is not None
                and abs(current - estimate) <= _POWER_RTOL * abs(current)):
            return current
        estimate = current
        w, r = cg_solve(mass, sv, *galerkin_start(sv, v, mv, v_prev, mv_prev),
                        _POWER_RTOL)
        mw = np.subtract(sv, r, out=r)
    raise StagnationError(
        f"power iteration stagnated after {_POWER_MAXITER} iterations "
        f"(last estimate {estimate!r})"
    )


def reference_principal_eigenvalue(u0: np.ndarray, norm_a: float, tau: float,
                                   n: int) -> np.longdouble:
    """Principal Gram eigenvalue of the rank-one reference, in closed form.

    The reference has rank at most one, so its Gram spectrum is
    ||u0||^2 * sum_{k=0..n} (1 - tau*norm)^(2k) followed by exact zeros;
    the geometric sum is evaluated in extended precision. When
    tau*norm >= 1 the reference grows instead of decaying; report.json's
    ``time_step_assumption_satisfied`` records that.
    """
    r2 = np.longdouble(1.0 - tau * norm_a) ** 2
    if r2 == 1.0:
        total = np.longdouble(n + 1)
    else:
        total = (r2 ** (n + 1) - 1.0) / (r2 - 1.0)
    return np.longdouble(u0 @ u0) * total


def perturbation_quantity(spectrum: GramSpectrum, lambda0_ref,
                          n: int, tau: float) -> dict:
    """report.json's ``perturbation``: ``quantity`` (np.longdouble) is the squared
    principal-eigenvalue shift plus ``tail_sum_sq``, sum_{k>=1} lam_k^2, and
    ``ratio`` (np.longdouble) is quantity over ``bound_proxy``, n^4 tau^2."""
    values = spectrum.eigenvalues
    tail = float(np.sum(np.square(values[1:], dtype=float)))
    shift = np.longdouble(values[0]) - np.longdouble(lambda0_ref)
    quantity = shift * shift + np.longdouble(tail)
    proxy = float(n) ** 4 * tau**2
    return {"quantity": quantity, "tail_sum_sq": tail, "bound_proxy": proxy,
            "ratio": quantity / np.longdouble(proxy)}


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

    def holds(self, tol: float) -> bool:
        return (self.frobenius_margin >= -tol and self.lower_margin >= -tol
                and self.upper_margin >= -tol)


def hoffman_wielandt_check(a: np.ndarray, e: np.ndarray) -> HoffmanWielandtRecord:
    """Evaluate both displacement inequalities for symmetric float A and E
    of one shape on their descending LAPACK eigenvalues."""
    base, shifted, perturb = (np.linalg.eigvalsh(mat)[::-1] for mat in (a, a + e, e))
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
                       mass: DiaOperator):
    """Squared M-norms of the error and of the reference, one per column.

    The reduced solution is expanded one segment block at a time, so the
    dense reduced matrix is never formed. Returns ``(error_sq, reference_sq)``.
    """
    shape = (reduced.num_dofs, reduced.num_columns)
    if reference.data.shape != shape:
        raise ValueError(f"shape mismatch: {reference.data.shape} vs {shape}")
    norms = [block_error_norms(columns, block, mass) for columns, block
             in zip(reference.segments(reduced.segment_steps), reduced.blocks())]
    return tuple(np.concatenate(parts) for parts in zip(*norms))


def block_error_norms(columns: np.ndarray, reduced: np.ndarray,
                      mass: DiaOperator):
    """``(error_sq, reference_sq)`` of column_error_norms for one block.
    The C-ordered copy that block_product reads in place becomes the
    difference; einsum's inputs stay C-ordered, which fixes its bits."""
    work = np.array(columns, dtype=float, order="C")  # always a copy
    reference_sq = np.einsum("ij,ij->j", work, block_product(mass, work))
    np.subtract(work, reduced, out=work)
    return np.einsum("ij,ij->j", work, block_product(mass, work)), reference_sq


def relative_l2_error(reference: SnapshotMatrix, reduced: SeamSolution,
                      mass: DiaOperator, tau: float) -> float:
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


def build_spectral_report(blocks, tau: float, mass: DiaOperator,
                          stiffness: DiaOperator,
                          segment_steps: int) -> tuple[list, dict]:
    """Eigenanalyze each segment block in turn, dropping it before the next
    one is made; compare the first to the reference. Return the spectra and
    the report.json payload: each segment's eigenvalue head and the
    rank-one-reference diagnostics, the extended-precision ones as
    np.longdouble."""
    spectra, u0 = [], None
    for block in blocks:
        u0 = block[:, 0].copy() if u0 is None else u0
        spectra.append(block_spectrum(block))
        del block
    norm_a = operator_norm(mass, stiffness)
    if norm_a <= 0:
        raise ValueError("operator norm must be positive")
    lambda0_ref = reference_principal_eigenvalue(u0, norm_a, tau, segment_steps)
    return spectra, {
        "schema": 1,
        "segments": [
            {"segment": k,
             "eigenvalues": [float(v) for v in s.eigenvalues[:SPECTRUM_HEAD]]}
            for k, s in enumerate(spectra)
        ],
        "norm_a": norm_a,
        "tau_norm_a": tau * norm_a,
        "time_step_assumption_satisfied": tau * norm_a < 1.0,
        "lambda0_reference": lambda0_ref,
        "perturbation": perturbation_quantity(spectra[0], lambda0_ref,
                                              segment_steps, tau),
        "segment_steps": segment_steps,
        "tau": tau,
    }
