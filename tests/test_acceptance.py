"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the table.

Criteria 1, 2, 3, 4 and 7 check the program against oracles that do not
come from the code under test. The magnitudes reported for the original
SEAM experiments (the 1-D principal eigenvalue 1007.63, the 2-D segment
eigenvalue anchors such as 3376.2 -> 38.0, and reduced-model errors of
~1e-8) are not reproducible from the discretization this project
specifies, so they are not asserted:

* For the 1-D case the initial data sin(4*pi*x) is an exact eigenvector
  of both assembled operators, so the snapshot matrix has exact rank one
  and its principal eigenvalue has the closed form
  ||U0||^2 * sum_k rho^(2k) with rho = 1/(1 + tau*lambda_4) = 0.984433,
  giving 1602.43; no backward-Euler/linear-FEM run of the stated mesh can
  produce 1007.63.
* Conforming P1 eigenvalues lie above the continuous ones, so s1 with
  f=0 (smallest continuous eigenvalue 2*pi^2 + 1) loses at least a factor
  e^-41.9 of its principal eigenvalue before the last segment; the quoted
  ratio 38.0/3376.2 = 1.1e-2 is impossible.
* The POD optimality identity sum_k ||U_k - (b.U_k) b||^2 = sum_{j>=1}
  lambda_j makes the reported pairing of segment eigenvalue magnitudes
  (e.g. lambda_1 = 2.56e-4 at lambda_0 = 2373.15) with ~1e-8 relative
  errors internally inconsistent: those eigenvalues force errors >= 3e-4.
* The README specifies exact (consistent) mass integrals; with that mass
  matrix on Kuhn tetrahedra the 3-D sine product is not a discrete
  eigenvector, so heat3d's reduced error is an O(h^2) discretization
  effect, not ~1e-8.

The oracles, and how closely the program matches them on a 2-core
x86_64 box without numba:

* Criterion 1: the closed form above, from h, tau and n alone;
  lambda0 = 1602.43145159177 agrees to 6e-14 relative (held to 1e-9).
* Criterion 2: an independent rerun of each scenario that shares only
  the assembled operators (checked on their own in test_assembly.py):
  a sparse LU direct solve of every backward-Euler step and an SVD of
  the snapshot blocks. First- and last-segment lambda0 and s2 f=xy's
  segment-0 lambda1 agree to <= 1.3e-10 relative (held to 1e-8).
* Criteria 3 and 4: the error of the best model with one basis vector
  per segment, i.e. the M-orthogonal projection of every column onto
  the block's leading left singular vector. No rank-one reduced model
  can beat it; the program's error is 1.0001-1.0044 times it on the six
  2-D cases and 1.0005 times it on heat3d m=16 (held to <= 1.05 times).
  Copies of the recurrence broken on purpose exceed that: alpha0 off by
  1% gives 2.69 (s2 f=10) and 1.34 (heat3d), a dropped load term 20.6
  (s2 f=10), beta'S beta scaled by 1.05 gives 1.42 and 2.49. heat3d's
  error also falls at second order in h: error(m=8)/error(m=16) = 3.33
  (held to >= 3).
* Criterion 7: the sum of squared trailing eigenvalues is bounded
  absolutely only where the block is exactly rank one (heat1d). For the
  other problems tau*||A|| >> 1, where the abstract promises nothing;
  what it does promise, closeness to rank one improving as tau shrinks,
  is checked with the scale-free tail sum_{k>=1} lambda_k^2 / lambda_0^2
  over tau in {4e-4, 2e-4, 1e-4}. The absolute tail is not monotone in
  tau, because lambda_0 grows as tau falls.
"""

import time
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from seampde.analysis import (
    hoffman_wielandt_check,
    operator_norm,
    perturbation_quantity,
    reference_principal_eigenvalue,
    relative_l2_error,
)
from seampde.fields import problem_from_config, scenario
from seampde.hifi import discretize, run_hifi
from seampde.pod import eig_descending, gram, jacobi_eigh, pod_basis
from seampde.seam import run_parallel_seam, seam_online

from oracles import (
    backward_euler_step,
    charpoly_eigenvalues,
    heat_operators,
    projection_residual,
    to_scipy,
)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


@dataclass
class CaseRecord:
    name: str
    dofs: int
    hifi_seconds: float
    online_seconds: float
    error_l2: float
    projection_error: float
    lam0: np.ndarray
    lam1_first: float
    tail_sq_max: float
    identity_worst: float
    total_seconds: float


_CACHE = {}


def case_record(name, f="0", divisions=None):
    key = (name, f, divisions)
    if key in _CACHE:
        return _CACHE[key]
    problem = scenario(name, f)
    if divisions is not None:
        problem = replace(problem, divisions=divisions)
    start_total = time.perf_counter()
    disc = discretize(problem)
    start = time.perf_counter()
    snapshots = run_hifi(problem, disc)
    hifi_seconds = time.perf_counter() - start
    solution = run_parallel_seam(snapshots, disc.mass, disc.stiffness, disc.load,
                                 segment_steps=problem.segment_steps)
    start = time.perf_counter()
    for model in solution.models:
        seam_online(model, problem.segment_steps)
    online_seconds = time.perf_counter() - start
    error = relative_l2_error(snapshots, solution, disc.mass, problem.tau)

    cols = problem.segment_steps + 1
    lam0, tails, identity_gaps = [], [], []
    lam1_first = None
    for k in range(len(solution.models)):
        block = snapshots.data[:, k * cols:(k + 1) * cols]
        spectrum = eig_descending(gram(block))
        values = spectrum.eigenvalues
        lam0.append(values[0])
        if k == 0 and len(values) > 1:
            lam1_first = float(values[1])
        tails.append(float(np.sum(values[1:] ** 2)))
        residual = projection_residual(block, pod_basis(block, spectrum))
        trace = values.sum()
        gap = abs(residual - values[1:].sum()) / trace if trace > 0 else 0.0
        identity_gaps.append(gap)
    total_seconds = time.perf_counter() - start_total
    record = CaseRecord(
        name=f"{name},f={f}",
        dofs=disc.mesh.num_interior,
        hifi_seconds=hifi_seconds,
        online_seconds=online_seconds,
        error_l2=error,
        projection_error=m_projection_error(snapshots.data, to_scipy(disc.mass),
                                            problem.segment_steps),
        lam0=np.array(lam0),
        lam1_first=lam1_first,
        tail_sq_max=max(tails),
        identity_worst=max(identity_gaps),
        total_seconds=total_seconds,
    )
    _CACHE[key] = record
    return record


def m_projection_error(data, mass, segment_steps):
    """Space-time relative error of the best rank-one model per segment.

    Each segment's basis vector is the leading left singular vector of
    its block (from LAPACK's eigh of the block's Gram matrix), and every
    column is replaced by its M-orthogonal projection onto it: for that
    basis, no choice of coefficients has a smaller mass-norm error, so no
    reduced model with one basis vector per segment does better. The
    time weight tau cancels.
    """
    cols = segment_steps + 1
    num = den = 0.0
    for start in range(0, data.shape[1], cols):
        block = data[:, start:start + cols]
        beta = block @ np.linalg.eigh(block.T @ block)[1][:, -1]
        m_beta = mass @ beta
        residual = block - np.outer(beta, (m_beta @ block) / (m_beta @ beta))
        num += np.einsum("ij,ij->", residual, mass @ residual)
        den += np.einsum("ij,ij->", block, mass @ block)
    return float(np.sqrt(num / den))


def direct_snapshots(problem, disc):
    """Every snapshot column of a sparse-LU rerun, one at a time.

    The rerun shares only the assembled operators, load and initial
    vector with the program: every backward-Euler step is a sparse LU
    solve instead of CG. The source must not depend on t.
    """
    mass = to_scipy(disc.mass)
    lu = splu((mass + problem.tau * to_scipy(disc.stiffness)).tocsc())
    source = problem.tau * disc.load
    u = disc.initial.copy()
    yield u
    for _ in range(problem.num_steps):
        u = lu.solve(mass @ u + source)
        yield u


def direct_segment_spectra(name, f):
    """Squared singular values of the first and last snapshot blocks.

    The snapshots come from direct_snapshots, and the spectra from an SVD
    of the block instead of an eigensolve of its Gram matrix.
    """
    problem = scenario(name, f)
    disc = discretize(problem)
    cols = problem.segment_steps + 1
    block = np.empty((disc.mesh.num_interior, cols))
    first = None
    for step, u in enumerate(direct_snapshots(problem, disc)):
        block[:, step % cols] = u
        if step == cols - 1:
            first = np.linalg.svd(block, compute_uv=False) ** 2
    return first, np.linalg.svd(block, compute_uv=False) ** 2


def test_hifi_snapshots_match_direct_rerun():
    # s2 f=10 settles towards a steady state, where the CG start guess
    # extrapolates from the last two snapshots
    problem = replace(scenario("s2", "10"), divisions=8)
    disc = discretize(problem)
    snapshots = run_hifi(problem, disc)
    direct = np.column_stack(list(direct_snapshots(problem, disc)))
    gap = np.abs(snapshots.data - direct).max() / np.abs(direct).max()
    assert gap <= 1e-9


def heat1d_closed_form_lambda0(m=99, tau=1e-4, n=1000):
    """Principal Gram eigenvalue of the heat1d snapshots in closed form.

    sin(4*pi*x) is an exact eigenvector of the 1-D P1 mass and stiffness
    matrices on h = 1/m, with generalized eigenvalue
    (6/h^2)(1 - cos 4*pi*h)/(2 + cos 4*pi*h), so backward Euler scales it
    by rho = 1/(1 + tau*lambda) each step and the snapshot matrix has
    rank one. Its interior nodal values have squared norm m/2.
    """
    h = 1.0 / m
    c = np.cos(4 * np.pi * h)
    lam_h = 6.0 / h**2 * (1 - c) / (2 + c)
    rho2 = (1.0 / (1.0 + tau * lam_h)) ** 2
    return m / 2.0 * (1 - rho2 ** (n + 1)) / (1 - rho2)


TWO_D_CASES = [("s1", "0"), ("s1", "xy"), ("s2", "0"), ("s2", "10"),
               ("s2", "xy"), ("s3", "0")]


def test_criterion_1_heat1d_reproduction():
    record = case_record("heat1d")
    failures = []
    lam0 = record.lam0[0]
    expected = heat1d_closed_form_lambda0()
    if not abs(lam0 - expected) <= 1e-9 * expected:
        failures.append(f"lambda0 = {lam0!r}, closed form {expected!r} +-1e-9 rel")
    if not record.lam1_first <= 1e-6:
        failures.append(f"lambda1 = {record.lam1_first:.3e} > 1e-6")
    if not record.error_l2 <= 1e-6:
        failures.append(f"error = {record.error_l2:.3e} > 1e-6")
    if not record.total_seconds <= 30.0:
        failures.append(f"runtime = {record.total_seconds:.1f}s > 30s")
    detail = (f"lambda0 {lam0:.6f} (closed form {expected:.6f}), lambda1 "
              f"{record.lam1_first:.2e}, error {record.error_l2:.2e}, "
              f"runtime {record.total_seconds:.1f}s")
    report(1, not failures, detail)
    assert not failures, "; ".join(failures)


def _agrees(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_criterion_2_2d_eigenvalue_decay():
    failures = []
    matched = []
    for name, f in (("s1", "0"), ("s2", "10"), ("s3", "0")):
        rec = case_record(name, f)
        oracles = direct_segment_spectra(name, f)
        for label, k in (("first", 0), ("last", -1)):
            value, expected = rec.lam0[k], oracles[k][0]
            if not _agrees(value, expected, 1e-8):
                failures.append(f"{rec.name} {label} lambda0 {value!r} != "
                                f"direct {expected!r} +-1e-8 rel")
        matched.append(f"{rec.name} {rec.lam0[0]:.6g}->{rec.lam0[-1]:.5g}")
    s2fxy = case_record("s2", "xy")
    oracle = direct_segment_spectra("s2", "xy")[0]
    if not _agrees(s2fxy.lam0[0], oracle[0], 1e-8):
        failures.append(f"s2 f=xy lambda0 {s2fxy.lam0[0]!r} != direct "
                        f"{oracle[0]!r} +-1e-8 rel")
    if not _agrees(s2fxy.lam1_first, oracle[1], 1e-8):
        failures.append(f"s2 f=xy lambda1 {s2fxy.lam1_first!r} != direct "
                        f"{oracle[1]!r} +-1e-8 rel")
    # ordering property: principal eigenvalues strictly decrease for f=0
    ordering_ok = True
    for name in ("s1", "s2", "s3"):
        rec = case_record(name, "0")
        if not np.all(np.diff(rec.lam0) < 0):
            ordering_ok = False
            failures.append(f"{name} f=0 lambda0 sequence not strictly decreasing")
    heat3d = case_record("heat3d", divisions=16)
    if not np.all(np.diff(heat3d.lam0) < 0):
        ordering_ok = False
        failures.append("heat3d lambda0 sequence not strictly decreasing")
    detail = (f"matching the direct rerun: {', '.join(matched)}, "
              f"s2,f=xy {s2fxy.lam0[0]:.6g}/{s2fxy.lam1_first:.5g}; "
              f"f=0 ordering {'holds' if ordering_ok else 'broken'}")
    report(2, not failures, detail)
    assert not failures, "; ".join(failures)


def _near_optimal_failures(rec):
    """Error must sit between the best rank-one error and 1.05 times it."""
    best = rec.projection_error
    if best <= rec.error_l2 <= 1.05 * best:
        return []
    return [f"{rec.name} error {rec.error_l2:.4e} outside "
            f"[{best:.4e}, 1.05 x {best:.4e}] (best rank-one)"]


def test_criterion_3_seam_accuracy_2d():
    failures = []
    details = []
    for name, f in TWO_D_CASES:
        rec = case_record(name, f)
        failures += _near_optimal_failures(rec)
        details.append(f"{rec.name}: {rec.error_l2:.2e} "
                       f"({rec.error_l2 / rec.projection_error:.4f}x)")
    report(3, not failures, "errors (x best rank-one) " + ", ".join(details))
    assert not failures, "; ".join(failures)


def test_criterion_4_3d_desk_scale():
    record = case_record("heat3d", divisions=16)
    failures = []
    if not record.total_seconds <= 600.0:
        failures.append(f"runtime {record.total_seconds:.0f}s > 600s")
    failures += _near_optimal_failures(record)
    coarse = case_record("heat3d", divisions=8)
    order = coarse.error_l2 / record.error_l2
    if not order >= 3.0:
        failures.append(f"error(m=8)/error(m=16) = {order:.2f} < 3")
    reduction = f"{record.dofs}:1"
    if reduction != "3375:1":
        failures.append(f"reduction {reduction} != 3375:1")
    detail = (f"m=16, reduction {reduction}, error {record.error_l2:.2e} "
              f"({record.error_l2 / record.projection_error:.4f}x best "
              f"rank-one), error(m=8)/error(m=16) {order:.2f}, "
              f"runtime {record.total_seconds:.0f}s")
    report(4, not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_5_pod_projection_identity():
    worst = []
    cases = [("heat1d", "0", None), ("heat3d", "0", 16)] + [
        (n, f, None) for n, f in TWO_D_CASES]
    for name, f, div in cases:
        rec = case_record(name, f, div)
        worst.append((rec.name, rec.identity_worst))
    bad = [(n, g) for n, g in worst if g > 1e-10]
    top = max(worst, key=lambda pair: pair[1])
    report(5, not bad,
           f"worst identity gap {top[1]:.2e} (trace-relative) in {top[0]}")
    assert not bad, f"projection identity violated: {bad}"


def test_criterion_6_hoffman_wielandt_suite():
    failures = []
    record = hoffman_wielandt_check(np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)))
    if abs(record.sum_sq_shift) > 1e-12 or abs(record.frobenius_margin) > 1e-12:
        failures.append("E=0 equality case broken")
    record = hoffman_wielandt_check(np.diag([1.0, 2.0]), np.diag([0.1, -0.1]))
    if abs(record.frobenius_margin) > 1e-12:
        failures.append("commuting diagonal equality case broken")
    rng = np.random.default_rng(61)
    worst = np.inf
    for _ in range(100):
        size = int(rng.integers(2, 21))
        a = rng.uniform(-1, 1, (size, size))
        e = rng.uniform(-1, 1, (size, size))
        rec = hoffman_wielandt_check((a + a.T) / 2, (e + e.T) / 2)
        worst = min(worst, rec.frobenius_margin, rec.lower_margin,
                    rec.upper_margin)
        if not rec.holds(tol=1e-9):
            failures.append(f"inequality violated at size {size}")
            break
    report(6, not failures, f"100 random pairs, worst margin {worst:.2e}")
    assert not failures, "; ".join(failures)


def test_criterion_7_perturbation_trend_and_tails():
    failures = []
    # fixed n=100 sweep on the 1-D operators; the operator norm is
    # tau-independent so it is computed once
    base = problem_from_config({"scenario": "heat1d", "tau": 4e-4, "n": 100,
                                "segments": 1})
    disc = discretize(base)
    norm_a = operator_norm(disc.mass, disc.stiffness)
    quantities = []
    for tau in (4e-4, 2e-4, 1e-4):
        problem = problem_from_config({"scenario": "heat1d", "tau": tau,
                                       "n": 100, "segments": 1})
        snapshots = run_hifi(problem, disc)
        spectrum = eig_descending(gram(snapshots.data))
        lam_ref = reference_principal_eigenvalue(
            snapshots.data[:, 0], norm_a, tau, problem.segment_steps)
        record = perturbation_quantity(spectrum, lam_ref,
                                       problem.segment_steps, tau)
        quantities.append(record["quantity"])
    if not (quantities[0] > quantities[1] > quantities[2]):
        failures.append(f"P not strictly decreasing: {quantities}")
    logs = [float(np.log10(q)) for q in quantities]

    heat1d = case_record("heat1d")
    if not heat1d.tail_sq_max <= 1e-12:
        failures.append(f"heat1d: sum lambda_k^2 = {heat1d.tail_sq_max:.3e} "
                        "> 1e-12")
    # s3 under these overrides is the same problem as s2
    sweeps = []
    for name, config in (("s1", {}), ("s2", {}), ("heat3d", {"m": 16})):
        tails = _scale_free_tails(name, config)
        sweeps.append(f"{name} " + " -> ".join(f"{t:.2e}" for t in tails))
        if not tails[0] > tails[1] > tails[2]:
            failures.append(f"{name}: sum lambda_k^2 / lambda_0^2 not "
                            f"strictly decreasing in tau: {tails}")
    report(7, not failures,
           f"log10 P over tau sweep = {logs}; heat1d tail "
           f"{heat1d.tail_sq_max:.1e}; scale-free tails: {'; '.join(sweeps)}")
    assert not failures, "; ".join(failures)


def _scale_free_tails(name, config):
    """sum_{k>=1} lambda_k^2 / lambda_0^2 of one n=100 block per tau.

    The spectrum is taken from an SVD of the snapshots; the program's
    eigensolver is checked against dense references in criteria 2 and 8.
    """
    disc = None
    tails = []
    for tau in (4e-4, 2e-4, 1e-4):
        problem = problem_from_config({"scenario": name, "tau": tau, "n": 100,
                                       "segments": 1, **config})
        disc = disc or discretize(problem)  # the operators do not depend on tau
        values = np.linalg.svd(run_hifi(problem, disc).data,
                               compute_uv=False) ** 2
        tails.append(float(np.sum(values[1:] ** 2) / values[0] ** 2))
    return tails


def test_criterion_8_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(88)
    worst_dense = 0.0
    worst_charpoly = 0.0
    for i in range(500):
        size = int(rng.integers(2, 7))
        a = rng.uniform(-1, 1, (size, size))
        x = (a + a.T) / 2
        values, vectors = jacobi_eigh(x)
        dense = np.linalg.eigvalsh(x)[::-1]
        worst_dense = max(worst_dense, float(np.abs(values - dense).max()))
        if size <= 5 and i % 5 == 0:
            cp = charpoly_eigenvalues(x)
            worst_charpoly = max(worst_charpoly,
                                 float(np.abs(values - cp).max()))
    if worst_dense > 1e-8:
        failures.append(f"dense-reference mismatch {worst_dense:.3e} > 1e-8")
    if worst_charpoly > 1e-8:
        failures.append(f"charpoly mismatch {worst_charpoly:.3e} > 1e-8")

    # single-node 1-D backward Euler vs the analytic geometric recurrence
    mass, stiffness = heat_operators(2)
    tau = 1e-4
    rho = (1 / 3) / (1 / 3 + 4 * tau)
    u = np.array([1.0])
    worst_step = 0.0
    for n in range(1, 1001):
        u = backward_euler_step(mass, stiffness, np.zeros(1), u, tau)
        worst_step = max(worst_step, abs(u[0] - rho**n))
    if worst_step > 1e-12:
        failures.append(f"geometric recurrence drift {worst_step:.3e} > 1e-12")
    report(8, not failures,
           f"eig err dense {worst_dense:.1e}, charpoly {worst_charpoly:.1e}, "
           f"recurrence drift {worst_step:.1e}")
    assert not failures, "; ".join(failures)


def test_criterion_9_benchmark_speedup():
    record = case_record("s1", "0")
    speedup = record.hifi_seconds / max(record.online_seconds, 1e-9)
    ok = speedup >= 10.0
    report(9, ok, f"s1 hifi {record.hifi_seconds:.2f}s vs online replay "
                  f"{record.online_seconds * 1e3:.1f}ms, speedup {speedup:.0f}x")
    assert ok, f"online speedup {speedup:.1f}x < 10x"
