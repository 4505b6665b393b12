"""Reference implementations that the tests compare the program against.

None of these runs in the command-line pipeline: a single backward-Euler
step with its own system matrix (and the 1-D heat operators it is checked
on), the rank-one projection residual of the POD optimality identity, and
a printer that turns an expression tree back into text the parser accepts,
and the reduced recurrence on NumPy scalars that seam_online must match
bit for bit.
It also builds the 1-D problem that matches a stored snapshot file of any
shape, since both snapshot readers check a file against a problem.
"""

import numpy as np
import scipy.sparse as sparse

from seampde.assembly import (
    assemble_mass,
    assemble_stiffness,
    element_geometry,
    sparsity_pattern,
)
from seampde.fields import Call, Const, Neg, ProblemSpec, Var, parse_expression as expr
from seampde.hifi import cg_solve
from seampde.mesh import build_interval_mesh


def backward_euler_step(mass: sparse.csr_matrix, stiffness: sparse.csr_matrix,
                        load: np.ndarray, u_prev: np.ndarray, tau: float) -> np.ndarray:
    """One implicit Euler step: solve (M + tau*S) u = M u_prev + tau*F."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    system = mass + tau * stiffness
    rhs = mass @ u_prev + tau * load
    return cg_solve(system, rhs, x0=u_prev)


def stored_run_problem(num_dofs: int, num_columns: int, tau: float) -> ProblemSpec:
    """A 1-D problem with ``num_dofs`` interior nodes (m = num_dofs + 1) and one
    segment of ``num_columns`` columns at step tau, the header
    load_snapshots and read_snapshot_blocks check a file against."""
    zero = expr("0")
    return ProblemSpec(name="stored", dimension=1, alpha_diag=(expr("1"),),
                       c=zero, f=zero, u0=zero, tau=tau,
                       divisions=num_dofs + 1, segment_steps=num_columns - 1,
                       segment_count=1)


def seam_online_loop(model, steps: int) -> np.ndarray:
    """The scalar recurrence with NumPy-scalar arithmetic and an array setitem
    per step; returns alpha_0..alpha_steps."""
    g = np.broadcast_to(model.load_coeff, steps)
    alphas = np.empty(steps + 1)
    alphas[0] = model.alpha0
    a = model.system_coeff
    m = model.mass_coeff
    tau = model.tau
    current = model.alpha0
    for k in range(steps):
        current = (m * current + tau * g[k]) / a
        alphas[k + 1] = current
    return alphas


def heat_operators(m):
    """Mass and stiffness (alpha = 1, c = 0) on the interval mesh with m cells."""
    mesh = build_interval_mesh(m)
    geometry, pattern = element_geometry(mesh), sparsity_pattern(mesh)
    return (assemble_mass(mesh, geometry, pattern),
            assemble_stiffness(mesh, [expr("1")], expr("0"), geometry, pattern))


def projection_residual(segment_data: np.ndarray, beta: np.ndarray) -> float:
    """Total squared misfit sum_k ||U_k - (beta . U_k) beta||^2.

    Equals the sum of the non-principal Gram eigenvalues exactly (POD
    optimality identity), which the test suite checks.
    """
    segment_data = np.asarray(segment_data, dtype=float)
    coeffs = beta @ segment_data
    residual = segment_data - np.outer(beta, coeffs)
    return float(np.einsum("ij,ij->", residual, residual))


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_string(node, parent_prec=0, right_side=False):
    """Expression text that parses back to the tree ``node``."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Neg):
        text = f"-{to_string(node.arg, 3)}"
        return f"({text})" if parent_prec > 3 else text
    prec = _PRECEDENCE[node.op]
    text = (
        f"{to_string(node.left, prec)}{node.op}"
        f"{to_string(node.right, prec, right_side=True)}"
    )
    # left-associative ops need parens when they appear as a right operand
    # of equal precedence; '-' and '/' need them even against themselves
    if parent_prec > prec or (right_side and parent_prec == prec):
        return f"({text})"
    return text
