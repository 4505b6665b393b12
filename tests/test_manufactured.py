"""Independent oracles for what the built-in scenarios leave out: a closed
form for a 1-D run with a t-dependent source, and manufactured solutions
with variable alpha and c in 2-D and 3-D (Roache, J. Fluids Eng. 124, 2002;
Salari and Knupp, SAND2000-1444).

The runs go through step_blocks, the stepping that every command-line mode
uses. The oracles share nothing with the program but the mesh size: the
closed form is a scalar recurrence, and each manufactured solution is
evaluated with NumPy at the interior nodes.
"""

import math

import numpy as np
import pytest

from seampde.fields import problem_from_config
from seampde.hifi import discretize, step_blocks


def _run(config):
    """The problem's mesh nodes (M, d), mass matrix and all N+1 columns."""
    problem = problem_from_config(config)
    disc = discretize(problem)
    columns = np.hstack(list(step_blocks(problem, disc, problem.segment_steps + 1)))
    return problem, disc.mesh.interior_nodes(), disc.mass, columns


@pytest.mark.parametrize("g_text,g", [
    pytest.param("1", lambda t: 1.0, id="g=1"),
    pytest.param("1+10*t", lambda t: 1.0 + 10.0 * t, id="g=1+10t"),
    pytest.param("sin(200*t)", lambda t: math.sin(200.0 * t), id="g=sin(200t)"),
])
def test_1d_sine_run_is_its_closed_form_recurrence(g_text, g):
    # With u0 = sin(k pi x), f = g(t) sin(k pi x), alpha = 1 and c = 0 on a
    # uniform mesh, the nodal sine is an eigenvector of the tridiagonal
    # Toeplitz M (eigenvalue mu) and S (sigma), and the centroid-rule load is
    # kappa times it, so column n is a_n times the nodal sine, with
    # a_n = (mu a_{n-1} + tau kappa g(n tau)) / (mu + tau sigma). Evaluating
    # F at t_{n-1} instead moves the g = 1+10t run by 6.3e-6 of its largest
    # value; the program matches to about 6e-15.
    k, m, tau = 4, 99, 1e-4
    problem, nodes, _, columns = _run({
        "dimension": 1, "alpha": ["1"], "c": "0", "u0": f"sin({k}*pi*x)",
        "f": f"({g_text})*sin({k}*pi*x)", "tau": tau, "m": m,
        "segment_steps": 100, "segment_count": 10})
    h, kpi = 1.0 / m, k * math.pi
    mu = h * (4.0 + 2.0 * math.cos(kpi * h)) / 6.0
    sigma = (2.0 - 2.0 * math.cos(kpi * h)) / h
    kappa = h * math.cos(kpi * h / 2.0)
    a = [1.0]
    for n in range(1, problem.num_steps + 1):
        a.append((mu * a[-1] + tau * kappa * g(n * tau)) / (mu + tau * sigma))
    expected = np.outer(np.sin(kpi * nodes[:, 0]), a)
    assert columns.shape == expected.shape == (m - 1, 1010)
    assert np.abs(columns - expected).max() <= 1e-12 * np.abs(expected).max()


# u = e^-t sin(pi x) sin(pi y) with alpha = (1 + x, 1 + y) and c = 1
_MMS_2D = {
    "dimension": 2, "alpha": ["1+x", "1+y"], "c": "1", "u0": "sin(pi*x)*sin(pi*y)",
    "f": "exp(-t)*(pi^2*(2+x+y)*sin(pi*x)*sin(pi*y)"
         "-pi*(cos(pi*x)*sin(pi*y)+sin(pi*x)*cos(pi*y)))",
}
# u = e^-t sin(pi x) sin(pi y) sin(pi z) with alpha = 1 and c = 1 + xyz
_MMS_3D = {
    "dimension": 3, "alpha": ["1", "1", "1"], "c": "1+x*y*z",
    "u0": "sin(pi*x)*sin(pi*y)*sin(pi*z)",
    "f": "(3*pi^2+x*y*z)*exp(-t)*sin(pi*x)*sin(pi*y)*sin(pi*z)",
}


def _mms_errors(config, divisions, T):
    """M-norm error at T against the nodal interpolant of the manufactured
    solution, for each m, with tau = h^2/4 (so T/tau = 4 m^2 T steps)."""
    errors = []
    for m in divisions:
        steps = round(4 * m * m * T)
        problem, nodes, mass, columns = _run({
            **config, "tau": 1.0 / (4 * m * m), "m": m,
            "segment_steps": steps, "segment_count": 1})
        assert problem.T == T
        exact = math.exp(-T) * np.prod(np.sin(math.pi * nodes), axis=1)
        e = columns[:, -1] - exact
        errors.append(math.sqrt(e @ (mass @ e)))
    return errors


@pytest.mark.parametrize("config,divisions,T,recorded", [
    pytest.param(_MMS_2D, (8, 16, 32), 1 / 32, (6.16e-3, 1.60e-3, 4.04e-4), id="2d"),
    pytest.param(_MMS_3D, (4, 8, 16), 1 / 32, (2.41e-2, 7.14e-3, 1.87e-3), id="3d"),
])
def test_manufactured_solution_converges_at_second_order(config, divisions, T,
                                                         recorded):
    # tau = h^2/4 ties backward Euler's O(tau) to the elements' O(h^2), so
    # the error falls about 4x per halving of h; a swapped alpha axis, a
    # flipped c or a wrong load leaves an error that does not
    errors = _mms_errors(config, divisions, T)
    order = math.log2(errors[-2] / errors[-1])
    assert order >= 1.8, (errors, order)
    for error, value in zip(errors, recorded):
        assert 0.8 * value <= error <= 1.25 * value, (errors, recorded)
