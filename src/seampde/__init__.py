"""SEAM: single-eigenvalue (rank-1 POD) model reduction for parabolic problems.

The package covers the full pipeline: uniform simplicial meshes of the unit
interval/square/cube, linear finite-element assembly, backward-Euler
high-fidelity time stepping, Gram-matrix POD, the segmented parallel SEAM
driver, and the spectral diagnostics used to validate the rank-1 ansatz.

Typical use::

    from seampde import scenario, discretize, run_hifi, run_parallel_seam

    problem = scenario("s3")
    disc = discretize(problem)
    snapshots = run_hifi(problem, disc)
    reduced = run_parallel_seam(snapshots, disc.mass, disc.stiffness,
                                disc.load, segment_steps=problem.segment_steps)
"""

from seampde.fields import scenario
from seampde.hifi import discretize, run_hifi
from seampde.seam import run_parallel_seam

__all__ = ["discretize", "run_hifi", "run_parallel_seam", "scenario"]

__version__ = "0.1.0"
