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

from seampde.analysis import (
    build_spectral_report,
    check_time_step_assumption,
    hoffman_wielandt_check,
    operator_norm,
    perturbation_quantity,
    reference_principal_eigenvalue,
    relative_l2_error,
)
from seampde.assembly import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    interpolate_initial,
)
from seampde.errors import (
    DegenerateReferenceError,
    DegenerateSnapshotError,
    EvaluationError,
    ExpressionError,
    SeamError,
    SegmentationError,
    SolverFailure,
    StagnationError,
)
from seampde.fields import (
    ProblemSpec,
    ScalarField,
    load_problem,
    parse_expression,
    problem_from_config,
    scenario,
)
from seampde.hifi import (
    Discretization,
    SnapshotMatrix,
    cg_solve,
    discretize,
    load_snapshots,
    run_hifi,
    save_snapshots,
)
from seampde.mesh import (
    Mesh,
    build_cube_mesh,
    build_interval_mesh,
    build_square_mesh,
)
from seampde.pod import (
    GramSpectrum,
    eig_descending,
    gram,
    jacobi_eigh,
    pod_basis,
)
from seampde.seam import (
    SeamModel,
    SeamSolution,
    run_parallel_seam,
    seam_offline,
    seam_online,
)

__all__ = [
    "DegenerateReferenceError",
    "DegenerateSnapshotError",
    "Discretization",
    "EvaluationError",
    "ExpressionError",
    "GramSpectrum",
    "Mesh",
    "ProblemSpec",
    "ScalarField",
    "SeamError",
    "SeamModel",
    "SeamSolution",
    "SegmentationError",
    "SnapshotMatrix",
    "SolverFailure",
    "StagnationError",
    "assemble_load",
    "assemble_mass",
    "assemble_stiffness",
    "build_cube_mesh",
    "build_interval_mesh",
    "build_spectral_report",
    "build_square_mesh",
    "cg_solve",
    "check_time_step_assumption",
    "discretize",
    "eig_descending",
    "gram",
    "hoffman_wielandt_check",
    "interpolate_initial",
    "jacobi_eigh",
    "load_problem",
    "load_snapshots",
    "operator_norm",
    "parse_expression",
    "perturbation_quantity",
    "pod_basis",
    "problem_from_config",
    "reference_principal_eigenvalue",
    "relative_l2_error",
    "run_hifi",
    "run_parallel_seam",
    "save_snapshots",
    "scenario",
    "seam_offline",
    "seam_online",
]

__version__ = "0.1.0"
