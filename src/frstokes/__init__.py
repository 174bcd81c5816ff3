"""Finite element solvers for the semilinear time-fractional
Rayleigh-Stokes problem on the unit square.

The package provides structured triangulations, P1 Galerkin and
lumped-mass spatial discretizations, backward-Euler convolution-quadrature
time stepping, a semi-analytic spectral oracle based on inverse-Laplace
contour quadrature, and a harness for convergence studies.
"""

from .cq_time_stepper import (
    CQWeights,
    DivergedError,
    PicardConvergenceError,
    SchemeConfig,
    Trajectory,
    cq_fractional_integral,
    cq_weights,
    step_implicit,
    step_linearized,
)
from .experiment_harness import (
    ExperimentReport,
    StudyConfig,
    fit_rate,
    run_nonsymmetric_study,
    run_prefactor_study,
    run_spatial_study,
    run_temporal_study,
    solve_final,
)
from .fem_assembly import (
    CaseAInitialData,
    CaseBInitialData,
    CustomInitialData,
    InitialData,
    NodalField,
    Nonlinearity,
    ProblemSpec,
    SingleModeInitialData,
    assemble_lumped_mass,
    assemble_mass,
    assemble_stiffness,
    initial_data_for_case,
    l2_error_vs_function,
    l2_error_vs_reference,
    l2_norm,
    l2_project,
    load_vector,
    mesh_operator,
    sqrt_one_plus_u2,
    zero_source,
)
from .mesh import (
    TriMesh,
    build_nonsymmetric_mesh,
    build_symmetric_mesh,
    evaluate_p1,
    format_mesh_text,
)
from .sparse_linalg import (
    CGConvergenceError,
    CompositeOperator,
    DiagMatrix,
    SparseSymMatrix,
    cg_solve,
)
from .spectral_oracle import (
    ContourResolutionError,
    ContourSpec,
    laplacian_eigenvalue,
    linear_exact_solution,
    mode_response,
    mode_response_many,
    scalar_cq_response,
    smoothing_probe,
    symbol_g,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
