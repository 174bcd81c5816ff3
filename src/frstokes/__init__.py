"""Finite element solvers for the semilinear time-fractional
Rayleigh-Stokes problem on the unit square.

The package provides structured triangulations, P1 Galerkin and
lumped-mass spatial discretizations, backward-Euler convolution-quadrature
time stepping, a semi-analytic spectral oracle based on inverse-Laplace
contour quadrature, and a harness for convergence studies.

Importing the package loads none of its submodules, and so neither numpy
nor scipy.  ``_EXPORTS`` maps each submodule to the public names it
defines, and is the one list of them: each submodule reads its
``__all__`` from it.  The first use of a name
(``frstokes.mode_response_many`` or ``from frstokes import
mode_response_many``) imports only its submodule and what that submodule
imports, so the numpy-only oracle never pays for ``scipy.sparse``.  The
submodules themselves are public names too.  A name is looked up in its
submodule on every access and never stored on the package, so a name
rebound in its submodule (for instance by a tracer) is what the package
hands out.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cq_time_stepper": (
        "DivergedError", "PicardConvergenceError", "SchemeConfig", "Trajectory",
        "cq_fractional_integral", "cq_weights", "step_implicit", "step_linearized",
    ),
    "experiment_harness": (
        "ExperimentReport", "Run", "StudyConfig", "fit_rate", "run_nonsymmetric_study",
        "run_prefactor_study", "run_spatial_study", "run_temporal_study",
        "solve_final",
    ),
    "fem_assembly": (
        "InitialData", "Nonlinearity", "ProblemSpec",
        "assemble_lumped_mass", "assemble_mass", "assemble_stiffness",
        "l2_error_vs_function", "l2_error_vs_reference",
        "l2_norm", "l2_project", "load_vector", "mesh_operator",
        "sqrt_one_plus_u2", "zero_source",
    ),
    "mesh": (
        "TriMesh", "build_nonsymmetric_mesh", "build_symmetric_mesh",
        "evaluate_p1", "format_mesh_text",
    ),
    "sparse_linalg": ("CGConvergenceError", "CompositeOperator", "cg_solve"),
    "spectral_oracle": (
        "ContourResolutionError", "laplacian_eigenvalue",
        "linear_exact_solution", "mode_response", "mode_response_many",
        "scalar_cq_response", "smoothing_probe",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
