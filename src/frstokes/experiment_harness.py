"""Convergence studies for the fully discrete schemes.

Each study solves a ladder of discretizations against a finer reference
(or, for single-mode data, against the contour-quadrature oracle), tabulates
L2 errors at the final time, and fits rates.  Reports serialize to CSV with
header ``param,error_l2,rate_pairwise`` and a ``fitted_rate`` footer, plus a
markdown mirror.  Final fields are cached content-addressed by the full
run configuration, so references shared between studies are solved once.
Within a process, :func:`build_mesh` hands out one mesh per (family, M)
while any caller holds it, so the runs and error measurements of a study
share the mesh and the operators memoized on it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import weakref
import zipfile
from dataclasses import dataclass

import numpy as np

from .cq_time_stepper import (SchemeConfig, _require_bool, _require_count, step_implicit,
                              step_linearized)
from .fem_assembly import (
    NodalField,
    ProblemSpec,
    initial_data_for_case,
    l2_error_vs_function,
    l2_error_vs_reference,
    sqrt_one_plus_u2,
)
from .mesh import TriMesh, build_nonsymmetric_mesh, build_symmetric_mesh
from .spectral_oracle import laplacian_eigenvalue, linear_exact_solution

__all__ = [
    "StudyConfig",
    "ExperimentReport",
    "fit_rate",
    "solve_final",
    "run_spatial_study",
    "run_temporal_study",
    "run_prefactor_study",
    "run_nonsymmetric_study",
]


@dataclass(frozen=True)
class StudyConfig:
    """Shared knobs for the convergence studies.

    Spatial studies sweep ``M_list`` against ``M_ref`` at fixed ``N``;
    temporal studies sweep ``N_list`` against ``N_ref`` on the fixed mesh
    ``M``; prefactor studies sweep the final time over ``t_list`` along the
    chosen ``axis``.  ``case`` selects the initial data: the smooth bump
    ("a"), the half-square indicator ("b"), or a single sine mode ("mode").
    ``tol`` is passed on as ``SchemeConfig.cg_tol``; the steppers solve
    directly, so it does not change a field and is not part of the cache key.
    """

    case: str = "a"
    alphas: tuple = (0.5,)
    gamma: float = 1.0
    T: float = 1.0
    family: str = "symmetric"
    M_list: tuple = (8, 16, 32, 64)
    M_ref: int = 128
    M: int = 128
    N: int = 200
    N_list: tuple = (5, 10, 20, 40, 80)
    N_ref: int = 640
    t_list: tuple = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    axis: str = "temporal"
    scheme: str = "lumped-linearized"
    source_lumping: bool = False
    tol: float = 1e-12
    cache_dir: str | None = None
    mode_kl: tuple = (1, 1)

    def __post_init__(self):
        if self.case not in ("a", "b", "mode"):
            raise ValueError(f"unknown case {self.case!r}")
        if self.family not in ("symmetric", "nonsymmetric"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.axis not in ("spatial", "temporal"):
            raise ValueError(f"prefactor axis must be spatial or temporal")
        if not self.alphas:
            raise ValueError("need at least one alpha")
        _require_bool("source_lumping", self.source_lumping)
        for name in ("M", "N", "M_ref", "N_ref"):
            _require_count(name, getattr(self, name))
        for name in ("M_list", "N_list"):
            for value in getattr(self, name):
                _require_count(f"every entry of {name}", value)


@dataclass(frozen=True)
class ExperimentReport:
    """One error table: rows of (parameter, L2 error, pairwise rate)."""

    kind: str
    case: str
    alpha: float
    param_name: str
    params: tuple
    errors: tuple
    pairwise: tuple  # first entry None
    fitted_rate: float | None
    theoretical_rate: float | None = None

    def to_csv(self) -> str:
        lines = ["param,error_l2,rate_pairwise"]
        for p, e, r in zip(self.params, self.errors, self.pairwise):
            rate = "" if r is None else f"{r:.6f}"
            lines.append(f"{p:.12e},{e:.12e},{rate}")
        fitted = "" if self.fitted_rate is None else f"{self.fitted_rate:.6f}"
        lines.append(f"fitted_rate,{fitted}")
        if self.theoretical_rate is not None:
            lines.append(f"theoretical_rate,{self.theoretical_rate:.6f}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        head = (f"| {self.param_name} | error_l2 | rate |", "| --- | --- | --- |")
        rows = []
        for p, e, r in zip(self.params, self.errors, self.pairwise):
            rate = "" if r is None else f"{r:.2f}"
            rows.append(f"| {p:.3e} | {e:.3e} | {rate} |")
        fitted = "" if self.fitted_rate is None else f"{self.fitted_rate:.2f}"
        tail = [f"fitted rate: {fitted}"]
        if self.theoretical_rate is not None:
            tail.append(f"theoretical rate: {self.theoretical_rate:.2f}")
        title = f"{self.kind} study, case {self.case}, alpha = {self.alpha}"
        return "\n".join([title, "", *head, *rows, "", *tail]) + "\n"


def fit_rate(params, errors) -> float | None:
    """Least-squares slope of log(error) against log(param).

    Positive values mean the error decreases under refinement when the
    parameter is a mesh size or step size.  Fewer than two rows give None.
    """
    params = np.asarray(params, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if params.size != errors.size:
        raise ValueError("params and errors must have equal length")
    if np.any(params <= 0) or np.any(errors <= 0):
        raise ValueError("params and errors must be strictly positive")
    if params.size < 2:
        return None
    slope = np.polyfit(np.log(params), np.log(errors), 1)[0]
    return float(slope)


def _pairwise_rates(params, errors) -> tuple:
    out = [None]
    for i in range(1, len(params)):
        out.append(
            float(np.log(errors[i - 1] / errors[i]) / np.log(params[i - 1] / params[i]))
        )
    return tuple(out)


def _make_report(kind, case, alpha, param_name, params, errors, theory) -> ExperimentReport:
    return ExperimentReport(
        kind=kind,
        case=case,
        alpha=float(alpha),
        param_name=param_name,
        params=tuple(float(p) for p in params),
        errors=tuple(float(e) for e in errors),
        pairwise=_pairwise_rates(params, errors),
        fitted_rate=fit_rate(params, errors) if len(params) >= 2 else None,
        theoretical_rate=theory,
    )


# ---------------------------------------------------------------------------
# Single runs with caching
# ---------------------------------------------------------------------------


_MESHES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_mesh(family: str, M: int) -> TriMesh:
    """The mesh of ``family`` at resolution M.

    While any caller still holds the mesh, later calls return that same
    object, so the operators memoized on it are reused; once the last
    reference goes, so does the mesh with its memo.
    """
    mesh = _MESHES.get((family, M))
    if mesh is None:
        if family == "symmetric":
            mesh = build_symmetric_mesh(M)
        elif family == "nonsymmetric":
            mesh = build_nonsymmetric_mesh(M)
        else:
            raise ValueError(f"unknown family {family!r}")
        _MESHES[family, M] = mesh
    return mesh


# One data object per case, so each mesh projects it once for every run.
_case_data = functools.cache(initial_data_for_case)


def _problem(case: str, alpha: float, gamma: float, T: float, mode_kl=(1, 1)) -> ProblemSpec:
    if case == "mode":
        from .fem_assembly import SingleModeInitialData, zero_source

        data = SingleModeInitialData(*mode_kl)
        return ProblemSpec(alpha=alpha, gamma=gamma, T=T,
                           nonlinearity=zero_source(), initial_data=data)
    return ProblemSpec(alpha=alpha, gamma=gamma, T=T,
                       nonlinearity=sqrt_one_plus_u2(),
                       initial_data=_case_data(case))


# Names the solver and the file layout behind a cached field.  Change it
# whenever either changes what a run produces, so older files are not served.
CACHE_FORMAT = "splu-soe-1"


def _run_key(case, alpha, gamma, T, family, M, N, scheme, source_lumping, mode_kl):
    payload = {
        "format": CACHE_FORMAT,
        "case": case,
        "mode_kl": list(mode_kl) if case == "mode" else None,
        "alpha": repr(float(alpha)),
        "gamma": repr(float(gamma)),
        "T": repr(float(T)),
        "family": family,
        "M": int(M),
        "N": int(N),
        "scheme": scheme,
        "source_lumping": bool(source_lumping),
    }
    return json.dumps(payload, sort_keys=True)


def solve_final(case: str, alpha: float, gamma: float, T: float, family: str,
                M: int, N: int, scheme: str = "lumped-linearized",
                source_lumping: bool = False, tol: float = 1e-12,
                cache_dir: str | None = None, mode_kl=(1, 1)) -> tuple[TriMesh, NodalField]:
    """Final-time field of one fully discrete run, cached when possible.

    A cache file is served only when it reads back whole, the key stored
    in it equals the key of the request and its values fit the mesh; any
    other file at that path is recomputed and replaced.  Files are written
    to a temporary name and renamed into place, so an interrupted run
    never leaves a partial file under the final name.  ``tol`` does not
    change the field and is left out of the key.
    """
    config = SchemeConfig(variant=scheme, N=N, source_lumping=source_lumping,
                          cg_tol=tol, snapshot_stride=N)
    mesh = build_mesh(family, M)
    key = _run_key(case, alpha, gamma, T, family, M, N, scheme,
                   source_lumping, mode_kl)
    path = None
    if cache_dir is not None:
        digest = hashlib.sha256(key.encode()).hexdigest()
        path = os.path.join(cache_dir, f"run-{digest}.npz")
        values = _read_cached(path, key)
        if values is not None and values.shape == (mesh.n_nodes,):
            return mesh, NodalField(mesh, values)

    problem = _problem(case, alpha, gamma, T, mode_kl)
    stepper = step_implicit if scheme == "galerkin-implicit" else step_linearized
    final = stepper(config, problem, mesh).final()
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, values=final.values, key=np.array(key))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return mesh, final


def _read_cached(path: str, key: str):
    """Values stored at ``path`` under ``key``; None when the file is
    missing, unreadable or holds another key."""
    try:
        with np.load(path) as data:
            if "key" in data.files and str(data["key"]) == key:
                return data["values"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        pass
    return None


def _solve_cfg(cfg: StudyConfig, alpha: float, *, M: int, N: int, T: float,
               family: str | None = None):
    return solve_final(cfg.case, alpha, cfg.gamma, T,
                       family if family is not None else cfg.family, M, N,
                       scheme=cfg.scheme, source_lumping=cfg.source_lumping,
                       tol=cfg.tol, cache_dir=cfg.cache_dir, mode_kl=cfg.mode_kl)


def _mode_reference(cfg: StudyConfig, alpha: float, T: float):
    k, l = cfg.mode_kl
    # u0 = sin sin = (1/2) phi_kl against the orthonormal eigenfunctions.
    return linear_exact_solution([(k, l, 0.5)], T, alpha, cfg.gamma)


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


def run_spatial_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Mesh refinement at fixed N; param column is the mesh size h."""
    if cfg.case != "mode" and cfg.M_ref <= max(cfg.M_list):
        raise ValueError("reference mesh must be finer than every tested mesh")
    reports = []
    for alpha in cfg.alphas:
        if cfg.case == "mode":
            exact = _mode_reference(cfg, alpha, cfg.T)
            ref = None
        else:
            ref = _solve_cfg(cfg, alpha, M=cfg.M_ref, N=cfg.N, T=cfg.T)
        params, errors = [], []
        for M in cfg.M_list:
            mesh, fld = _solve_cfg(cfg, alpha, M=M, N=cfg.N, T=cfg.T)
            if cfg.case == "mode":
                err = l2_error_vs_function(mesh, fld, exact)
            else:
                err = l2_error_vs_reference((mesh, fld), ref)
            params.append(mesh.h)
            errors.append(err)
        reports.append(_make_report("spatial", cfg.case, alpha, "h",
                                    params, errors, theory=2.0))
    return reports


def run_temporal_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Step refinement at fixed mesh; param column is the step size tau."""
    if cfg.N_ref <= max(cfg.N_list):
        raise ValueError("reference step count must exceed every tested one")
    reports = []
    for alpha in cfg.alphas:
        ref = _solve_cfg(cfg, alpha, M=cfg.M, N=cfg.N_ref, T=cfg.T)
        params, errors = [], []
        for N in cfg.N_list:
            mesh, fld = _solve_cfg(cfg, alpha, M=cfg.M, N=N, T=cfg.T)
            params.append(cfg.T / N)
            errors.append(l2_error_vs_reference((mesh, fld), ref))
        reports.append(_make_report("temporal", cfg.case, alpha, "tau",
                                    params, errors, theory=1.0))
    return reports


def _prefactor_theory(case: str, alpha: float, axis: str) -> float | None:
    """Slope of log(error) vs log(t_N) predicted by the error bounds.

    With data regularity nu (2 for the smooth bump, 1/2 for the indicator)
    the temporal error scales as t^((1-alpha) nu / 2) at fixed N and the
    spatial error as t^(-(1-alpha)(2-nu)/2) at fixed mesh.  These slopes
    are t -> 0 limits, reached only once gamma lambda_1 t^(1-alpha) << 1
    (lambda_1 = 2 pi^2 on the unit square).  A temporal fit over the
    default ``t_list`` at alpha = 0.5 is still pre-asymptotic at its upper
    end and gives about 0.41 for case a rather than 0.50.
    """
    nu = {"a": 2.0, "b": 0.5}.get(case)
    if nu is None:
        return None
    if axis == "temporal":
        return (1.0 - alpha) * nu / 2.0
    return -(1.0 - alpha) * (2.0 - nu) / 2.0


def run_prefactor_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Error against the final time t_N = T over ``t_list``.

    The temporal axis compares N against N_ref on the same mesh; the
    spatial axis compares M against M_ref at the same step count.  The
    fitted slope exposes the singular-prefactor behavior as t -> 0.
    """
    reports = []
    for alpha in cfg.alphas:
        params, errors = [], []
        for t in cfg.t_list:
            if cfg.axis == "temporal":
                run = _solve_cfg(cfg, alpha, M=cfg.M, N=cfg.N, T=t)
                ref = _solve_cfg(cfg, alpha, M=cfg.M, N=cfg.N_ref, T=t)
            else:
                run = _solve_cfg(cfg, alpha, M=cfg.M, N=cfg.N, T=t)
                ref = _solve_cfg(cfg, alpha, M=cfg.M_ref, N=cfg.N, T=t)
            params.append(t)
            errors.append(l2_error_vs_reference(run, ref))
        reports.append(_make_report(f"prefactor-{cfg.axis}", cfg.case, alpha,
                                    "t_N", params, errors,
                                    theory=_prefactor_theory(cfg.case, alpha, cfg.axis)))
    return reports


def run_nonsymmetric_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Refinement over the alternating-width family, referenced against a
    fine symmetric mesh (the meshes are non-nested, so the coarse fields
    are evaluated at the fine nodes through point location)."""
    reports = []
    for alpha in cfg.alphas:
        ref = _solve_cfg(cfg, alpha, M=cfg.M_ref, N=cfg.N, T=cfg.T,
                         family="symmetric")
        params, errors = [], []
        for M in cfg.M_list:
            mesh, fld = _solve_cfg(cfg, alpha, M=M, N=cfg.N, T=cfg.T,
                                   family="nonsymmetric")
            params.append(mesh.h)
            errors.append(l2_error_vs_reference((mesh, fld), ref))
        theory = 1.5 if cfg.case == "b" else 2.0
        reports.append(_make_report("nonsymmetric", cfg.case, alpha, "h",
                                    params, errors, theory=theory))
    return reports
