"""Convergence studies for the fully discrete schemes.

Every study is a plan: a list of (run, reference) pairs of
(T, family, M, N), the same for every alpha.  One table loop takes the
plan and, before the first solve, checks that every reference is finer
than the runs on the refined axis and builds every mesh the plan names,
so a bad M fails in the mesh builder before any work.  Then, for each
alpha, it solves each distinct run once, measures each row's L2 error at
the final time (a spatial study of single-mode data is measured against
the contour-quadrature oracle instead of a reference solve), and fits
rates.  Reports serialize to CSV with header
``param,error_l2,rate_pairwise`` and a ``fitted_rate`` footer, plus a
markdown mirror.  Each solve is a :class:`Run`, and every field of it keys
the cached final field, so references shared between studies are solved once.
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
from dataclasses import dataclass, fields

import numpy as np

from . import _EXPORTS
from .cq_time_stepper import VARIANTS, SchemeConfig, step_implicit, step_linearized
from .fem_assembly import (
    _PROBLEM_BOUNDS,
    InitialData,
    ProblemSpec,
    l2_error_vs_function,
    l2_error_vs_reference,
    sqrt_one_plus_u2,
    zero_source,
)
from .mesh import TriMesh, _count, _flag, _real, build_nonsymmetric_mesh, build_symmetric_mesh
from .spectral_oracle import linear_exact_solution

__all__ = _EXPORTS["experiment_harness"]


FAMILIES = ("symmetric", "nonsymmetric")
_LADDERS = ("alpha", "M", "N", "t_list")
# The check of each number and flag of StudyConfig, applied to every entry
# of a ladder: the name its message gives, the check and the check's rule.
_STUDY_CHECKS = {
    "alpha": ("alpha", _real, _PROBLEM_BOUNDS["alpha"]),
    "gamma": ("gamma", _real, _PROBLEM_BOUNDS["gamma"]),
    "T": ("T", _real, _PROBLEM_BOUNDS["T"]),
    "t_list": ("t_list", _real, _PROBLEM_BOUNDS["T"]),
    "M": ("every entry of M", _count), "M_ref": ("M_ref", _count),
    "N": ("every entry of N", _count), "N_ref": ("N_ref", _count),
    "source_lumping": ("source_lumping", _flag),
}


@dataclass(frozen=True)
class StudyConfig:
    """Shared knobs for the convergence studies, one field per axis.

    Spatial studies sweep the meshes ``M`` against ``M_ref`` at one ``N``;
    temporal studies sweep ``N`` against ``N_ref`` on one ``M``; prefactor
    studies fix both and sweep the final time over ``t_list`` along
    ``axis``.  A ladder field (``alpha``, ``M``, ``N``, ``t_list``) takes
    one value, a list or a 1-d array and stores a tuple; the ``M`` and ``N``
    defaults are ladders, so a study states each axis it holds fixed.
    ``case`` selects the initial data: the smooth bump ("a"), the
    half-square indicator ("b"), or the sine mode sin(pi x) sin(pi y)
    ("mode", with no source).  Construction rejects a list for any other
    field, an empty or repeating ladder, an unknown ``scheme``, a
    ``cache_dir`` that is not None, a non-empty string or a path object,
    and every number that a run's :class:`ProblemSpec` or
    :class:`SchemeConfig` would reject; it stores Python floats, ints and
    bools, numpy numbers included, and ``cache_dir`` as a string.
    """

    case: str = "a"
    alpha: tuple = (0.5,)
    gamma: float = 1.0
    T: float = 1.0
    family: str = "symmetric"
    M: tuple = (8, 16, 32, 64)
    M_ref: int = 128
    N: tuple = (5, 10, 20, 40, 80)
    N_ref: int = 640
    t_list: tuple = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    axis: str = "temporal"
    scheme: str = "lumped-linearized"
    source_lumping: bool = False
    cache_dir: str | None = None

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            many = (isinstance(value, (list, tuple))
                    or isinstance(value, np.ndarray) and value.ndim == 1)
            if many and name not in _LADDERS:
                raise ValueError(f"{name} takes one value, got {value!r}")
            values = tuple(value) if many else (value,)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if name in _STUDY_CHECKS:
                label, check, *rule = _STUDY_CHECKS[name]
                values = tuple(check(label, v, *rule) for v in values)
            if len(values) > 1 and len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values}")
            object.__setattr__(self, name, values if name in _LADDERS else values[0])
        InitialData(self.case)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.axis not in ("spatial", "temporal"):
            raise ValueError("prefactor axis must be spatial or temporal, "
                             f"got {self.axis!r}")
        if self.cache_dir is not None:
            path = self.cache_dir
            path = os.fspath(path) if isinstance(path, os.PathLike) else path
            if not (isinstance(path, str) and path):
                raise ValueError("cache_dir must be a non-empty path string, "
                                 f"got {self.cache_dir!r}")
            object.__setattr__(self, "cache_dir", path)
        if self.scheme not in VARIANTS:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {VARIANTS}")


def _fixed(cfg: StudyConfig, where: str, *names: str) -> list:
    """The one value of each ladder in ``names`` that ``where`` (such as "a
    temporal study") holds fixed, checked before any mesh or solve."""
    for name in names:
        if len(getattr(cfg, name)) > 1:
            raise ValueError(f"{name} takes one value in {where}, "
                             f"got {list(getattr(cfg, name))}")
    return [getattr(cfg, name)[0] for name in names]


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
    parameter is a mesh size or step size.  Both must be 1-d of equal
    length, and every value finite and positive.  Fewer than two rows give
    None.
    """
    params = np.asarray(params, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if params.ndim != 1 or params.shape != errors.shape:
        raise ValueError("params and errors must be 1-d arrays of equal length")
    if not np.all(np.isfinite(params) & np.isfinite(errors) & (params > 0) & (errors > 0)):
        raise ValueError("params and errors must be finite and strictly positive")
    if params.size < 2:
        return None
    slope = np.polyfit(np.log(params), np.log(errors), 1)[0]
    return float(slope)


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
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    mesh = _MESHES.get((family, M))
    if mesh is None:
        mesh = (build_symmetric_mesh if family == "symmetric" else build_nonsymmetric_mesh)(M)
        _MESHES[family, M] = mesh
    return mesh


@dataclass(frozen=True)
class Run:
    """Every input of one solve, unchecked until :func:`solve_final`: N steps
    of T / N of ``scheme`` on the ``family`` mesh at M, from ``case`` data."""

    case: str
    alpha: float
    gamma: float
    T: float
    family: str
    M: int
    N: int
    scheme: str = "lumped-linearized"
    source_lumping: bool = False


def _problem(case: str, alpha: float, gamma: float, T: float) -> ProblemSpec:
    source = zero_source() if case == "mode" else sqrt_one_plus_u2()
    return ProblemSpec(alpha=alpha, gamma=gamma, T=T, nonlinearity=source,
                       initial_data=InitialData(case))


# Names the solver and the file layout behind a cached field.  Change it
# whenever either changes what a run produces (tests/test_golden_runs.py
# fails then), so older files are not served.
CACHE_FORMAT = "splu-soe-6"


def _run_key(run: Run) -> str:
    # each field as its annotation says; int and bool take numpy scalars too
    as_key = {"float": lambda v: repr(float(v)), "int": int, "bool": bool, "str": str}
    payload = {f.name: as_key[f.type](getattr(run, f.name)) for f in fields(Run)}
    return json.dumps({"format": CACHE_FORMAT, **payload}, sort_keys=True)


@functools.cache
def _blas_config() -> tuple[str, str]:
    """The BLAS library and thread settings of this process, stored in each
    cache file beside the key (not in it): fields agree across thread
    counts only to 1e-12, so a file says what it was computed under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = {var: os.environ.get(var)
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    threads["affinity_cpus"] = (len(os.sched_getaffinity(0))
                                if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return blas_name, json.dumps(threads, sort_keys=True)


def solve_final(run: Run, cache_dir: str | None = None) -> tuple[TriMesh, np.ndarray]:
    """Mesh and final-time nodal values of ``run``, cached when possible.

    :class:`SchemeConfig`, the mesh builder and, on a cache miss,
    :class:`ProblemSpec` check the run's values, in that order.  The cache
    key holds every field of the run and :data:`CACHE_FORMAT`.

    A cache file is served only when it reads back whole, the key stored
    in it equals the key of the request and its values are one float per
    mesh node; any other file at that path is recomputed and replaced.
    Files are written to a temporary name and renamed into place, so an
    interrupted run never leaves a partial file under the final name.
    Each file also records the BLAS library and thread settings it was
    computed under (entries ``blas`` and ``threads``); reading ignores
    them, so they neither split the cache nor stop files without them from
    being served.
    A ``cache_dir`` that cannot be made a directory, such as the name of a
    file, raises ``ValueError`` before the solve, and an unwritable cache
    file after it.  This is the one place that picks the stepper for a scheme.
    """
    config = SchemeConfig(variant=run.scheme, N=run.N, source_lumping=run.source_lumping,
                          snapshot_stride=run.N)
    mesh = build_mesh(run.family, run.M)
    key = _run_key(run)
    path = None
    if cache_dir is not None:
        try:  # before the solve, so that a file in the way costs no solve
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create cache_dir {cache_dir!r}: "
                             f"{exc.strerror}") from exc
        digest = hashlib.sha256(key.encode()).hexdigest()
        path = os.path.join(cache_dir, f"run-{digest}.npz")
        values = _read_cached(path, key)
        if (values is not None and values.shape == (mesh.n_nodes,)
                and values.dtype == np.float64):
            return mesh, values

    stepper = step_implicit if run.scheme == "galerkin-implicit" else step_linearized
    final = stepper(config, _problem(run.case, run.alpha, run.gamma, run.T), mesh).final()
    if path is not None:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            blas, threads = _blas_config()
            with open(tmp, "wb") as fh:
                np.savez(fh, values=final, key=np.array(key),
                         blas=blas, threads=threads)
            os.replace(tmp, path)
        except OSError as exc:
            raise ValueError(f"cannot write cache file {path}: {exc.strerror}") from exc
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return mesh, final


def _read_cached(path: str, key: str):
    """Values stored at ``path`` under ``key``; None when the file is
    missing, unreadable, not an npz archive or holds another key."""
    try:
        data = np.load(path)
        if isinstance(data, np.lib.npyio.NpzFile):  # not a bare .npy array
            with data:
                if "key" in data.files and str(data["key"]) == key:
                    return data["values"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        pass
    return None


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


def _theory(kind: str, case: str, alpha: float) -> float | None:
    """Rate of a table of ``kind`` predicted by the error bounds.

    Spatial tables converge at order 2 in h and temporal ones at order 1 in
    tau; on the nonsymmetric family the lumped-mass bound for the
    indicator (case b) is 1.5.  A prefactor table gives the slope of
    log(error) vs log(t_N).  With data regularity nu (2 for the smooth
    bump, 1/2 for the indicator) the temporal error scales as
    t^((1-alpha) nu / 2) at fixed N and the spatial error as
    t^((1-alpha)(nu-2)/2) at fixed mesh.  These slopes are t -> 0 limits,
    reached only once gamma lambda_1 t^(1-alpha) << 1 (lambda_1 = 2 pi^2 on
    the unit square).  A temporal fit over the default ``t_list`` at
    alpha = 0.5 is still pre-asymptotic at its upper end and gives about
    0.41 for case a rather than 0.50.
    """
    if kind in ("spatial", "temporal", "nonsymmetric"):
        return {"spatial": 2.0, "temporal": 1.0,
                "nonsymmetric": 1.5 if case == "b" else 2.0}[kind]
    nu = {"a": 2.0, "b": 0.5}.get(case)
    if nu is None:
        return None
    if kind == "prefactor-temporal":
        return (1.0 - alpha) * nu / 2.0
    return (1.0 - alpha) * (nu - 2.0) / 2.0


def _table(cfg: StudyConfig, kind: str, param_name: str, plan) -> list[ExperimentReport]:
    """The one loop behind every study: one report per alpha.

    ``plan`` lists the rows as (run, reference) pairs of (T, family, M, N),
    the :class:`Run` fields that a table varies, the same for every alpha.
    Before the first solve, every reference is checked to be finer than
    every run on the refined axis (N in a temporal table, M otherwise),
    and the mesh of every planned run is built and held until the table
    is done.  A reference of None (the spatial ``mode`` table) measures
    its run against the exact kernel.  Each distinct entry is solved once
    per alpha, under the case, gamma, scheme and cache of ``cfg``.  The
    parameter column is the run's mesh size h, its step T/N or its final
    time T, as ``param_name`` ("h", "tau" or "t_N") says.  A row whose error is
    exactly 0 has no rate and is rejected with its parameter.
    """
    axis, name = (3, "N") if kind.endswith("temporal") else (2, "M")
    tested = max(run[axis] for run, _ in plan)
    for _, ref in plan:
        if ref is not None and ref[axis] <= tested:
            raise ValueError(f"{name}_ref must exceed every tested {name} ({tested}) "
                             f"in a {kind} study, got {ref[axis]}")
    meshes = {run[1:3]: build_mesh(*run[1:3])
              for pair in plan for run in pair if run is not None}
    exact = any(ref is None for _, ref in plan)
    # u0 = sin sin = (1/2) phi_kl against the orthonormal eigenfunctions.
    mode = InitialData("mode")
    reports = []
    for alpha in cfg.alpha:
        kernel = (linear_exact_solution([(mode.k, mode.l, 0.5)], cfg.T, alpha,
                                        cfg.gamma) if exact else None)
        solved = {}
        params, errors = [], []
        for run, ref in plan:
            for key in (ref, run):
                if key is not None and key not in solved:
                    solved[key] = solve_final(Run(cfg.case, alpha, cfg.gamma, *key,
                                                  cfg.scheme, cfg.source_lumping),
                                              cfg.cache_dir)
            T, family, M, N = run
            params.append(float({"h": meshes[family, M].h, "tau": T / N,
                                 "t_N": T}[param_name]))
            errors.append(float(l2_error_vs_function(*solved[run], kernel) if ref is None
                                else l2_error_vs_reference(solved[run], solved[ref])))
            if errors[-1] == 0.0:
                raise ValueError(f"{param_name} = {params[-1]:g}: the run equals its "
                                 "reference (L2 error 0), so it has no rate")
        pairwise = [None] + [float(np.log(errors[i - 1] / errors[i])
                                   / np.log(params[i - 1] / params[i]))
                             for i in range(1, len(params))]
        reports.append(ExperimentReport(
            kind=kind, case=cfg.case, alpha=float(alpha), param_name=param_name,
            params=tuple(params), errors=tuple(errors), pairwise=tuple(pairwise),
            fitted_rate=fit_rate(params, errors),
            theoretical_rate=_theory(kind, cfg.case, alpha)))
    return reports


def run_spatial_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Mesh refinement at fixed N; param column is the mesh size h."""
    (N,) = _fixed(cfg, "a spatial study", "N")
    ref = None if cfg.case == "mode" else (cfg.T, cfg.family, cfg.M_ref, N)
    return _table(cfg, "spatial", "h",
                  [((cfg.T, cfg.family, M, N), ref) for M in cfg.M])


def run_temporal_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Step refinement at fixed mesh; param column is the step size tau."""
    (M,) = _fixed(cfg, "a temporal study", "M")
    ref = (cfg.T, cfg.family, M, cfg.N_ref)
    return _table(cfg, "temporal", "tau",
                  [((cfg.T, cfg.family, M, N), ref) for N in cfg.N])


def run_prefactor_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Error against the final time t_N = T over ``t_list``.

    The temporal axis compares N against N_ref on the same mesh; the
    spatial axis compares M against M_ref at the same step count.  The
    fitted slope exposes the singular-prefactor behavior as t -> 0.
    """
    M, N = _fixed(cfg, "a prefactor study", "M", "N")
    ref_M, ref_N = (M, cfg.N_ref) if cfg.axis == "temporal" else (cfg.M_ref, N)
    plan = [((t, cfg.family, M, N), (t, cfg.family, ref_M, ref_N)) for t in cfg.t_list]
    return _table(cfg, f"prefactor-{cfg.axis}", "t_N", plan)


def run_nonsymmetric_study(cfg: StudyConfig) -> list[ExperimentReport]:
    """Refinement over the alternating-width family, referenced against a
    fine symmetric mesh (the meshes are non-nested, so the coarse fields
    are evaluated at the fine nodes through point location)."""
    (N,) = _fixed(cfg, "a nonsymmetric study", "N")
    ref = (cfg.T, "symmetric", cfg.M_ref, N)
    return _table(cfg, "nonsymmetric", "h",
                  [((cfg.T, "nonsymmetric", M, N), ref) for M in cfg.M])
