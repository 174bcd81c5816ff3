"""Spans and counters recorded from outside the frstokes package.

The benchmark never edits the package.  It replaces public functions with
timing wrappers at every place the name is looked up: modules bind names
with ``from .x import y``, so wrapping only the defining module would miss
the calls that matter (``cq_time_stepper.cg_solve`` is a different binding
from ``sparse_linalg.cg_solve``).  Each wrapper records a span (name, the
lookup site, start, end, parent span) in memory; per-layer numbers are
aggregated from the span list when the workload ends.

A layer's self time is the time its spans cover minus the time covered by
their child spans.  Spans run on one thread and nest strictly, so the
children of a span never overlap and their durations simply add.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, function name).  The span name's
# prefix up to the first dot is the layer the time is charged to.
FUNCTION_SPANS = (
    ("sparse_linalg.cg_solve", "frstokes.sparse_linalg", "cg_solve"),
    ("cq_time_stepper.solve", "frstokes.cq_time_stepper", "step_linearized"),
    ("cq_time_stepper.solve", "frstokes.cq_time_stepper", "step_implicit"),
    ("fem_assembly.assemble", "frstokes.fem_assembly", "assemble_stiffness"),
    ("fem_assembly.assemble", "frstokes.fem_assembly", "assemble_mass"),
    ("fem_assembly.assemble", "frstokes.fem_assembly", "assemble_lumped_mass"),
    ("fem_assembly.l2_project", "frstokes.fem_assembly", "l2_project"),
    ("fem_assembly.l2_error", "frstokes.fem_assembly", "l2_error_vs_reference"),
    ("fem_assembly.l2_error", "frstokes.fem_assembly", "l2_error_vs_function"),
    ("spectral_oracle.scalar_cq", "frstokes.spectral_oracle", "scalar_cq_response"),
    ("spectral_oracle.mode_response", "frstokes.spectral_oracle", "mode_response_many"),
    ("spectral_oracle.contour_nodes", "frstokes.spectral_oracle", "contour_nodes"),
    ("experiment_harness.study", "frstokes.experiment_harness", "run_temporal_study"),
    ("experiment_harness.solve_final", "frstokes.experiment_harness", "solve_final"),
    ("mesh.build", "frstokes.mesh", "build_symmetric_mesh"),
    ("mesh.build", "frstokes.mesh", "build_nonsymmetric_mesh"),
    ("cli.main", "frstokes.cli", "main"),
    ("cli.parse", "frstokes.cli", "build_parser"),
    ("cli.parse", "frstokes.cli", "parse_config"),
    ("cli.parse", "frstokes.cli", "study_config_from_dict"),
)

# Methods wrapped on their class, so every instance sees them.
METHOD_SPANS = (
    ("fem_assembly.source", "frstokes.fem_assembly", "Nonlinearity", "__call__"),
)
METHOD_COUNTERS = (
    ("sparse_linalg.matvec", "frstokes.sparse_linalg", "CompositeOperator", "matvec"),
)


@dataclass
class Span:
    name: str
    site: str
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, site: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, site, parent, 0.0)
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.duration
            _annotate(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value, is_item: bool = False) -> None:
        old = owner[attr] if is_item else getattr(owner, attr)
        self._patches.append((owner, attr, old, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for module_name in {entry[1] for entry in FUNCTION_SPANS}:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "frstokes" or n.startswith("frstokes.")]
        for name, module_name, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[module_name], attr)
            for module in modules:
                site = module.__name__.rpartition(".")[2]
                wrapper = self._wrap(name, site, original)
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict):
                        # lookup tables such as cli._STUDY_RUNNERS
                        for k, v in list(value.items()):
                            if v is original:
                                self._set(value, k, wrapper, is_item=True)
        for name, module_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, attr, self._wrap(name, cls_name, getattr(cls, attr)))
        for name, module_name, cls_name, attr in METHOD_COUNTERS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, attr, self._count(name, getattr(cls, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        out: dict[str, float] = {}

        def total(name):
            return sum(s.duration for s in spans if s.name == name)

        def calls(name, site=None):
            return sum(1 for s in spans
                       if s.name == name and (site is None or s.site == site))

        def layer_self(layer):
            return sum(s.self_time for s in spans
                       if s.name.partition(".")[0] == layer)

        cg_calls = calls("sparse_linalg.cg_solve")
        stepper_cg = calls("sparse_linalg.cg_solve", site="cq_time_stepper")
        iters = self.counts.get("sparse_linalg.matvec", 0)
        out["sparse_linalg.cg_solve_s"] = total("sparse_linalg.cg_solve")
        out["sparse_linalg.cg_solve_calls"] = cg_calls
        out["sparse_linalg.cg_iters"] = iters
        out["sparse_linalg.cg_iters_per_solve"] = iters / stepper_cg if stepper_cg else 0.0
        out["sparse_linalg.cg_failures"] = sum(
            1 for s in spans if s.name == "sparse_linalg.cg_solve" and s.failed)

        solves = [s for s in spans if s.name == "cq_time_stepper.solve"]
        steps = sum(s.info.get("N", 0) for s in solves)
        out["cq_time_stepper.solve_s"] = sum(s.duration for s in solves)
        out["cq_time_stepper.self_s"] = layer_self("cq_time_stepper")
        out["cq_time_stepper.solves"] = len(solves)
        out["cq_time_stepper.steps"] = steps
        out["cq_time_stepper.cg_solve_calls"] = stepper_cg
        out["cq_time_stepper.solves_per_step"] = stepper_cg / steps if steps else 0.0
        out["cq_time_stepper.history_bytes"] = max(
            ((s.info["N"] + 1) * s.info["ndof"] * 8 for s in solves), default=0)
        out["cq_time_stepper.history_bytes_read"] = sum(
            s.info["N"] * (s.info["N"] + 1) // 2 * s.info["ndof"] * 8 for s in solves)
        out["cq_time_stepper.dof_steps"] = sum(s.info["N"] * s.info["ndof"] for s in solves)

        out["fem_assembly.assemble_s"] = total("fem_assembly.assemble")
        out["fem_assembly.assemble_calls"] = calls("fem_assembly.assemble")
        out["fem_assembly.l2_project_s"] = total("fem_assembly.l2_project")
        out["fem_assembly.l2_error_s"] = total("fem_assembly.l2_error")
        out["fem_assembly.l2_error_calls"] = calls("fem_assembly.l2_error")
        out["fem_assembly.source_s"] = total("fem_assembly.source")
        out["fem_assembly.source_calls"] = calls("fem_assembly.source")

        out["spectral_oracle.scalar_cq_s"] = total("spectral_oracle.scalar_cq")
        out["spectral_oracle.scalar_cq_steps"] = sum(
            s.info.get("N", 0) for s in spans if s.name == "spectral_oracle.scalar_cq")
        out["spectral_oracle.mode_response_s"] = total("spectral_oracle.mode_response")
        out["spectral_oracle.mode_evals"] = sum(
            s.info.get("evals", 0) for s in spans
            if s.name == "spectral_oracle.mode_response")
        out["spectral_oracle.contour_nodes"] = sum(
            s.info.get("nodes", 0) for s in spans
            if s.name == "spectral_oracle.contour_nodes")

        hits, misses = self.cache_outcomes()
        out["experiment_harness.solve_final_s"] = total("experiment_harness.solve_final")
        out["experiment_harness.self_s"] = layer_self("experiment_harness")
        out["experiment_harness.cache_hits"] = sum(hits)
        out["experiment_harness.cache_misses"] = sum(misses)

        out["mesh.build_s"] = total("mesh.build")
        out["mesh.build_calls"] = calls("mesh.build")
        out["cli.parse_s"] = total("cli.parse")
        return out

    def cache_outcomes(self) -> tuple[list[int], list[int]]:
        """Cache hits and misses of ``solve_final``, one entry per top-level
        span (one per CLI call).  A call is a miss when a stepper ran under it."""
        missed = set()
        for s in self.spans:
            if s.name == "cq_time_stepper.solve":
                parent = s.parent
                while parent is not None and \
                        self.spans[parent].name != "experiment_harness.solve_final":
                    parent = self.spans[parent].parent
                missed.add(parent)
        hits: list[int] = []
        misses: list[int] = []
        for i, s in enumerate(self.spans):
            if s.parent is None:
                hits.append(0)
                misses.append(0)
            if s.name == "experiment_harness.solve_final":
                if i in missed:
                    misses[-1] += 1
                else:
                    hits[-1] += 1
        return hits, misses


def _annotate(span: Span, args, kwargs, result) -> None:
    """Record the sizes the per-layer counts are computed from."""
    if span.name == "cq_time_stepper.solve":
        config, _, mesh = args[:3]
        span.info = {"N": int(config.N), "ndof": int(mesh.n_interior)}
    elif span.name == "spectral_oracle.scalar_cq":
        span.info = {"N": int(kwargs["N"] if "N" in kwargs else args[4])}
    elif span.name == "spectral_oracle.mode_response":
        lams = kwargs["lams"] if "lams" in kwargs else args[0]
        span.info = {"evals": int(len(lams))}
    elif span.name == "spectral_oracle.contour_nodes":
        span.info = {"nodes": int(len(result[0]))}
