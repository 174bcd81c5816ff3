"""The benchmark under ``bench/`` runs against the package as it stands.

``bench/workloads.py`` and ``bench/tracing.py`` reach into frstokes by
name (stepper functions, config fields, CLI keys) and pin the answers of
each workload.  These tests load both files unchanged, so a refactor that
renames something the benchmark uses, or moves a pinned answer, fails
here instead of only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gate(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, str(tmp_path))
    result = workload.check(workload.run())
    assert result.failed == 0, result.detail
    assert result.attempted == workload.operations


def test_traced_names_resolve():
    tracing = _load("tracing")
    for _, module, name in tracing.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(module), name))
    for _, module, cls, name in tracing.METHOD_SPANS + tracing.METHOD_COUNTERS:
        assert callable(getattr(getattr(importlib.import_module(module), cls), name))
