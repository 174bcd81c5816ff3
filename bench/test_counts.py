"""Self-test of the benchmark's tracing: exact counts from one traced sample
of each workload.

    python3 -m pytest -q bench/test_counts.py

Takes about 35 s on 2 cores.  The counts are fixed by the workloads'
definitions, so a wrapper that misses a lookup site (and reads zero), a
cache that serves stale results, or a stepper that skips steps fails here.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, WORKLOADS, run_worker, worker_env
from tracing import FUNCTION_SPANS, Tracer

# Layer time metrics that do not contain the CG solve.
OTHER_SPANS = (
    "cq_time_stepper.self_s",
    "experiment_harness.self_s",
    "fem_assembly.assemble_s",
    "fem_assembly.l2_error_s",
    "fem_assembly.source_s",
    "spectral_oracle.scalar_cq_s",
    "spectral_oracle.mode_response_s",
    "mesh.build_s",
    "cli.parse_s",
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    env = worker_env()
    cache = {}

    def sample(workload):
        if workload not in cache:
            workdir = tmp_path_factory.mktemp(workload)
            cache[workload] = run_worker(workload, 7, True, workdir, env, 170.0)
            assert cache[workload] is not None, f"{workload} worker failed"
        return cache[workload]

    return sample


def test_wrappers_installed_at_lookup_sites_and_restored():
    from frstokes import cli, cq_time_stepper, experiment_harness, fem_assembly, sparse_linalg

    sites = [(cq_time_stepper, "cg_solve"), (fem_assembly, "cg_solve"),
             (experiment_harness, "step_linearized"), (experiment_harness, "step_implicit"),
             (experiment_harness, "build_symmetric_mesh"), (cli, "step_linearized"),
             (cli, "step_implicit")]
    before = [getattr(m, a) for m, a in sites]
    runner = cli._STUDY_RUNNERS["temporal"]
    with Tracer():
        for (module, attr), original in zip(sites, before):
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
        assert cli._STUDY_RUNNERS["temporal"].__wrapped__ is runner
    assert [getattr(m, a) for m, a in sites] == before
    assert cli._STUDY_RUNNERS["temporal"] is runner
    assert sparse_linalg.cg_solve is cq_time_stepper.cg_solve
    for _, module_name, attr in FUNCTION_SPANS:
        assert not hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__")


def test_temporal_galerkin_counts(traced):
    s = traced("temporal-galerkin")
    layers = s["layers"]
    assert s["failed"] == 0, s["detail"]
    assert layers["cq_time_stepper.cg_solve_calls"] == 795
    assert layers["cq_time_stepper.steps"] == 795
    assert layers["cq_time_stepper.solves"] == 6
    # cold pass: 6 misses; warm re-render: 6 hits
    assert s["cache_by_call"] == {"hits": [0, 6], "misses": [6, 0]}
    assert layers["experiment_harness.cache_bytes_written"] > 0
    assert layers["cq_time_stepper.dof_steps"] == s["dof_steps"]
    assert layers["sparse_linalg.cg_solve_s"] > max(layers[k] for k in OTHER_SPANS)


@pytest.mark.parametrize("workload,N", [("long-history-lumped", 5000),
                                        ("implicit-picard", 200)])
def test_single_solve_counts(traced, workload, N):
    s = traced(workload)
    layers = s["layers"]
    assert s["failed"] == 0, s["detail"]
    assert layers["cq_time_stepper.solves"] == 1
    assert layers["cq_time_stepper.steps"] == N
    assert layers["cq_time_stepper.dof_steps"] == s["dof_steps"]
    assert layers["sparse_linalg.cg_failures"] == 0
    per_step = layers["cq_time_stepper.solves_per_step"]
    if workload == "implicit-picard":
        assert per_step > 2.0  # each step re-solves until the Picard increment is small
        assert layers["sparse_linalg.cg_solve_s"] > max(layers[k] for k in OTHER_SPANS)
    else:
        assert per_step == 1.0


def test_oracle_spectrum_counts(traced):
    s = traced("oracle-spectrum")
    layers = s["layers"]
    assert s["failed"] == 0, s["detail"]
    assert layers["sparse_linalg.cg_solve_calls"] == 0
    assert layers["sparse_linalg.cg_solve_s"] == 0
    assert layers["cq_time_stepper.steps"] == 0
    assert layers["spectral_oracle.scalar_cq_steps"] == 100_000
    assert layers["spectral_oracle.mode_evals"] == 4 * 127**2 + 1


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "implicit-picard",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
