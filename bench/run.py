"""frstokes benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload temporal-galerkin --seed 1 --seconds 32 --trace 0

Runs from the root of a source checkout (it imports ``src/frstokes``).  The
workload runs in fresh worker processes, one sample each and two at a time,
for as many samples as fit in ``--seconds`` (at least one; with
``--trace 1`` at least one traced and one untraced).  Every sample's output passes a correctness
gate; failed operations are counted, not hidden.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (medians over untraced samples); with
``--trace 1`` they are the per-layer ones (medians over traced samples) and
the tracing overhead.  The line before it records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("temporal-galerkin", "long-history-lumped", "implicit-picard",
             "oracle-spectrum")
# BLAS threads change the timings, so the count is pinned (never above the
# cores this process may use).  One thread: with two, OpenBLAS helper
# threads spin on the second core (process CPU time 1.4-2x wall time) and
# the sample-to-sample spread on 2 cores doubles; the long-history solve
# is about 15 % slower on one thread.
BLAS_THREADS = 1
# Samples run on this many cores at once.  The speed of each core of a
# shared 2-core machine drifts by up to 2x over seconds, independently of
# the other core, so taking samples on both halves the spread of a run's
# median.  Each sample is still one single-threaded process.
PARALLEL_SAMPLES = 2
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "dof_steps_per_s": "dof-steps/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "sparse_linalg.cg_solve_s": "s",
    "sparse_linalg.cg_solve_calls": "count",
    "sparse_linalg.cg_iters": "count",
    "sparse_linalg.cg_iters_per_solve": "count",
    "sparse_linalg.cg_failures": "count",
    "cq_time_stepper.solve_s": "s",
    "cq_time_stepper.self_s": "s",
    "cq_time_stepper.solves": "count",
    "cq_time_stepper.steps": "count",
    "cq_time_stepper.cg_solve_calls": "count",
    "cq_time_stepper.solves_per_step": "count",
    "cq_time_stepper.history_bytes": "B",
    "cq_time_stepper.history_bytes_read": "B",
    "cq_time_stepper.dof_steps": "count",
    "fem_assembly.assemble_s": "s",
    "fem_assembly.assemble_calls": "count",
    "fem_assembly.l2_project_s": "s",
    "fem_assembly.l2_error_s": "s",
    "fem_assembly.l2_error_calls": "count",
    "fem_assembly.source_s": "s",
    "fem_assembly.source_calls": "count",
    "spectral_oracle.scalar_cq_s": "s",
    "spectral_oracle.scalar_cq_steps": "count",
    "spectral_oracle.mode_response_s": "s",
    "spectral_oracle.mode_evals": "count",
    "spectral_oracle.contour_nodes": "count",
    "experiment_harness.solve_final_s": "s",
    "experiment_harness.self_s": "s",
    "experiment_harness.cache_hits": "count",
    "experiment_harness.cache_misses": "count",
    "experiment_harness.cache_bytes_written": "B",
    "experiment_harness.warm_rerun_s": "s",
    "mesh.build_s": "s",
    "mesh.build_calls": "count",
    "cli.parse_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def worker_env() -> dict:
    """Environment for a worker: the checkout's sources, pinned BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def start_worker(workload: str, seed: int, traced: bool, workdir: Path,
                 env: dict) -> subprocess.Popen:
    """Start one sample in a fresh process; its output goes to ``workdir``."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--workdir", str(workdir)]
    with open(workdir / "stdout", "w") as out, open(workdir / "stderr", "w") as err:
        t0 = time.monotonic()
        return subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                                stdout=out, stderr=err)


def read_sample(proc: subprocess.Popen, workdir: Path) -> dict | None:
    """The finished worker's sample, or None if it failed."""
    lines = (workdir / "stdout").read_text().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write((workdir / "stderr").read_text())
        return None
    return json.loads(lines[-1])


def run_worker(workload: str, seed: int, traced: bool, workdir: Path,
               env: dict, timeout: float) -> dict | None:
    """One sample, waited for; None if the process failed or timed out."""
    proc = start_worker(workload, seed, traced, workdir, env)
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    return read_sample(proc, workdir)


def _median(samples: list[dict], key) -> float:
    return statistics.median(key(s) for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frstokes" / "__init__.py").is_file():
        print(f"no frstokes sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = worker_env()
    threads = int(env["OPENBLAS_NUM_THREADS"])

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    samples: list[dict] = []
    running: dict[subprocess.Popen, tuple[Path, float]] = {}
    lanes = min(PARALLEL_SAMPLES, nproc)
    minimum = 2 if args.trace else 1
    launched = crashed = 0
    longest = 0.0
    began = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            while len(running) < lanes and not crashed and (
                    launched < minimum or now - began + longest <= args.seconds):
                workdir = run_dir / f"sample{launched}"
                workdir.mkdir()
                traced = bool(args.trace) and launched % 2 == 0
                proc = start_worker(args.workload, args.seed, traced, workdir, env)
                running[proc] = (workdir, now)
                launched += 1
            if not running:
                break
            if now - began > RUN_LIMIT_S:
                print(f"samples still running after {RUN_LIMIT_S:.0f} s", file=sys.stderr)
                crashed += len(running)
                break
            time.sleep(0.05)
            for proc in [p for p in running if p.poll() is not None]:
                workdir, start = running.pop(proc)
                longest = max(longest, time.monotonic() - start)
                sample = read_sample(proc, workdir)
                if sample is None:
                    crashed += 1
                    continue
                samples.append(sample)
                if sample["failed"]:
                    print(f"{args.workload}: {sample['failed']} of {sample['attempted']} "
                          f"operations failed: {sample['detail']}", file=sys.stderr)
    finally:
        for proc in running:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    if not samples:
        print("no sample completed", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if crashed:
        ops = samples[0]["attempted"]
        attempted += ops * crashed
        failed += ops * crashed
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]

    if args.trace:
        values = {name: _median(traced, lambda s, n=name: s["layers"][n])
                  for name in PER_LAYER_UNITS if not name.startswith("trace.")}
        values["trace.wall_s"] = _median(traced, lambda s: s["wall_s"])
        values["trace.overhead"] = (values["trace.wall_s"] / _median(untraced, lambda s: s["wall_s"])
                                    if untraced else 0.0)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": _median(samples, lambda s: s["setup_s"]),
            "wall_s": _median(samples, lambda s: s["wall_s"]),
            "dof_steps_per_s": _median(samples, lambda s: s["dof_steps"] / s["wall_s"]),
            "peak_rss_mb": _median(samples, lambda s: s["peak_rss_mb"]),
        }
        units = END_TO_END_UNITS

    machine = dict(samples[0]["machine"], nproc=nproc, blas_threads=threads,
                   l2_bytes=_getconf("LEVEL2_CACHE_SIZE"),
                   l3_bytes=_getconf("LEVEL3_CACHE_SIZE"),
                   samples=len(samples), traced_samples=len(traced),
                   sample_wall_s=[round(s["wall_s"], 4) for s in samples])
    print("machine " + json.dumps(machine))
    print(json.dumps({
        "correct": failed == 0 and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
