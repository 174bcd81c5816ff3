"""Run the benchmark over several seeds per workload and record the result.

    python3 bench/baseline.py --out bench/baseline.json [--seeds 1-10] [--seconds 32]
                              [--workloads temporal-galerkin,oracle-spectrum]

For every workload: one untraced run per seed, then one traced run.  The
file records, per end-to-end metric, the ten values, their median and the
quartile spread (Q3 - Q1) / median from ``statistics.quantiles(n=4)``; the
per-layer metrics of the traced run; the tracing overhead (traced wall_s
over untraced wall_s); and the machine facts printed by ``run.py``.
Compare two such files, from the same machine, to judge a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-2][len("machine "):]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=str(
        json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    report = {"seconds": float(args.seconds), "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        correct, failed = True, 0
        for seed in _seeds(args.seeds):
            machine, result = _run(workload, seed, args.seconds, 0)
            correct &= result["correct"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  machine["sample_wall_s"], flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "values": vals}
            print(f"  {name}: median {med:.6g}  spread {(q3 - q1) / med:.4f}", flush=True)
        _, traced = _run(workload, _seeds(args.seeds)[0], args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  trace overhead {layers['trace.overhead']:.4f}", flush=True)
        report["machine"] = {k: v for k, v in machine.items()
                             if k not in ("samples", "traced_samples", "sample_wall_s")}
        report["workloads"][workload] = {
            "correct": correct and traced["correct"], "failed": failed + traced["failed"],
            "end_to_end": summary, "per_layer": layers}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
