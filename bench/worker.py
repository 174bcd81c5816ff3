"""One sample of one workload, in a fresh process.

Started by ``bench/run.py``; prints one JSON object as its last line.  The
set-up time runs from ``--t0`` (taken by the parent just before it started
this process, on the same monotonic clock) to the first timed call, so it
covers interpreter start, importing frstokes, numpy and scipy, and building
the workload's inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import frstokes

    source = Path(__file__).resolve().parent.parent / "src"
    if source not in Path(frstokes.__file__).resolve().parents:
        print(f"frstokes imported from {frstokes.__file__}, not from {source}",
              file=sys.stderr)
        return 3

    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.workdir)
    tracer = Tracer() if args.trace else None

    setup_s = time.monotonic() - args.t0
    output, error = None, None
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            output = workload.run()
        except Exception:  # a failed operation is reported, not fatal
            error = traceback.format_exc()
        wall_s = time.perf_counter() - start

    if error is None:
        result = workload.check(output)
        attempted, failed, detail = result.attempted, result.failed, result.detail
        extra = result.extra
    else:
        attempted, failed, detail, extra = workload.operations, workload.operations, error, {}

    sample = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "dof_steps": workload.dof_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
        "extra": extra,
        "machine": _machine(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["experiment_harness.warm_rerun_s"] = extra.get("warm_rerun_s", 0.0)
        layers["experiment_harness.cache_bytes_written"] = extra.get("cache_bytes_written", 0)
        hits, misses = tracer.cache_outcomes()
        sample["layers"] = layers
        sample["cache_by_call"] = {"hits": hits, "misses": misses}
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
