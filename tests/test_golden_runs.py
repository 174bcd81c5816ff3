"""Golden fields: the final fields of a few fixed runs, recorded under the
``CACHE_FORMAT`` that names what the solver produces.

A change to the stepper that moves a field under the same format would
let an old cache serve the old field as if it were the new one.  This
module solves every run listed in ``golden_runs.json`` once, in one
subprocess at ``OPENBLAS_NUM_THREADS=1``, and compares each field's L2
norm, max|U| and values at 8 fixed interior nodes at 1e-11 relative, and
the SHA-256 of its bytes when the BLAS library and the OpenBLAS core it
runs under are those recorded.

After bumping ``CACHE_FORMAT``, rewrite the records of the listed runs
(edit the ``run`` entries of the file to change which runs are kept):

    PYTHONPATH=src python tests/test_golden_runs.py --write
"""

import ctypes
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tree_env
from frstokes.experiment_harness import CACHE_FORMAT, Run, _blas_config, solve_final
from frstokes.fem_assembly import l2_norm

GOLDEN = Path(__file__).with_name("golden_runs.json")
CHANGED = "fields changed: bump CACHE_FORMAT and regenerate tests/golden_runs.json"


def _openblas_core() -> str:
    """The kernel set OpenBLAS chose at run time in numpy's bundled library,
    such as "SkylakeX"; "unknown" where numpy bundles no scipy-openblas."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _records(runs: list[dict]) -> list[dict]:
    """Solve each run (a dict of :class:`Run` fields) in this process and
    summarize its final field."""
    records = []
    for fields in runs:
        mesh, final = solve_final(Run(**fields))
        interior = mesh.interior_nodes
        nodes = interior[np.linspace(0, len(interior) - 1, 8).round().astype(int)]
        records.append({
            "run": fields,
            "format": CACHE_FORMAT,
            "l2_norm": l2_norm(mesh, final),
            "max_abs": float(np.abs(final).max()),
            "nodes": nodes.tolist(),
            "values": final[nodes].tolist(),  # repr round-trips: 17 digits
            "sha256": hashlib.sha256(final.astype("<f8").tobytes()).hexdigest(),
            "blas": _blas_config()[0],
            "openblas_core": _openblas_core(),
        })
    return records


def _solve_in_subprocess(runs: list[dict]) -> list[dict]:
    env = tree_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, __file__, "--measure"], input=json.dumps(runs),
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _label(record: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in record["run"].items())


def _assert_same_format(want: dict, got: dict) -> None:
    assert want["format"] == got["format"], (
        f"{GOLDEN.name} was made under CACHE_FORMAT {want['format']!r}, which is now "
        f"{got['format']!r}: regenerate it with "
        "PYTHONPATH=src python tests/test_golden_runs.py --write")


@pytest.fixture(scope="module")
def golden_and_fresh():
    golden = json.loads(GOLDEN.read_text())
    return golden, _solve_in_subprocess([record["run"] for record in golden])


def test_golden_summaries(golden_and_fresh):
    golden, fresh = golden_and_fresh
    assert len(golden) >= 6
    for want, got in zip(golden, fresh):
        _assert_same_format(want, got)
        summary = ("l2_norm", "max_abs", "values")
        close = want["nodes"] == got["nodes"] and all(
            np.allclose(got[name], want[name], rtol=1e-11, atol=0) for name in summary)
        assert close, f"{_label(want)}: {CHANGED}"


def test_golden_field_bytes(golden_and_fresh):
    golden, fresh = golden_and_fresh
    platform = [(r["blas"], r["openblas_core"]) for r in fresh]
    recorded = [(r["blas"], r["openblas_core"]) for r in golden]
    if platform != recorded:
        pytest.skip(f"fields recorded under BLAS and OpenBLAS core {recorded[0]}, "
                    f"this process runs {platform[0]}: field bytes not compared")
    for want, got in zip(golden, fresh):
        _assert_same_format(want, got)
        assert want["sha256"] == got["sha256"], f"{_label(want)}: {CHANGED}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--measure"]:
        json.dump(_records(json.load(sys.stdin)), sys.stdout)
    elif sys.argv[1:] == ["--write"]:
        runs = [record["run"] for record in json.loads(GOLDEN.read_text())]
        GOLDEN.write_text(json.dumps(_solve_in_subprocess(runs), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
