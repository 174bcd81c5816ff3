"""The benchmark's workloads: inputs built from a seed, a timed body, and a
correctness gate.

Each workload is one unit of work a user of frstokes runs: a CLI
convergence study, a long single solve, a Picard solve, or the reference
values of the spectral oracle.  The seed varies inputs that do not change
the amount of work or the pinned answers (the order of the study's step
counts, the snapshot stride, the oracle's mode and eigenvalue order), so
any seed gives the same work and the same gate.

Pinned values were measured at the commit that introduced the benchmark,
with Jacobi-CG at tolerance 1e-12.  The relative tolerances (1e-6 on errors
and norms, 1e-4 absolute on the fitted rate) admit a direct solve or a
different summation order in place of CG, and reject wrong weights or a
stale cache.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np

# Pinned outputs of the seed commit.
TEMPORAL_ERRORS = {  # L2 error at t = 1 against N_ref = 640, by N
    5: 1.425230599017e-03,
    10: 5.484633687412e-04,
    20: 2.28272473934e-04,
    40: 9.873705333512e-05,
    80: 4.273325845514e-05,
}
TEMPORAL_FITTED_RATE = 1.259312
LONG_HISTORY_FINAL_L2 = 0.023483151242432325
IMPLICIT_FINAL_L2 = 0.023539111753636235
SPECTRUM_SUMS = {  # sum of e_lam(t) over the 127^2 eigenvalues of the M=128 grid
    1.0: 0.10479131134018066,
    1e-3: 12.474601000948034,
    1e-5: 111.40151994556336,
    1e-7: 836.4843458910145,
}

REL_TOL = 1e-6
RATE_TOL = 1e-4
SPECTRUM_REL_TOL = 1e-8
ORACLE_LIMIT_TOL = 1e-5  # tests/test_acceptance.py::test_6 bound


def _close(value: float, expected: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rel * abs(expected)


@dataclass
class Result:
    """What a workload's correctness gate concluded about one sample."""

    attempted: int
    failed: int
    detail: str
    extra: dict  # values worth keeping with the sample, such as the measured norm


class TemporalGalerkin:
    """``frs convergence temporal`` on an empty cache, then ``--md`` warm."""

    name = "temporal-galerkin"
    M = 64
    N_LIST = (5, 10, 20, 40, 80)
    N_REF = 640
    operations = len(N_LIST) + 1  # one stepper solve per table row plus the reference

    def setup(self, seed: int, workdir: str):
        from frstokes import cli

        order = list(self.N_LIST)
        random.Random(seed).shuffle(order)
        self.cache_dir = os.path.join(workdir, "cache")
        self.config = os.path.join(workdir, "study.cfg")
        with open(self.config, "w") as fh:
            fh.write("case = a\nalpha = 0.5\ngamma = 1.0\nT = 1.0\n"
                     f"M = {self.M}\nN = {','.join(map(str, order))}\n"
                     f"N_ref = {self.N_REF}\nscheme = galerkin-linearized\n"
                     f"cache_dir = {self.cache_dir}\n")
        self.cli = cli
        self.dof_steps = (self.M - 1) ** 2 * (sum(self.N_LIST) + self.N_REF)

    def run(self):
        argv = ["convergence", "temporal", "--config", self.config]
        cold, warm = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(cold):
            rc_cold = self.cli.main(argv)
        start = time.perf_counter()
        with contextlib.redirect_stdout(warm):
            rc_warm = self.cli.main(argv + ["--md"])
        warm_s = time.perf_counter() - start
        return rc_cold, cold.getvalue(), rc_warm, warm.getvalue(), warm_s

    def check(self, output) -> Result:
        rc_cold, cold, rc_warm, warm, warm_s = output
        rows, fitted = _parse_csv(cold)
        bad_rows = [N for N in self.N_LIST
                    if not _close(rows.get(1.0 / N, math.nan), TEMPORAL_ERRORS[N], REL_TOL)]
        rate_ok = fitted is not None and abs(fitted - TEMPORAL_FITTED_RATE) <= RATE_TOL
        warm_ok = rc_warm == 0 and _markdown_rows(warm) == [
            (f"{tau:.3e}", f"{err:.3e}") for tau, err in rows.items()]
        failed = len(bad_rows) + (0 if rc_cold == 0 and rate_ok and warm_ok else 1)
        detail = (f"rows off: {bad_rows}; fitted rate {fitted} "
                  f"(pinned {TEMPORAL_FITTED_RATE}); warm table matches: {warm_ok}")
        cache_bytes = sum(e.stat().st_size for e in os.scandir(self.cache_dir))
        return Result(self.operations, min(failed, self.operations), detail,
                      {"warm_rerun_s": warm_s, "cache_bytes_written": cache_bytes,
                       "errors": {str(int(round(1 / t))): e for t, e in rows.items()},
                       "fitted_rate": fitted})


def _parse_csv(text: str):
    rows: dict[float, float] = {}
    fitted = None
    for line in text.splitlines():
        parts = line.split(",")
        if parts[0] == "fitted_rate":
            fitted = float(parts[1])
        elif len(parts) == 3 and parts[0] != "param":
            rows[float(parts[0])] = float(parts[1])
    # key the rows by the exact step size the table was built from
    return {1.0 / round(1.0 / t): e for t, e in rows.items()}, fitted


def _markdown_rows(text: str):
    rows = []
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 3 and cells[0][:1].isdigit():
            rows.append((cells[0], cells[1]))
    return rows


class _SingleSolve:
    """One stepper call on case a; the gate is the final-field L2 norm."""

    operations = 1
    variant = ""
    M = 0
    N = 0
    expected_l2 = 0.0

    def setup(self, seed: int, workdir: str):
        from frstokes import ProblemSpec, SchemeConfig, build_symmetric_mesh

        self.stride = random.Random(seed).randint(self.N // 100, self.N // 10)
        self.mesh = build_symmetric_mesh(self.M)
        self.problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0)
        self.config = SchemeConfig(variant=self.variant, N=self.N,
                                   snapshot_stride=self.stride)
        self.dof_steps = self.mesh.n_interior * self.N

    def check(self, traj) -> Result:
        from frstokes import l2_norm

        norm = l2_norm(self.mesh, traj.final())
        marks = sorted(set(range(0, self.N + 1, self.stride)) | {self.N})
        snapshots_ok = traj.N == self.N and list(traj.steps) == marks and \
            np.allclose(traj.times, np.array(marks) / self.N, rtol=0, atol=1e-14)
        ok = snapshots_ok and _close(norm, self.expected_l2, REL_TOL)
        detail = (f"final L2 norm {norm!r} (pinned {self.expected_l2!r}); "
                  f"snapshot stride {self.stride} bookkeeping ok: {snapshots_ok}")
        return Result(1, 0 if ok else 1, detail, {"final_l2": norm})


class LongHistoryLumped(_SingleSolve):
    """``step_linearized``, lumped mass, M=32, N=5000: a long CQ history."""

    name = "long-history-lumped"
    variant = "lumped-linearized"
    M = 32
    N = 5000
    expected_l2 = LONG_HISTORY_FINAL_L2

    def run(self):
        from frstokes import cq_time_stepper

        return cq_time_stepper.step_linearized(self.config, self.problem, self.mesh)


class ImplicitPicard(_SingleSolve):
    """``step_implicit``, Galerkin mass, M=64, N=200: Picard re-solves."""

    name = "implicit-picard"
    variant = "galerkin-implicit"
    M = 64
    N = 200
    expected_l2 = IMPLICIT_FINAL_L2

    def run(self):
        from frstokes import cq_time_stepper

        return cq_time_stepper.step_implicit(self.config, self.problem, self.mesh)


class OracleSpectrum:
    """The scalar CQ limit run of the oracle check, then the contour kernel
    over the whole discrete spectrum of the M=128 grid at four times."""

    name = "oracle-spectrum"
    M_SCALAR = 16
    N_SCALAR = 100_000
    M_GRID = 128
    TIMES = (1.0, 1e-3, 1e-5, 1e-7)
    operations = 1 + len(TIMES)

    def setup(self, seed: int, workdir: str):
        from frstokes import spectral_oracle

        rng = random.Random(seed)
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        self.kl = (k, l)
        self.lam_h = _grid_eigenvalue(self.M_SCALAR, k, l)
        ks = np.arange(1, self.M_GRID)
        grid = _grid_eigenvalue(self.M_GRID, ks[:, None], ks[None, :]).ravel()
        self.lams = grid[np.random.default_rng(seed).permutation(grid.size)]
        self.ascending = np.argsort(self.lams, kind="stable")
        self.oracle = spectral_oracle
        # the scalar recursion is a one-dof CQ stepper
        self.dof_steps = self.N_SCALAR

    def run(self):
        so = self.oracle
        limit = so.scalar_cq_response(self.lam_h, 0.5, 1.0, 1.0, N=self.N_SCALAR)[-1]
        kernel = so.mode_response(self.lam_h, 1.0, 0.5, 1.0)
        spectrum = [so.mode_response_many(self.lams, t, 0.5, 1.0) for t in self.TIMES]
        return limit, kernel, spectrum

    def check(self, output) -> Result:
        limit, kernel, spectrum = output
        failed = 0 if abs(limit - kernel) <= ORACLE_LIMIT_TOL else 1
        sums = {}
        for t, vals in zip(self.TIMES, spectrum):
            total = float(np.sum(vals))
            sums[repr(t)] = total
            in_range = vals.shape == self.lams.shape and bool(
                np.all(np.isfinite(vals)) and np.all(vals > 0) and np.all(vals <= 1.0))
            # e_lam(t) decreases in lam, so values matched to the wrong
            # eigenvalues break the ordering even when the sum is right
            ordered = in_range and bool(np.all(np.diff(vals[self.ascending]) <= 1e-12))
            if not (ordered and _close(total, SPECTRUM_SUMS[t], SPECTRUM_REL_TOL)):
                failed += 1
        detail = (f"mode {self.kl}: |scalar limit - kernel| = {abs(limit - kernel):.3e} "
                  f"(tol {ORACLE_LIMIT_TOL}); spectrum sums {sums}")
        return Result(self.operations, failed, detail,
                      {"spectrum_sums": sums, "limit_gap": abs(limit - kernel)})


def _grid_eigenvalue(M: int, k, l):
    """Eigenvalues of the 5-point Laplacian (lumped scheme) on the M-grid."""
    return 4.0 * M * M * (np.sin(k * np.pi / (2 * M)) ** 2
                          + np.sin(l * np.pi / (2 * M)) ** 2)


WORKLOADS = {w.name: w for w in (TemporalGalerkin, LongHistoryLumped,
                                 ImplicitPicard, OracleSpectrum)}
