"""Acceptance suite: eight end-to-end checks, one summary line each.

The convergence studies dominate the runtime (about a minute all told on
two cores); run this file alone with ``pytest tests/test_acceptance.py -v -s``
to watch the [PASS]/[FAIL] lines as they land.

Check 3 pins the short-time growth of the temporal error, t^0.50 for the
smooth datum and t^0.125 for the indicator (both +/- 0.08, alpha = 0.5).
These slopes are t -> 0 limits, reached only once the lowest mode has
gamma lambda_1 t^(1-alpha) << 1; with lambda_1 = 2 pi^2 that quantity is
0.62 at t = 1e-3 and 0.062 at t = 1e-5.  The errors are measured over
t_N = 1e-3..1e-9 and the asserted slopes are fitted over 1e-5..1e-9, where
the limit holds and M = 128 still resolves the rough datum's modes with
gamma lambda t^(1-alpha) ~ 1.  The 1e-3..1e-7 slope (0.4067 for the smooth
datum) is printed too, so the pre-asymptotic bend stays visible.  A modal
model with no mesh (the scalar backward-Euler CQ recursion on the exact
sine series of the smooth datum, f = 0) gives errors within 0.1 % of the
solver at t_N = 1e-5..1e-9 and a 1e-3..1e-7 slope of 0.405: the bend is a
property of the discretization over that window, not a fault of this code.
"""
import math

import numpy as np
import pytest

from frstokes.mesh import build_nonsymmetric_mesh, build_symmetric_mesh
from frstokes.fem_assembly import (
    InitialData,
    ProblemSpec,
    assemble_lumped_mass,
    assemble_mass,
    l2_error_vs_reference,
    mesh_operator,
    zero_source,
)
from frstokes.cq_time_stepper import (
    SchemeConfig,
    cq_fractional_integral,
    cq_weights,
    step_linearized,
)
from frstokes.spectral_oracle import (
    mode_response,
    mode_response_many,
    scalar_cq_response,
)
from frstokes.experiment_harness import (
    StudyConfig,
    fit_rate,
    run_nonsymmetric_study,
    run_prefactor_study,
    run_spatial_study,
    run_temporal_study,
)

# Error-magnitude anchors for each study protocol.  Reference resolutions
# here differ from the runs the anchors were taken at, so magnitudes are
# only held to a factor of 3; the fitted rates carry the tight tolerances.
ANCHOR_SPATIAL = {
    ("a", 0.25): (1.03e-3, 2.64e-4, 6.63e-5, 1.65e-5),
    ("a", 0.50): (1.10e-3, 2.81e-4, 7.06e-5, 1.76e-5),
    ("a", 0.75): (1.16e-3, 2.97e-4, 7.47e-5, 1.86e-5),
    ("b", 0.25): (1.03e-3, 2.62e-4, 6.57e-5, 1.64e-5),
    ("b", 0.50): (1.09e-3, 2.77e-4, 6.95e-5, 1.73e-5),
    ("b", 0.75): (1.16e-3, 2.93e-4, 7.32e-5, 1.83e-5),
}
ANCHOR_TEMPORAL_A = {
    0.25: (2.72e-4, 1.33e-4, 6.50e-5, 3.10e-5, 1.42e-5),
    0.50: (5.80e-4, 2.88e-4, 1.41e-4, 6.75e-5, 3.08e-5),
    0.75: (9.39e-4, 4.75e-4, 2.35e-4, 1.13e-4, 5.18e-5),
}
ANCHOR_PREFACTOR_TEMPORAL = {
    "a": (2.01e-4, 8.63e-5, 2.92e-5, 9.43e-6, 3.01e-6),
    "b": (4.16e-3, 3.21e-3, 2.30e-3, 1.73e-3, 1.30e-3),
}
ANCHOR_PREFACTOR_SPATIAL = {
    "a": (8.04e-6, 1.25e-5, 1.52e-5, 1.63e-5, 1.68e-5),
    "b": (1.89e-4, 4.68e-4, 1.12e-3, 2.65e-3, 6.15e-3),
}
ANCHOR_NONSYMMETRIC = {
    "a": (1.70e-3, 4.40e-4, 1.11e-4, 2.76e-5),
    "b": (1.65e-3, 4.20e-4, 1.05e-4, 2.61e-5),
}

T_GRID = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance-cache"))


def _summary(label: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line, flush=True)
    return line


def _within_factor(measured, anchors, factor=3.0) -> bool:
    return all(a / factor <= m <= a * factor
               for m, a in zip(measured, anchors, strict=True))


def test_1_spatial_rates_symmetric(cache_dir):
    rates = {}
    mags_ok = True
    for case in ("a", "b"):
        cfg = StudyConfig(case=case, alphas=(0.25, 0.5, 0.75),
                          M=(8, 16, 32, 64), M_ref=128, N=200,
                          scheme="galerkin-linearized", cache_dir=cache_dir)
        for rep in run_spatial_study(cfg):
            rates[(case, rep.alpha)] = rep.fitted_rate
            mags_ok &= _within_factor(rep.errors, ANCHOR_SPATIAL[(case, rep.alpha)])
    rates_ok = all(1.8 <= r <= 2.2 for r in rates.values())
    detail = ("rates " + ", ".join(f"{c}/{a:g}={r:.3f}"
                                   for (c, a), r in sorted(rates.items()))
              + f" target [1.8, 2.2]; magnitudes within 3x: {mags_ok}")
    ok = rates_ok and mags_ok
    line = _summary("1/8 spatial rates (symmetric)", ok, detail)
    assert ok, line


def _rough_data_transient():
    """Lumped f=0 run from the discontinuous datum against the exact kernel.

    The symmetric-family stiffness and lumped mass share the interpolated
    sine modes as eigenvectors, so the semidiscrete solution is available
    in closed form through the contour oracle.  The measured error of the
    stepper against it isolates the start-up transient of rough data with
    no self-referencing: it decays near second order over N = 5..80, which
    is why the fitted self-convergence rate for case (b) sits well above
    the first-order band until N is in the hundreds.
    """
    M = 32
    mesh = build_symmetric_mesh(M)
    data = InitialData("b")
    prob = ProblemSpec(alpha=0.25, gamma=1.0, T=1.0,
                       nonlinearity=zero_source(), initial_data=data)
    idx = mesh.interior_nodes
    u0 = data.field(mesh)
    ks = np.arange(1, M)
    lam1 = 4.0 * M * M * np.sin(ks * np.pi / (2 * M)) ** 2
    lams = (lam1[:, None] + lam1[None, :]).ravel()
    sx = np.sin(np.outer(ks, np.pi * mesh.nodes[idx, 0]))
    sy = np.sin(np.outer(ks, np.pi * mesh.nodes[idx, 1]))
    phis = (sx[:, None, :] * sy[None, :, :]).reshape((M - 1) ** 2, -1)
    coef = phis @ u0[idx] / np.sum(phis * phis, axis=1)
    exact = np.zeros(mesh.n_nodes)
    exact[idx] = (coef * mode_response_many(lams, 1.0, prob.alpha, prob.gamma)) @ phis
    errs = []
    for N in (5, 10, 20, 40, 80):
        fin = step_linearized(SchemeConfig(variant="lumped-linearized", N=N),
                              prob, mesh).final()
        errs.append(l2_error_vs_reference((mesh, fin), (mesh, exact)))
    taus = np.array([1 / 5, 1 / 10, 1 / 20, 1 / 40, 1 / 80])
    rate = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    return errs, rate


def test_2_temporal_rates(cache_dir):
    cfg = StudyConfig(case="a", alphas=(0.25, 0.5, 0.75), M=128,
                      N=(5, 10, 20, 40, 80), N_ref=640,
                      scheme="galerkin-linearized", cache_dir=cache_dir)
    reports_a = run_temporal_study(cfg)
    rates_a = {rep.alpha: rep.fitted_rate for rep in reports_a}
    mags_ok = all(_within_factor(rep.errors, ANCHOR_TEMPORAL_A[rep.alpha])
                  for rep in reports_a)
    ok_a = all(0.9 <= r <= 1.3 for r in rates_a.values())

    # The discontinuous datum adds a start-up transient that decays near
    # second order (verified against the exact kernel below), so over this
    # N range its fitted rate lands around 1.4-1.8 rather than in the
    # smooth-data band; pinned here: monotone decay plus a first-order
    # floor, with the transient's own rate checked against the oracle.
    cfg_b = StudyConfig(case="b", alphas=(0.25, 0.5, 0.75), M=128,
                        N=(5, 10, 20, 40, 80), N_ref=640,
                        scheme="galerkin-linearized", cache_dir=cache_dir)
    reports_b = run_temporal_study(cfg_b)
    rates_b = {rep.alpha: rep.fitted_rate for rep in reports_b}
    ok_b = all(np.all(np.diff(rep.errors) < 0) and rep.fitted_rate >= 0.9
               for rep in reports_b)
    tr_errs, tr_rate = _rough_data_transient()
    ok_tr = np.all(np.diff(tr_errs) < 0) and 1.7 <= tr_rate <= 2.1

    detail = ("case a rates " + ", ".join(f"{a:g}={r:.3f}" for a, r in sorted(rates_a.items()))
              + " target [0.9, 1.3]; case b rates "
              + ", ".join(f"{a:g}={r:.3f}" for a, r in sorted(rates_b.items()))
              + f" (transient-dominated, floor 0.9); exact-kernel transient rate {tr_rate:.3f};"
              + f" magnitudes within 3x: {mags_ok}")
    ok = ok_a and ok_b and ok_tr and mags_ok
    line = _summary("2/8 temporal rates", ok, detail)
    assert ok, line


def test_3_temporal_prefactor_slopes(cache_dir):
    # Slopes asserted over t_N = 1e-5..1e-9, where the t -> 0 limit holds;
    # the 1e-3..1e-7 slope shows the pre-asymptotic bend (module docstring).
    slopes, bend = {}, {}
    mags_ok = True
    for case in ("a", "b"):
        cfg = StudyConfig(case=case, alphas=(0.5,), M=128, N=10, N_ref=80,
                          t_list=T_GRID + (1e-8, 1e-9), axis="temporal",
                          scheme="galerkin-linearized", cache_dir=cache_dir)
        (rep,) = run_prefactor_study(cfg)
        slopes[case] = fit_rate(rep.params[2:], rep.errors[2:])
        bend[case] = fit_rate(rep.params[:5], rep.errors[:5])
        mags_ok &= _within_factor(rep.errors[:5], ANCHOR_PREFACTOR_TEMPORAL[case])
    ok = (abs(slopes["a"] - 0.50) <= 0.08 and abs(slopes["b"] - 0.125) <= 0.08
          and mags_ok)
    detail = (f"case a slope {slopes['a']:.4f} target 0.50+/-0.08, "
              f"case b slope {slopes['b']:.4f} target 0.125+/-0.08 "
              f"(fit over t_N 1e-5..1e-9); "
              f"1e-3..1e-7 slopes a {bend['a']:.4f}, b {bend['b']:.4f}; "
              f"magnitudes within 3x: {mags_ok}")
    line = _summary("3/8 temporal prefactor slopes", ok, detail)
    assert ok, line


def test_4_spatial_prefactor_slopes(cache_dir):
    slopes = {}
    mags_ok = True
    for case in ("a", "b"):
        cfg = StudyConfig(case=case, alphas=(0.5,), M=64, M_ref=128, N=200,
                          t_list=T_GRID, axis="spatial",
                          scheme="galerkin-linearized", cache_dir=cache_dir)
        (rep,) = run_prefactor_study(cfg)
        slopes[case] = rep.fitted_rate
        mags_ok &= _within_factor(rep.errors, ANCHOR_PREFACTOR_SPATIAL[case])
    ok = (abs(slopes["a"]) <= 0.05 and abs(slopes["b"] + 0.375) <= 0.08 and mags_ok)
    detail = (f"case a slope {slopes['a']:.4f} target 0+/-0.05, "
              f"case b slope {slopes['b']:.4f} target -0.375+/-0.08; "
              f"magnitudes within 3x: {mags_ok}")
    line = _summary("4/8 spatial prefactor slopes", ok, detail)
    assert ok, line


def test_5_nonsymmetric_lumped_rates(cache_dir):
    rates = {}
    mags_ok = True
    for case in ("a", "b"):
        cfg = StudyConfig(case=case, alphas=(0.5,), family="nonsymmetric",
                          M=(8, 16, 32, 64), M_ref=128, N=200,
                          scheme="lumped-linearized", cache_dir=cache_dir)
        (rep,) = run_nonsymmetric_study(cfg)
        rates[case] = rep.fitted_rate
        mags_ok &= _within_factor(rep.errors, ANCHOR_NONSYMMETRIC[case])
    ok = 1.8 <= rates["a"] <= 2.2 and rates["b"] >= 1.4 and mags_ok
    detail = (f"case a rate {rates['a']:.3f} target [1.8, 2.2], "
              f"case b rate {rates['b']:.3f} target >= 1.4; "
              f"magnitudes within 3x: {mags_ok}")
    line = _summary("5/8 nonsymmetric lumped rates", ok, detail)
    assert ok, line


def test_6_single_mode_oracle_equivalence():
    M, N = 16, 64
    mesh = build_symmetric_mesh(M)
    prob = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0, nonlinearity=zero_source(),
                       initial_data=InitialData("mode"))
    traj = step_linearized(SchemeConfig(variant="lumped-linearized", N=N,
                                        snapshot_stride=1), prob, mesh)
    lam_h = 8.0 * M * M * np.sin(np.pi / (2 * M)) ** 2
    scal = scalar_cq_response(lam_h, prob.alpha, prob.gamma, prob.T, N)
    phi = prob.initial_data.field(mesh)
    dev_traj = float(np.max(np.abs(traj.values - scal[:, None] * phi[None, :])))

    limit = scalar_cq_response(lam_h, prob.alpha, prob.gamma, prob.T, 100_000)[-1]
    dev_limit = abs(limit - mode_response(lam_h, prob.T, prob.alpha, prob.gamma))

    ok = dev_traj <= 1e-10 and dev_limit <= 1e-5
    detail = (f"trajectory vs scalar recursion {dev_traj:.2e} (tol 1e-10); "
              f"scalar limit vs contour kernel {dev_limit:.2e} (tol 1e-5)")
    line = _summary("6/8 single-mode oracle equivalence", ok, detail)
    assert ok, line


def test_7_running_sums_match_double_sum():
    mesh = build_symmetric_mesh(2)
    prob = ProblemSpec(alpha=0.4, gamma=0.8, T=1.0)
    N = 8
    tau = prob.T / N
    traj = step_linearized(SchemeConfig(variant="galerkin-linearized", N=N,
                                        snapshot_stride=1), prob, mesh)

    # Direct evaluation: dense solves, history retained in full, both
    # convolution sums written out literally over j = 0..n-1.
    idx = mesh.interior_nodes
    A = mesh_operator(mesh, "stiffness").toarray()
    W = mesh_operator(mesh, "mass").toarray()
    M_full = assemble_mass(mesh)
    fn = prob.nonlinearity.fn

    def source(u_int):
        full = np.zeros(mesh.n_nodes)
        full[idx] = u_int
        return (M_full @ fn(full))[idx]

    q = cq_weights(1.0 - prob.alpha, N)
    ta = tau ** (1.0 - prob.alpha)
    hist = [prob.initial_data.field(mesh)[idx]]
    lhs = W + (tau + prob.gamma * ta) * A
    for n in range(1, N + 1):
        plain = sum(hist[j] for j in range(n))
        weighted = sum(q[n - j] * hist[j] for j in range(n))
        rhs = W @ hist[0] - A @ (tau * plain + prob.gamma * ta * weighted)
        rhs = rhs + tau * sum(source(hist[j - 1]) for j in range(1, n + 1))
        hist.append(np.linalg.solve(lhs, rhs))

    dev = float(np.max(np.abs(traj.values[:, idx] - np.array(hist))))
    ok = dev <= 1e-12
    line = _summary("7/8 running sums vs double sum", ok,
                    f"max deviation over all steps {dev:.2e} (tol 1e-12)")
    assert ok, line


def test_8_structural_invariants():
    checks = {}

    for mesh in (build_symmetric_mesh(8), build_nonsymmetric_mesh(8)):
        rows = assemble_mass(mesh).toarray().sum(axis=1)
        lump = assemble_lumped_mass(mesh).diagonal()
        checks[f"lump=rowsum {mesh.family}"] = np.max(np.abs(rows - lump)) <= 1e-13

    for beta in (0.3, 0.7, 1.2):
        q1 = cq_weights(beta, 256)
        q2 = cq_weights(beta + 1.0, 256)
        rel = np.max(np.abs(np.cumsum(q1) - q2) / np.maximum(1.0, np.abs(q2)))
        checks[f"partial-sum beta={beta}"] = rel <= 1e-13

    rng = np.random.default_rng(20240817)
    for mesh in (build_symmetric_mesh(6), build_nonsymmetric_mesh(4)):
        A = mesh_operator(mesh, "stiffness")
        Mi = mesh_operator(mesh, "mass")
        D = mesh_operator(mesh, "lumped_mass")
        spd = bool(np.all(D.diagonal() > 0))
        for _ in range(12):
            x = rng.standard_normal(mesh.n_interior)
            y = rng.standard_normal(mesh.n_interior)
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            for op in (A, Mi):
                spd &= x @ (op @ x) > 0
                spd &= abs(y @ (op @ x) - x @ (op @ y)) <= 1e-12 * scale
            spd &= x @ (Mi @ x + 0.3 * (A @ x)) > 0
        checks[f"spd {mesh.family}"] = spd

    for mu, beta in ((1.0, 0.5), (1.5, 0.25)):
        errs = []
        for N in (64, 128, 256):
            tau = 1.0 / N
            t = np.arange(N + 1) * tau
            approx = cq_fractional_integral(t ** mu, beta, tau)
            errs.append(abs(approx - math.gamma(mu + 1.0) / math.gamma(mu + 1.0 + beta)))
        ratios = (errs[0] / errs[1], errs[1] / errs[2])
        checks[f"I^{beta} of t^{mu} first order"] = all(1.7 <= r <= 2.3 for r in ratios)

    failed = [name for name, good in checks.items() if not good]
    ok = not failed
    line = _summary("8/8 structural invariants", ok,
                    f"{len(checks)} checks" + (f"; failed: {failed}" if failed else ", all hold"))
    assert ok, line
