import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import binom

from frstokes.cq_time_stepper import (
    DivergedError,
    PicardConvergenceError,
    SchemeConfig,
    cq_fractional_integral,
    cq_weights,
    step_implicit,
    step_linearized,
    _advance,
    _soe_tail,
    _source_builder,
    _SOE_NEAR,
)
from frstokes.fem_assembly import (
    CaseAInitialData,
    ProblemSpec,
    Nonlinearity,
    SingleModeInitialData,
    initial_data_for_case,
    assemble_lumped_mass,
    assemble_mass,
    assemble_stiffness,
    l2_norm,
    sqrt_one_plus_u2,
    zero_source,
)
from frstokes.mesh import build_nonsymmetric_mesh, build_symmetric_mesh
from frstokes.sparse_linalg import CompositeOperator, DiagMatrix, SparseSymMatrix


def brute_force_history(A, W, u0, alpha, gamma, tau, N, f=None, f_apply=None):
    """Literal expanded update with explicit double sums and dense solves."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    q = [1.0]
    for j in range(1, N + 1):
        q.append(q[-1] * (j - 1 + (1.0 - alpha)) / j)
    B = W + (tau + gamma * tau ** (1.0 - alpha)) * A
    hist = [np.atleast_1d(np.asarray(u0, dtype=float))]
    for n in range(1, N + 1):
        plain = sum(hist[j] for j in range(n))
        weighted = sum(q[n - j] * hist[j] for j in range(n))
        rhs = W @ hist[0] - A @ (tau * plain + gamma * tau ** (1.0 - alpha) * weighted)
        if f is not None:
            rhs = rhs + tau * sum(f_apply(f(hist[j - 1])) for j in range(1, n + 1))
        hist.append(np.linalg.solve(B, rhs))
    return np.array(hist)


def direct_sum_advance(A, W, u0, alpha, gamma, tau, N, source_of_prev,
                       implicit_source=None, picard_tol=1e-12, picard_maxit=50):
    """The stepper with the history sum evaluated directly over every past
    step, O(N^2 ndof); returns the whole (N+1, ndof) history."""
    ndof = u0.size
    history = np.zeros((N + 1, ndof))
    history[0] = u0
    q = cq_weights(1.0 - alpha, N).q
    frac_scale = gamma * tau ** (1.0 - alpha)
    lu = CompositeOperator(W, tau + frac_scale, A).factorize()
    w_u0 = W.matvec(u0)
    sum_plain = np.zeros(ndof)
    sum_source = np.zeros(ndof)
    if implicit_source is not None:
        sum_source += implicit_source(u0)
    for n in range(1, N + 1):
        prev = history[n - 1]
        sum_plain += prev
        if source_of_prev is not None:
            sum_source += source_of_prev(prev)
        weighted = q[1 : n + 1][::-1].dot(history[:n])
        rhs = w_u0 - A.matvec(tau * sum_plain + frac_scale * weighted) + tau * sum_source
        if implicit_source is None:
            u = lu.solve(rhs)
        else:
            u = 2.0 * prev - history[n - 2] if n >= 2 else prev
            for _ in range(picard_maxit):
                u_next = lu.solve(rhs + tau * implicit_source(u))
                increment = np.linalg.norm(u_next - u)
                u = u_next
                if increment <= picard_tol:
                    break
            sum_source += implicit_source(u)
        history[n] = u
    return history


def one_by_one(value):
    return SparseSymMatrix.from_coo(np.array([0]), np.array([0]),
                                    np.array([float(value)]), 1)


def test_weights_match_binomial_series():
    rng = np.random.default_rng(31)
    for _ in range(12):
        beta = rng.uniform(0.01, 1.99)
        n = int(rng.integers(1, 51))
        q = cq_weights(beta, n).q
        j = np.arange(n + 1)
        ref = (-1.0) ** j * binom(-beta, j)
        assert np.allclose(q, ref, rtol=1e-13, atol=0)


def test_weights_unit_beta_and_edge_cases():
    assert np.array_equal(cq_weights(1.0, 6).q, np.ones(7))
    assert np.array_equal(cq_weights(0.5, 0).q, [1.0])
    with pytest.raises(ValueError):
        cq_weights(0.0, 4)
    with pytest.raises(ValueError):
        cq_weights(0.5, -1)
    with pytest.raises(ValueError):
        cq_weights(0.5, 4).q[0] = 2.0


def test_weights_partial_sum_identity():
    rng = np.random.default_rng(37)
    for _ in range(10):
        beta = rng.uniform(0.01, 1.99)
        n = int(rng.integers(1, 51))
        q = cq_weights(beta, n).q
        q_up = cq_weights(beta + 1.0, n).q
        assert np.allclose(np.cumsum(q), q_up, rtol=1e-13)


def test_fractional_integral_constant_samples():
    # with beta = 1 every sample carries weight one: n+1 samples give (n+1) tau
    tau = 0.125
    for n in range(4):
        got = cq_fractional_integral(np.ones(n + 1), 1.0, tau)
        assert got == pytest.approx((n + 1) * tau, rel=1e-15)


def test_fractional_integral_first_order_accurate():
    # I^{1/2} of t is t^{3/2} / Gamma(5/2)
    beta, t_end = 0.5, 1.0
    exact = t_end**1.5 / math.gamma(2.5)
    errs = []
    for N in (64, 128, 256):
        tau = t_end / N
        t = np.arange(N + 1) * tau
        errs.append(abs(cq_fractional_integral(t, beta, tau) - exact))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)


def test_fractional_integral_validation():
    with pytest.raises(ValueError):
        cq_fractional_integral([], 0.5, 0.1)
    with pytest.raises(ValueError):
        cq_fractional_integral(np.ones((2, 2)), 0.5, 0.1)
    with pytest.raises(ValueError):
        cq_fractional_integral([1.0], 0.5, 0.0)


def test_scalar_first_step_closed_form():
    # 1x1 system, lam = 1, alpha = 1/2, gamma = 1, tau = 1/2, no source:
    # (1 + tau + sqrt(tau)) U1 = 1 - (tau + sqrt(tau) * q_1), q_1 = 1/2
    hist = _advance(one_by_one(1.0), DiagMatrix([1.0]), np.array([1.0]),
                    alpha=0.5, gamma=1.0, tau=0.5, N=2,
                    steps=np.arange(3), source_of_prev=None)
    expect = (0.5 - math.sqrt(2.0) / 4.0) / (1.5 + math.sqrt(2.0) / 2.0)
    assert hist[1, 0] == pytest.approx(expect, abs=1e-15)
    ref = brute_force_history(1.0, 1.0, 1.0, 0.5, 1.0, 0.5, 2)
    assert np.allclose(hist, ref[:, :], atol=1e-15)


def test_scalar_trajectory_matches_double_sum():
    rng = np.random.default_rng(41)
    for _ in range(6):
        alpha = rng.uniform(0.1, 0.9)
        gamma = rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.5, 40.0)
        hist = _advance(one_by_one(lam), DiagMatrix([1.0]), np.array([1.0]),
                        alpha=alpha, gamma=gamma, tau=0.1, N=8,
                        steps=np.arange(9), source_of_prev=None)
        ref = brute_force_history(lam, 1.0, 1.0, alpha, gamma, 0.1, 8)
        assert np.allclose(hist, ref, atol=1e-13)


def variant_matrices(mesh, variant, source_lumping):
    A = assemble_stiffness(mesh).toarray()
    if variant == "lumped-linearized":
        W = np.diag(assemble_lumped_mass(mesh).values)
    else:
        idx = mesh.interior_nodes
        W = assemble_mass(mesh, full=True).toarray()[np.ix_(idx, idx)]
    if source_lumping:
        diag = assemble_lumped_mass(mesh).values

        def f_apply(fv):
            return diag * fv
    else:
        M_full = assemble_mass(mesh, full=True).toarray()
        idx = mesh.interior_nodes
        bnd = mesh.boundary_mask

        def f_apply(fv):
            full = np.zeros(mesh.n_nodes)
            full[bnd] = 1.0  # f(0) for the canonical nonlinearity
            full[idx] = fv
            return (M_full @ full)[idx]

    return A, W, f_apply


@pytest.mark.parametrize("variant,source_lumping", [
    ("galerkin-linearized", False),
    ("lumped-linearized", False),
    ("lumped-linearized", True),
])
def test_linearized_matches_double_sum_on_mesh(variant, source_lumping):
    mesh = build_symmetric_mesh(4)
    problem = ProblemSpec(alpha=0.4, gamma=0.7, T=0.5,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    cfg = SchemeConfig(variant=variant, N=6, source_lumping=source_lumping,
                       store_full=True, cg_tol=1e-14)
    traj = step_linearized(cfg, problem, mesh)

    A, W, f_apply = variant_matrices(mesh, variant, source_lumping)
    u0 = problem.initial_data.field(mesh).interior()
    f = problem.nonlinearity
    ref = brute_force_history(A, W, u0, problem.alpha, problem.gamma,
                              0.5 / 6, 6, f=f, f_apply=f_apply)
    got = traj.values[:, mesh.interior_nodes]
    assert np.allclose(got, ref, atol=1e-12)


def test_implicit_matches_double_sum_fixed_point():
    # solve the inner fixed point by brute iteration on top of dense solves
    mesh = build_symmetric_mesh(4)
    problem = ProblemSpec(alpha=0.6, gamma=1.3, T=0.5,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    cfg = SchemeConfig(variant="galerkin-implicit", N=6, store_full=True,
                       cg_tol=1e-14, picard_tol=1e-14)
    traj = step_implicit(cfg, problem, mesh)

    A, W, f_apply = variant_matrices(mesh, "galerkin-implicit", False)
    u0 = problem.initial_data.field(mesh).interior()
    f = problem.nonlinearity
    tau = 0.5 / 6
    q = cq_weights(1.0 - problem.alpha, 6).q
    B = W + (tau + problem.gamma * tau ** (1.0 - problem.alpha)) * A
    hist = [u0]
    for n in range(1, 7):
        plain = sum(hist[j] for j in range(n))
        weighted = sum(q[n - j] * hist[j] for j in range(n))
        base = (W @ hist[0]
                - A @ (tau * plain + problem.gamma * tau ** (1.0 - problem.alpha) * weighted)
                + tau * sum(f_apply(f(hist[j])) for j in range(n)))
        u = hist[-1].copy()
        for _ in range(200):
            u_new = np.linalg.solve(B, base + tau * f_apply(f(u)))
            if np.linalg.norm(u_new - u) <= 1e-15:
                u = u_new
                break
            u = u_new
        hist.append(u)
    got = traj.values[:, mesh.interior_nodes]
    assert np.allclose(got, np.array(hist), atol=1e-11)


def test_implicit_factors_step_matrix_once_per_run(monkeypatch):
    factorizations, solves = [], []
    factorize = CompositeOperator.factorize

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b, **kwargs):
            solves.append(1)
            return self.lu.solve(b, **kwargs)

    def counting_factorize(op):
        factorizations.append(op.n)
        return CountingLU(factorize(op))

    monkeypatch.setattr(CompositeOperator, "factorize", counting_factorize)
    mesh = build_symmetric_mesh(6)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    N = 8
    step_implicit(SchemeConfig(variant="galerkin-implicit", N=N), problem, mesh)
    assert factorizations == [mesh.n_interior]
    # every step runs several Picard iterates against the one factorization
    assert len(solves) > 2 * N


def test_lumped_single_mode_reduces_to_scalar_recursion():
    M, k, l = 8, 1, 1
    mesh = build_symmetric_mesh(M)
    lam_h = 4.0 * M**2 * (np.sin(k * np.pi / (2 * M)) ** 2
                          + np.sin(l * np.pi / (2 * M)) ** 2)
    # the interpolated mode is a joint eigenvector: A phi = lam_h D phi
    phi = SingleModeInitialData(k, l).field(mesh).interior()
    A = assemble_stiffness(mesh)
    D = assemble_lumped_mass(mesh)
    assert np.allclose(A.matvec(phi), lam_h * D.matvec(phi), atol=1e-11)

    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=zero_source(),
                          initial_data=SingleModeInitialData(k, l))
    cfg = SchemeConfig(variant="lumped-linearized", N=16, store_full=True)
    traj = step_linearized(cfg, problem, mesh)
    scalar = brute_force_history(lam_h, 1.0, 1.0, 0.5, 1.0, 1.0 / 16, 16)[:, 0]
    got = traj.values[:, mesh.interior_nodes]
    assert np.allclose(got, scalar[:, None] * phi[None, :], atol=1e-12)


def test_snapshot_bookkeeping():
    mesh = build_symmetric_mesh(4)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    traj = step_linearized(SchemeConfig(variant="lumped-linearized", N=250),
                           problem, mesh)
    # default stride ceil(N/100) = 3, first and last always kept
    assert traj.steps[0] == 0 and traj.steps[-1] == 250
    assert 249 in traj.steps and traj.times[-1] == pytest.approx(1.0)
    assert np.allclose(traj.times, traj.steps * traj.tau)
    assert traj.values.shape == (len(traj.steps), mesh.n_nodes)
    assert np.all(traj.values[:, mesh.boundary_mask] == 0.0)

    full = step_linearized(
        SchemeConfig(variant="lumped-linearized", N=5, store_full=True),
        problem, mesh)
    assert np.array_equal(full.steps, np.arange(6))
    fld = full.final()
    assert np.array_equal(fld.values, full.values[-1])
    assert np.array_equal(full.field_at(0).values,
                          problem.initial_data.field(mesh).values)


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(variant="crank-nicolson", N=4)
    with pytest.raises(ValueError):
        SchemeConfig(variant="lumped-linearized", N=0)
    with pytest.raises(ValueError):
        SchemeConfig(variant="lumped-linearized", N=4, cg_tol=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(variant="galerkin-implicit", N=4, picard_maxit=0)
    cfg = SchemeConfig(variant="lumped-linearized", N=4, tau=0.3)
    with pytest.raises(ValueError):
        cfg.resolve_tau(1.0)
    assert SchemeConfig(variant="lumped-linearized", N=4).resolve_tau(2.0) == 0.5


@pytest.mark.parametrize("N", [2.5, 4.0, True, "4"])
def test_config_rejects_non_integer_N(N):
    with pytest.raises(ValueError, match="N must be a positive integer"):
        SchemeConfig(variant="lumped-linearized", N=N)


@pytest.mark.parametrize("stride", [-3, 0, 2.5, True, "2"])
def test_config_rejects_bad_snapshot_stride(stride):
    with pytest.raises(ValueError, match="snapshot_stride"):
        SchemeConfig(variant="lumped-linearized", N=10, snapshot_stride=stride)


@pytest.mark.parametrize("lumping", ["false", "true", 0, 1, None])
def test_config_rejects_non_bool_source_lumping(lumping):
    with pytest.raises(ValueError, match="source_lumping"):
        SchemeConfig(variant="lumped-linearized", N=10, source_lumping=lumping)


def test_config_accepts_integer_stride_and_bool_lumping():
    assert SchemeConfig(variant="lumped-linearized", N=np.int64(10)).N == 10
    for stride in (None, 1, 3, np.int64(4)):
        SchemeConfig(variant="lumped-linearized", N=10, snapshot_stride=stride)
    for lumping in (False, True, np.bool_(True)):
        SchemeConfig(variant="lumped-linearized", N=10, source_lumping=lumping)


def test_variant_dispatch_guards():
    mesh = build_symmetric_mesh(2)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    with pytest.raises(ValueError):
        step_linearized(SchemeConfig(variant="galerkin-implicit", N=2), problem, mesh)
    with pytest.raises(ValueError):
        step_implicit(SchemeConfig(variant="lumped-linearized", N=2), problem, mesh)


def test_implicit_equals_linearized_for_zero_source():
    mesh = build_symmetric_mesh(6)
    kw = dict(alpha=0.3, gamma=2.0, T=1.0, initial_data=CaseAInitialData())
    lin = step_linearized(
        SchemeConfig(variant="galerkin-linearized", N=8, store_full=True),
        ProblemSpec(nonlinearity=zero_source(), **kw), mesh)
    imp = step_implicit(
        SchemeConfig(variant="galerkin-implicit", N=8, store_full=True),
        ProblemSpec(nonlinearity=zero_source(), **kw), mesh)
    assert np.allclose(lin.values, imp.values, atol=1e-12)


def test_implicit_linearized_gap_shrinks_first_order():
    mesh = build_symmetric_mesh(8)
    gaps = []
    for N in (8, 16, 32):
        kw = dict(alpha=0.5, gamma=1.0, T=1.0, initial_data=CaseAInitialData(),
                  nonlinearity=sqrt_one_plus_u2())
        lin = step_linearized(
            SchemeConfig(variant="galerkin-linearized", N=N), ProblemSpec(**kw), mesh)
        imp = step_implicit(
            SchemeConfig(variant="galerkin-implicit", N=N), ProblemSpec(**kw), mesh)
        gaps.append(l2_norm(mesh, lin.final().values - imp.final().values))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.5)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.5)


def test_implicit_picard_failure_raises_after_warning():
    mesh = build_symmetric_mesh(4)
    stiff = Nonlinearity(fn=lambda u: 400.0 * u, lipschitz=400.0, name="stiff")
    problem = ProblemSpec(alpha=0.25, gamma=1.0, T=1.0,
                          nonlinearity=stiff, initial_data=CaseAInitialData())
    cfg = SchemeConfig(variant="galerkin-implicit", N=100)
    with pytest.warns(RuntimeWarning, match="may not contract"):
        with pytest.raises((PicardConvergenceError, DivergedError)):
            step_implicit(cfg, problem, mesh)


def test_trajectory_stays_bounded():
    # f has linear growth at most, so a short run cannot blow up
    mesh = build_symmetric_mesh(8)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    traj = step_linearized(
        SchemeConfig(variant="lumped-linearized", N=20, store_full=True),
        problem, mesh)
    u0_norm = l2_norm(mesh, traj.values[0])
    norms = [l2_norm(mesh, v) for v in traj.values]
    assert max(norms) <= u0_norm + 2.0 * problem.T


@settings(max_examples=30)
@given(beta=st.floats(0.05, 0.95), N=st.integers(_SOE_NEAR + 1, 100_000))
def test_soe_tail_weights_match_exact_and_recursion(beta, N):
    mpmath = pytest.importorskip("mpmath")
    s, w = _soe_tail(beta, N)

    def soe(lags):
        return np.exp(-np.outer(lags, s)) @ w

    lags = np.unique(np.concatenate([
        np.arange(_SOE_NEAR, min(N, 4 * _SOE_NEAR) + 1),
        np.geomspace(_SOE_NEAR, N, 400).round().astype(int), [N]]))
    q = cq_weights(beta, N).q
    assert np.max(np.abs(soe(lags) / q[lags] - 1.0)) <= 5e-12

    sampled = np.unique(np.geomspace(_SOE_NEAR, N, 12).round().astype(int))
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        exact = np.array([float(mpmath.exp(mpmath.loggamma(j + b) - mpmath.loggamma(b)
                                           - mpmath.loggamma(j + 1)))
                          for j in sampled])
    assert np.max(np.abs(soe(sampled) / exact - 1.0)) <= 1e-13


def stepper_inputs(mesh, problem, variant):
    A = assemble_stiffness(mesh)
    W = (assemble_lumped_mass(mesh) if variant == "lumped-linearized"
         else assemble_mass(mesh))
    source = _source_builder(mesh, problem, False)
    u0 = problem.initial_data.field(mesh).interior()
    return A, W, u0, source


@pytest.mark.parametrize("variant,N", [("lumped-linearized", 2000),
                                       ("galerkin-implicit", 300)])
def test_long_run_matches_direct_history_sum(variant, N):
    mesh = build_symmetric_mesh(8)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    A, W, u0, source = stepper_inputs(mesh, problem, variant)
    args = (A, W, u0, problem.alpha, problem.gamma, 1.0 / N, N)
    if variant == "galerkin-implicit":
        kw = dict(source_of_prev=None, implicit_source=source)
    else:
        kw = dict(source_of_prev=source)
    got = _advance(*args, steps=np.arange(N + 1), **kw)
    ref = direct_sum_advance(*args, **kw)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_history_memory_does_not_grow_with_steps():
    mesh = build_symmetric_mesh(16)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    peaks = []
    for N in (2000, 20000):
        config = SchemeConfig(variant="lumped-linearized", N=N)
        tracemalloc.start()
        try:
            step_linearized(config, problem, mesh)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


FAMILIES = {"symmetric": build_symmetric_mesh, "nonsymmetric": build_nonsymmetric_mesh}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_step_matrix_is_exactly_symmetric(family, mass):
    # the steppers solve B^T x = b in place of B x = b; factorize() makes B
    # symmetric as (B + B^T)/2, which leaves the assembled B bitwise unchanged
    # only if B is symmetric bit for bit already
    mesh = FAMILIES[family](8)
    A = assemble_stiffness(mesh).tocsr()
    W = (assemble_mass(mesh) if mass == "consistent" else assemble_lumped_mass(mesh)).tocsr()
    for B in (A, W, W + 0.37 * A):
        assert abs(B - B.T).max() == 0.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_transposed_solve_matches_plain_solve(family, mass):
    mesh = FAMILIES[family](16)
    A = assemble_stiffness(mesh)
    W = assemble_mass(mesh) if mass == "consistent" else assemble_lumped_mass(mesh)
    # c = tau + gamma tau^(1-alpha) for tau = 0.01, gamma = 1, alpha = 0.5
    lu = CompositeOperator(W, 0.01 + 0.1, A).factorize()
    b = np.random.default_rng(7).standard_normal(mesh.n_interior)
    plain = lu.solve(b)
    transposed = lu.solve(b, trans="T")
    assert np.linalg.norm(transposed - plain) <= 1e-14 * np.linalg.norm(plain)


def full_vector_source(mesh, problem, lumped):
    """The interior load computed on the full node vector, as
    f(u_h) interpolated everywhere and the interior rows kept."""
    f = problem.nonlinearity
    interior = mesh.interior_nodes
    if lumped:
        diag = assemble_lumped_mass(mesh).values
        return lambda v: diag * f(v)
    M_full = assemble_mass(mesh, full=True)

    def source(v):
        full = np.zeros(mesh.n_nodes)
        full[mesh.boundary_mask] = f(np.zeros(np.count_nonzero(mesh.boundary_mask)))
        full[interior] = f(v)
        return M_full.matvec(full)[interior]

    return source


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("lumped", [False, True])
def test_interior_source_matches_full_vector_source(family, case, lumped):
    mesh = FAMILIES[family](8)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=initial_data_for_case(case))
    v = problem.initial_data.field(mesh).interior()
    got = _source_builder(mesh, problem, lumped)(v)
    want = full_vector_source(mesh, problem, lumped)(v)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("lumped", [False, True])
def test_source_evaluation_calls_f_once(monkeypatch, lumped):
    calls = []
    call = Nonlinearity.__call__

    def counting_call(self, u):
        calls.append(np.shape(u))
        return call(self, u)

    monkeypatch.setattr(Nonlinearity, "__call__", counting_call)
    mesh = build_symmetric_mesh(6)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=CaseAInitialData())
    source = _source_builder(mesh, problem, lumped)
    v = problem.initial_data.field(mesh).interior()
    calls.clear()
    for _ in range(3):
        source(v)
    assert calls == [v.shape] * 3
