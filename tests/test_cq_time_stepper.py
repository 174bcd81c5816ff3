import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.special import binom

from frstokes import cq_time_stepper
from frstokes.cq_time_stepper import (
    DivergedError,
    PicardConvergenceError,
    SchemeConfig,
    cq_fractional_integral,
    cq_weights,
    step_implicit,
    step_linearized,
    _advance,
    _extrapolate,
    _gauss_legendre,
    _soe_tail,
    _source_builder,
    _PICARD_MAXIT,
    _PICARD_ORDER,
    _PICARD_TOL,
    _SOE_NEAR,
)
from frstokes.fem_assembly import (
    InitialData,
    ProblemSpec,
    Nonlinearity,
    assemble_mass,
    l2_norm,
    mesh_operator,
    sqrt_one_plus_u2,
    zero_source,
)
from frstokes.mesh import build_nonsymmetric_mesh, build_symmetric_mesh
from frstokes.sparse_linalg import CompositeOperator


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


def load_vector(load, v):
    """The interior load S f(v) + b of a ``_source_builder`` load."""
    return load.S @ load.f(v) + load.b


def direct_sum_advance(A, W, u0, alpha, gamma, tau, N, load=None, implicit=False):
    """The stepper with the history sum evaluated directly over every past
    step, O(N^2 ndof); returns the whole (N+1, ndof) history."""
    source = None if load is None else (lambda v: load_vector(load, v))
    lagged, current = (None, source) if implicit else (source, None)
    ndof = u0.size
    history = np.zeros((N + 1, ndof))
    history[0] = u0
    q = cq_weights(1.0 - alpha, N)
    frac_scale = gamma * tau ** (1.0 - alpha)
    lu = CompositeOperator(W, tau + frac_scale, A).factorize()
    w_u0 = W @ u0
    sum_plain = np.zeros(ndof)
    sum_source = np.zeros(ndof)
    if current is not None:
        sum_source += current(u0)
    for n in range(1, N + 1):
        prev = history[n - 1]
        sum_plain += prev
        if lagged is not None:
            sum_source += lagged(prev)
        weighted = q[1 : n + 1][::-1].dot(history[:n])
        rhs = w_u0 - A @ (tau * sum_plain + frac_scale * weighted) + tau * sum_source
        if current is None:
            u = lu.solve(rhs)
        else:
            u = 2.0 * prev - history[n - 2] if n >= 2 else prev
            for _ in range(_PICARD_MAXIT):
                u_next = lu.solve(rhs + tau * current(u))
                increment = np.linalg.norm(u_next - u)
                u = u_next
                if increment <= _PICARD_TOL:
                    break
            sum_source += current(u)
        history[n] = u
    return history


def one_by_one(value):
    return sp.csr_matrix([[float(value)]])


def test_weights_match_binomial_series():
    rng = np.random.default_rng(31)
    for _ in range(12):
        beta = rng.uniform(0.01, 1.99)
        n = int(rng.integers(1, 51))
        q = cq_weights(beta, n)
        j = np.arange(n + 1)
        ref = (-1.0) ** j * binom(-beta, j)
        assert np.allclose(q, ref, rtol=1e-13, atol=0)


def test_weights_unit_beta_and_edge_cases():
    assert np.array_equal(cq_weights(1.0, 6), np.ones(7))
    assert np.array_equal(cq_weights(0.5, 0), [1.0])
    with pytest.raises(ValueError):
        cq_weights(0.0, 4)
    with pytest.raises(ValueError):
        cq_weights(0.5, -1)
    with pytest.raises(ValueError):
        cq_weights(0.5, 4)[0] = 2.0
    # beta must be a finite real > 0 and N an integer >= 0 that is no bool:
    # 2.5 used to give 4 weights, True 2, and beta = inf [1, inf, inf]
    for beta in (float("nan"), float("inf"), -0.5, True, "0.5"):
        with pytest.raises(ValueError, match="beta must be a finite number > 0"):
            cq_weights(beta, 2)
    for N in (2.5, 2.0, True, False, "2"):
        with pytest.raises(ValueError, match="N must be an integer >= 0"):
            cq_weights(0.5, N)
    assert cq_weights(0.5, np.int64(3)).size == 4


def test_weights_partial_sum_identity():
    rng = np.random.default_rng(37)
    for _ in range(10):
        beta = rng.uniform(0.01, 1.99)
        n = int(rng.integers(1, 51))
        q = cq_weights(beta, n)
        q_up = cq_weights(beta + 1.0, n)
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
    # nan and inf used to return nan and inf
    for tau in (float("nan"), float("inf"), -0.1, True):
        with pytest.raises(ValueError, match="tau must be a finite number > 0"):
            cq_fractional_integral([1.0, 2.0], 0.5, tau)
    for beta in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="beta must be a finite number > 0"):
            cq_fractional_integral([1.0, 2.0], beta, 0.1)


def test_scalar_first_step_closed_form():
    # 1x1 system, lam = 1, alpha = 1/2, gamma = 1, tau = 1/2, no source:
    # (1 + tau + sqrt(tau)) U1 = 1 - (tau + sqrt(tau) * q_1), q_1 = 1/2
    hist = _advance(one_by_one(1.0), sp.diags([1.0], format="csr"), np.array([1.0]),
                    alpha=0.5, gamma=1.0, tau=0.5, N=2,
                    steps=np.arange(3))
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
        hist = _advance(one_by_one(lam), sp.diags([1.0], format="csr"), np.array([1.0]),
                        alpha=alpha, gamma=gamma, tau=0.1, N=8,
                        steps=np.arange(9))
        ref = brute_force_history(lam, 1.0, 1.0, alpha, gamma, 0.1, 8)
        assert np.allclose(hist, ref, atol=1e-13)


def variant_matrices(mesh, variant, source_lumping):
    A = mesh_operator(mesh, "stiffness").toarray()
    if variant == "lumped-linearized":
        W = np.diag(mesh_operator(mesh, "lumped_mass").diagonal())
    else:
        idx = mesh.interior_nodes
        W = assemble_mass(mesh).toarray()[np.ix_(idx, idx)]
    if source_lumping:
        diag = mesh_operator(mesh, "lumped_mass").diagonal()

        def f_apply(fv):
            return diag * fv
    else:
        M_full = assemble_mass(mesh).toarray()
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
                          initial_data=InitialData())
    cfg = SchemeConfig(variant=variant, N=6, source_lumping=source_lumping,
                       snapshot_stride=1)
    traj = step_linearized(cfg, problem, mesh)

    A, W, f_apply = variant_matrices(mesh, variant, source_lumping)
    u0 = problem.initial_data.field(mesh)[mesh.interior_nodes]
    f = problem.nonlinearity
    ref = brute_force_history(A, W, u0, problem.alpha, problem.gamma,
                              0.5 / 6, 6, f=f, f_apply=f_apply)
    got = traj.values[:, mesh.interior_nodes]
    assert np.allclose(got, ref, atol=1e-12)


def test_implicit_matches_double_sum_fixed_point(monkeypatch):
    # solve the inner fixed point by brute iteration on top of dense solves
    monkeypatch.setattr(cq_time_stepper, "_PICARD_TOL", 1e-14)
    mesh = build_symmetric_mesh(4)
    problem = ProblemSpec(alpha=0.6, gamma=1.3, T=0.5,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    cfg = SchemeConfig(variant="galerkin-implicit", N=6, snapshot_stride=1)
    traj = step_implicit(cfg, problem, mesh)

    A, W, f_apply = variant_matrices(mesh, "galerkin-implicit", False)
    u0 = problem.initial_data.field(mesh)[mesh.interior_nodes]
    f = problem.nonlinearity
    tau = 0.5 / 6
    q = cq_weights(1.0 - problem.alpha, 6)
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


def count_lu_calls(monkeypatch):
    """Lists that collect the size of every factorization and one entry per
    solve made with it, while ``monkeypatch`` is active."""
    factorizations, solves = [], []
    factorize = CompositeOperator.factorize

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b, **kwargs):
            solves.append(1)
            return self.lu.solve(b, **kwargs)

    def counting_factorize(op):
        factorizations.append(op.A.shape[0])
        return CountingLU(factorize(op))

    monkeypatch.setattr(CompositeOperator, "factorize", counting_factorize)
    return factorizations, solves


def test_implicit_factors_step_matrix_once_per_run(monkeypatch):
    factorizations, solves = count_lu_calls(monkeypatch)
    mesh = build_symmetric_mesh(6)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    N = 8
    step_implicit(SchemeConfig(variant="galerkin-implicit", N=N), problem, mesh)
    assert factorizations == [mesh.n_interior]
    # every step runs several Picard iterates against the one factorization;
    # 34 is the count with the linear start 2 U^(n-1) - U^(n-2)
    assert 2 * N < len(solves) <= 34


def test_extrapolated_start_saves_picard_solves(monkeypatch):
    # the linear start needs about 3 solves per step (604 here), the
    # backward-difference predictor fewer than 2
    factorizations, solves = count_lu_calls(monkeypatch)
    mesh = build_symmetric_mesh(16)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    N = 200
    step_implicit(SchemeConfig(variant="galerkin-implicit", N=N), problem, mesh)
    assert factorizations == [mesh.n_interior]
    assert N <= len(solves) < 2 * N


@pytest.mark.parametrize("p", range(1, _PICARD_ORDER + 3))
def test_extrapolate_reproduces_polynomial_sequences(p):
    # p states of a polynomial of degree <= p - 2 (<= p - 1 for p < 3)
    # predict the next one to rounding, for every degree up to _PICARD_ORDER
    rng = np.random.default_rng(p)
    diff = np.empty((_PICARD_ORDER + 2, 5))
    for degree in range(p if p < 3 else p - 1):
        coef = rng.standard_normal((degree + 1, 5))
        t = 0.3 + 0.05 * np.arange(p + 1)
        seq = np.polynomial.polynomial.polyval(t, coef).T  # (p + 1, 5)
        got = _extrapolate(seq[:p].copy(), diff)
        assert np.allclose(got, seq[p], rtol=0, atol=1e-11 * np.abs(seq).max())


def test_extrapolate_short_histories_give_the_linear_start():
    rng = np.random.default_rng(3)
    diff = np.empty((_PICARD_ORDER + 2, 7))
    states = rng.standard_normal((3, 7))
    assert np.array_equal(_extrapolate(states[:1], diff), states[0])
    for p in (2, 3):
        want = 2.0 * states[p - 1] - states[p - 2]
        assert np.allclose(_extrapolate(states[:p], diff), want, rtol=0, atol=1e-15)


def test_extrapolate_stops_below_the_smallest_difference():
    # four states of a quadratic: the third difference vanishes, so the
    # start is the quadratic's next value; a jump in the oldest state makes
    # the third difference the larger, so the start drops to the linear one
    t = np.arange(5.0)
    seq = (1.0 + 0.1 * t + 0.01 * t ** 2)[:, None]
    diff = np.empty((_PICARD_ORDER + 2, 1))
    assert np.allclose(_extrapolate(seq[:4], diff), seq[4], rtol=0, atol=1e-15)
    seq[0] += 1.0
    assert np.allclose(_extrapolate(seq[:4], diff), 2.0 * seq[3] - seq[2],
                       rtol=0, atol=1e-15)


def test_lumped_single_mode_reduces_to_scalar_recursion():
    M, k, l = 8, 1, 1
    mesh = build_symmetric_mesh(M)
    lam_h = 4.0 * M**2 * (np.sin(k * np.pi / (2 * M)) ** 2
                          + np.sin(l * np.pi / (2 * M)) ** 2)
    # the interpolated mode is a joint eigenvector: A phi = lam_h D phi
    phi = InitialData("mode", k, l).field(mesh)[mesh.interior_nodes]
    A = mesh_operator(mesh, "stiffness")
    D = mesh_operator(mesh, "lumped_mass")
    assert np.allclose(A @ phi, lam_h * (D @ phi), atol=1e-11)

    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=zero_source(),
                          initial_data=InitialData("mode", k, l))
    cfg = SchemeConfig(variant="lumped-linearized", N=16, snapshot_stride=1)
    traj = step_linearized(cfg, problem, mesh)
    scalar = brute_force_history(lam_h, 1.0, 1.0, 0.5, 1.0, 1.0 / 16, 16)[:, 0]
    got = traj.values[:, mesh.interior_nodes]
    assert np.allclose(got, scalar[:, None] * phi[None, :], atol=1e-12)


def test_snapshot_bookkeeping():
    mesh = build_symmetric_mesh(4)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    traj = step_linearized(SchemeConfig(variant="lumped-linearized", N=250),
                           problem, mesh)
    # default stride ceil(N/100) = 3, first and last always kept
    assert traj.steps[0] == 0 and traj.steps[-1] == 250
    assert 249 in traj.steps and traj.times[-1] == pytest.approx(1.0)
    assert np.allclose(traj.times, traj.steps * traj.tau)
    assert traj.values.shape == (len(traj.steps), mesh.n_nodes)
    assert np.all(traj.values[:, mesh.boundary_mask] == 0.0)

    full = step_linearized(
        SchemeConfig(variant="lumped-linearized", N=5, snapshot_stride=1),
        problem, mesh)
    assert np.array_equal(full.steps, np.arange(6))
    fld = full.final()
    assert np.array_equal(fld, full.values[-1])
    assert not np.shares_memory(fld, full.values)  # a fresh copy
    assert np.array_equal(full.values[0],
                          problem.initial_data.field(mesh))


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(variant="crank-nicolson", N=4)
    with pytest.raises(ValueError):
        SchemeConfig(variant="lumped-linearized", N=0)


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
                          initial_data=InitialData())
    with pytest.raises(ValueError):
        step_linearized(SchemeConfig(variant="galerkin-implicit", N=2), problem, mesh)
    with pytest.raises(ValueError):
        step_implicit(SchemeConfig(variant="lumped-linearized", N=2), problem, mesh)


def test_implicit_equals_linearized_for_zero_source():
    mesh = build_symmetric_mesh(6)
    kw = dict(alpha=0.3, gamma=2.0, T=1.0, initial_data=InitialData())
    lin = step_linearized(
        SchemeConfig(variant="galerkin-linearized", N=8, snapshot_stride=1),
        ProblemSpec(nonlinearity=zero_source(), **kw), mesh)
    imp = step_implicit(
        SchemeConfig(variant="galerkin-implicit", N=8, snapshot_stride=1),
        ProblemSpec(nonlinearity=zero_source(), **kw), mesh)
    assert np.allclose(lin.values, imp.values, atol=1e-12)


def test_implicit_linearized_gap_shrinks_first_order():
    mesh = build_symmetric_mesh(8)
    gaps = []
    for N in (8, 16, 32):
        kw = dict(alpha=0.5, gamma=1.0, T=1.0, initial_data=InitialData(),
                  nonlinearity=sqrt_one_plus_u2())
        lin = step_linearized(
            SchemeConfig(variant="galerkin-linearized", N=N), ProblemSpec(**kw), mesh)
        imp = step_implicit(
            SchemeConfig(variant="galerkin-implicit", N=N), ProblemSpec(**kw), mesh)
        gaps.append(l2_norm(mesh, lin.final() - imp.final()))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.5)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.5)


def test_implicit_picard_failure_raises_after_warning():
    mesh = build_symmetric_mesh(4)
    stiff = Nonlinearity(fn=lambda u: 400.0 * u, lipschitz=400.0, name="stiff")
    problem = ProblemSpec(alpha=0.25, gamma=1.0, T=1.0,
                          nonlinearity=stiff, initial_data=InitialData())
    cfg = SchemeConfig(variant="galerkin-implicit", N=100)
    with pytest.warns(RuntimeWarning, match="may not contract"):
        with pytest.raises(PicardConvergenceError) as err:
            step_implicit(cfg, problem, mesh)
    assert err.value.step == 1 and err.value.iterations == _PICARD_MAXIT


def nan_at_call(k):
    """A problem whose f returns NaN on its k-th call, and the list that
    records, per call, whether f received a finite array."""
    finite = []

    def fn(u):
        finite.append(bool(np.isfinite(u).all()))
        return np.full_like(u, np.nan) if len(finite) == k else np.sqrt(1.0 + u * u)

    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=Nonlinearity(fn, 1.0, "nan at call k"),
                          initial_data=InitialData())
    return problem, finite


@pytest.mark.parametrize("variant", ["galerkin-linearized", "lumped-linearized"])
@pytest.mark.parametrize("k", [1, 31, 32, 33, 64, 65])
def test_non_finite_source_stops_the_run_at_its_step(variant, k):
    # the k-th f value loads step k; the state it spoils is rejected before
    # f sees it, on either side of the block starts 32 and 64 (the first
    # fold); the lumped source makes no extra call at the boundary nodes
    problem, finite = nan_at_call(k)
    config = SchemeConfig(variant=variant, N=80, source_lumping=True)
    with pytest.raises(DivergedError) as err:
        step_linearized(config, problem, build_symmetric_mesh(6))
    assert err.value.step == k
    assert finite == [True] * k


@pytest.mark.parametrize("k", [1, 40])
def test_non_finite_source_stops_picard_before_f_sees_it(k):
    problem, finite = nan_at_call(k)
    config = SchemeConfig(variant="galerkin-implicit", N=80, source_lumping=True)
    with pytest.raises(DivergedError) as err:
        step_implicit(config, problem, build_symmetric_mesh(6))
    # a NaN in the running sum of f spoils the first iterate, whose solve
    # follows one more f call on the finite predictor
    assert all(finite) and len(finite) in (k, k + 1)
    if k == 1:
        assert err.value.step == 1


def test_state_whose_square_overflows_is_finite():
    # u.dot(u) overflows for |u| ~ 1e200 (numpy warns); the entries are
    # finite all the same, and the run goes on
    with np.errstate(over="ignore"):
        hist = _advance(one_by_one(1.0), sp.diags([1.0], format="csr"),
                        np.array([1e200]), 0.5, 1.0, 0.01, 70, np.arange(71), None)
    assert np.isfinite(hist).all() and 0 < hist[-1, 0] < 1e200


def test_trajectory_stays_bounded():
    # f has linear growth at most, so a short run cannot blow up
    mesh = build_symmetric_mesh(8)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    traj = step_linearized(
        SchemeConfig(variant="lumped-linearized", N=20, snapshot_stride=1),
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
    q = cq_weights(beta, N)
    assert np.max(np.abs(soe(lags) / q[lags] - 1.0)) <= 5e-12

    sampled = np.unique(np.geomspace(_SOE_NEAR, N, 12).round().astype(int))
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        exact = np.array([float(mpmath.exp(mpmath.loggamma(j + b) - mpmath.loggamma(b)
                                           - mpmath.loggamma(j + 1)))
                          for j in sampled])
    assert np.max(np.abs(soe(sampled) / exact - 1.0)) <= 1e-13


@pytest.mark.parametrize("beta", [0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999])
def test_soe_tail_few_nodes_within_1e14_on_every_lag(beta):
    # one Gauss-Legendre rule in log s: the node count grows like log N,
    # at about half of what dyadic panels of 10 nodes need (80 .. 180)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        b, q, exact = mpmath.mpf(beta), mpmath.mpf(1), [1.0]
        for j in range(1, 100_001):
            q = q * (j - 1 + b) / j
            exact.append(float(q))
    exact = np.array(exact)
    for N, most in ((64, 40), (640, 55), (5000, 75), (100_000, 95)):
        s, w = _soe_tail(beta, N)
        assert s.size <= most, (N, s.size)
        worst = max(np.max(np.abs(np.exp(-np.outer(lags, s)) @ w / exact[lags] - 1.0))
                    for lags in np.array_split(np.arange(_SOE_NEAR, N + 1), 1 + N // 8192))
        assert worst <= 1e-14, (N, worst)


@pytest.mark.parametrize("n", [1, 2, 72, 93])
def test_gauss_legendre_end_weights_are_accurate(n):
    # numpy's leggauss is off by 1.6e-12 (n = 72) and 3.5e-12 (n = 93) in
    # the end weights, which carry the longest lags of the tail rule
    mpmath = pytest.importorskip("mpmath")
    u, w = _gauss_legendre(n)
    assert np.all(np.diff(u) > 0) and u.size == n
    with mpmath.workdps(40):
        for ui, wi in zip(u, w):
            x = 2 * mpmath.mpf(ui) - 1
            for _ in range(3):  # Newton from the double node
                p, p1 = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                dp = n * (x * p - p1) / (x * x - 1)
                x -= p / dp
            assert abs(float(wi * (1 - x * x) * dp * dp) - 1) <= 5e-15, (ui, wi)


def stepper_inputs(mesh, problem, variant):
    A = mesh_operator(mesh, "stiffness")
    W = mesh_operator(mesh, "lumped_mass" if variant == "lumped-linearized" else "mass")
    source = _source_builder(mesh, problem, False)
    u0 = problem.initial_data.field(mesh)[mesh.interior_nodes]
    return A, W, u0, source


@pytest.mark.parametrize("variant,N", [("lumped-linearized", 2000),
                                       ("galerkin-implicit", 300)])
def test_long_run_matches_direct_history_sum(variant, N):
    mesh = build_symmetric_mesh(8)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    A, W, u0, source = stepper_inputs(mesh, problem, variant)
    args = (A, W, u0, problem.alpha, problem.gamma, 1.0 / N, N)
    kw = dict(load=source, implicit=variant == "galerkin-implicit")
    got = _advance(*args, steps=np.arange(N + 1), **kw)
    ref = direct_sum_advance(*args, **kw)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_history_memory_does_not_grow_with_steps():
    mesh = build_symmetric_mesh(16)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
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
    A = mesh_operator(mesh, "stiffness")
    W = mesh_operator(mesh, "mass" if mass == "consistent" else "lumped_mass")
    for B in (A, W, W + 0.37 * A):
        assert abs(B - B.T).max() == 0.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_transposed_solve_matches_plain_solve(family, mass):
    mesh = FAMILIES[family](16)
    A = mesh_operator(mesh, "stiffness")
    W = mesh_operator(mesh, "mass" if mass == "consistent" else "lumped_mass")
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
        diag = mesh_operator(mesh, "lumped_mass").diagonal()
        return lambda v: diag * f(v)
    M_full = assemble_mass(mesh)

    def source(v):
        full = np.zeros(mesh.n_nodes)
        full[mesh.boundary_mask] = f(np.zeros(np.count_nonzero(mesh.boundary_mask)))
        full[interior] = f(v)
        return (M_full @ full)[interior]

    return source


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("lumped", [False, True])
def test_interior_source_matches_full_vector_source(family, case, lumped):
    mesh = FAMILIES[family](8)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData(case))
    v = problem.initial_data.field(mesh)[mesh.interior_nodes]
    got = load_vector(_source_builder(mesh, problem, lumped), v)
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
                          initial_data=InitialData())
    _source_builder(mesh, problem, lumped)
    # the consistent load evaluates f(0) on the boundary once, when built;
    # test_linearized_run_calls_f_once_per_accepted_state counts the rest
    boundary = np.count_nonzero(mesh.boundary_mask)
    assert calls == ([] if lumped else [(boundary,)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("source", ["galerkin", "lumped", "lumped source", "zero"])
def test_rhs_matrix_equals_hstack(monkeypatch, family, source):
    # the K that _advance builds equals [-A | tau S | tau b | W U^0] entry
    # for entry and stores no zeros (the lumped source has b = 0)
    built = []
    hstack = sp.hstack

    def recording_hstack(blocks, **kw):
        built.append(hstack(blocks, **kw))
        return built[-1]

    monkeypatch.setattr(sp, "hstack", recording_hstack)
    mesh = FAMILIES[family](8)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    variant = "lumped-linearized" if source == "lumped" else "galerkin-linearized"
    A, W, u0, _ = stepper_inputs(mesh, problem, variant)
    load = None if source == "zero" else _source_builder(mesh, problem,
                                                         source == "lumped source")
    tau = 0.37
    _advance(A, W, u0, 0.5, 1.0, tau, 1, np.arange(2), load)
    [K] = built
    blocks = [-A.toarray()] + ([] if load is None else
                               [tau * load.S.toarray(), tau * load.b[:, None]])
    assert np.array_equal(K.toarray(), np.hstack(blocks + [(W @ u0)[:, None]]))
    assert np.all(K.data != 0)


BLOCK_BOUNDARY_STEPS = [1, 31, 32, 33, 63, 64, 65, 97, 200]


@pytest.mark.parametrize("N", BLOCK_BOUNDARY_STEPS)
@pytest.mark.parametrize("source", ["consistent", "lumped", "zero", "implicit"])
def test_block_boundaries_match_direct_history_sum(source, N):
    # steps on either side of every block start, with and without a fold
    mesh = build_symmetric_mesh(6)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    variant = "lumped-linearized" if source == "lumped" else "galerkin-linearized"
    A, W, u0, load = stepper_inputs(mesh, problem, variant)
    if source == "lumped":
        load = _source_builder(mesh, problem, True)
    kw = dict(load=None if source == "zero" else load, implicit=source == "implicit")
    args = (A, W, u0, problem.alpha, problem.gamma, 1.0 / N, N)
    got = _advance(*args, steps=np.arange(N + 1), **kw)
    ref = direct_sum_advance(*args, **kw)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [5, 70])
@pytest.mark.parametrize("variant,lumped", [("galerkin-linearized", False),
                                            ("lumped-linearized", True)])
def test_linearized_run_calls_f_once_per_accepted_state(monkeypatch, variant, lumped, N):
    # U^0..U^(N-1) feed the source sum; the consistent load also evaluates f
    # once at the boundary nodes when it is built
    calls = []
    call = Nonlinearity.__call__

    def counting_call(self, u):
        calls.append(np.shape(u))
        return call(self, u)

    monkeypatch.setattr(Nonlinearity, "__call__", counting_call)
    mesh = build_symmetric_mesh(6)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                          nonlinearity=sqrt_one_plus_u2(),
                          initial_data=InitialData())
    step_linearized(SchemeConfig(variant=variant, N=N, source_lumping=lumped),
                    problem, mesh)
    interior = [(mesh.n_interior,)] * N
    boundary = [] if lumped else [(np.count_nonzero(mesh.boundary_mask),)]
    assert calls == boundary + interior
