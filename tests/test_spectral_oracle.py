import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import binom

from frstokes.cq_time_stepper import _advance
from frstokes.sparse_linalg import DiagMatrix, SparseSymMatrix
from frstokes.spectral_oracle import (
    _LAM_BLOCK,
    ContourResolutionError,
    ContourSpec,
    contour_nodes,
    laplacian_eigenvalue,
    linear_exact_solution,
    mode_response,
    mode_response_many,
    scalar_cq_response,
    smoothing_probe,
    symbol_g,
)


def direct_scalar_cq(lam, alpha, gamma, T, N, u0=1.0):
    """The scalar CQ recursion with the history sum evaluated directly over
    every past step, O(N^2)."""
    tau = T / N
    beta = 1.0 - alpha
    j = np.arange(N + 1)
    q = (-1.0) ** j * binom(-beta, j)
    frac_scale = gamma * tau**beta
    c = tau + frac_scale
    u = np.empty(N + 1)
    u[0] = u0
    plain = 0.0
    for n in range(1, N + 1):
        plain += u[n - 1]
        weighted = q[1 : n + 1][::-1].dot(u[:n])
        u[n] = (u0 - lam * (tau * plain + frac_scale * weighted)) / (1.0 + lam * c)
    return u


def grid_eigenvalues(M):
    """The (M-1)^2 eigenvalues of the 5-point Laplacian on the M-grid."""
    k = np.arange(1, M)
    s2 = np.sin(k * np.pi / (2 * M)) ** 2
    return (4.0 * M * M * (s2[:, None] + s2[None, :])).ravel()


def test_symbol_values():
    assert symbol_g(1.0, 0.5, 0.0) == pytest.approx(1.0)
    assert symbol_g(1.0, 0.5, 3.0) == pytest.approx(0.25)
    z = 1j
    want = z / (1.0 + cmath.exp(0.5j * cmath.pi / 2.0))
    got = symbol_g(z, 0.5, 1.0)
    assert abs(got - want) < 1e-15
    with pytest.raises(ValueError):
        symbol_g(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        symbol_g(1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        symbol_g(1.0, 0.5, -1.0)


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(theta=np.pi / 2)
    with pytest.raises(ValueError):
        ContourSpec(delta=0.0)
    with pytest.raises(ValueError):
        ContourSpec(delta=2.0, radius=1.0)
    with pytest.raises(ValueError):
        ContourSpec(nodes_per_ray=4)
    with pytest.raises(ValueError):
        ContourSpec.for_time(0.0)


def test_contour_for_time_scaling():
    spec = ContourSpec.for_time(2.0)
    assert spec.delta == 1.0  # max(1/t, 1)
    small = ContourSpec.for_time(0.01)
    assert small.delta == 100.0
    want_radius = 18.0 * math.log(10.0) / (abs(math.cos(small.theta)) * 0.01)
    assert small.radius == pytest.approx(want_radius, rel=1e-12)
    assert small.radius > 4.0 * small.delta


def test_contour_nodes_conjugate_symmetric():
    # conjugating a node must map it to another node with conjugated weight,
    # so real transforms produce real values without explicit symmetrization
    z, w = contour_nodes(ContourSpec.for_time(1.0))
    dist = np.abs(z[:, None] - np.conj(z)[None, :])
    partner = dist.argmin(axis=1)
    scale = np.abs(z) + 1.0
    assert np.all(dist[np.arange(z.size), partner] < 1e-13 * scale)
    assert np.allclose(w, np.conj(w)[partner], atol=1e-15)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_contour_inverts_simple_transforms(t):
    # inverse Laplace transforms: 1/z -> 1 and 1/z^2 -> t
    z, w = contour_nodes(ContourSpec.for_time(t))
    one = (w * np.exp(z * t) / z).sum()
    ramp = (w * np.exp(z * t) / z**2).sum()
    assert one.real == pytest.approx(1.0, abs=1e-13)
    assert ramp.real == pytest.approx(t, abs=1e-13)
    assert abs(one.imag) < 1e-14 and abs(ramp.imag) < 1e-14


def test_mode_response_zero_eigenvalue_is_one():
    for t in (0.01, 0.5, 1.0, 3.0):
        assert mode_response(0.0, t, 0.5, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_mode_response_gamma_zero_is_heat_kernel():
    for lam in (1.0, 2.0 * np.pi**2, 100.0):
        for t in (0.1, 1.0):
            got = mode_response(lam, t, 0.5, 0.0)
            assert got == pytest.approx(math.exp(-lam * t), rel=1e-12, abs=1e-15)


def test_mode_response_self_convergence():
    lam = 2.0 * np.pi**2
    base = mode_response(lam, 1.0, 0.5, 1.0,
                         contour=ContourSpec.for_time(1.0, nodes_per_ray=160))
    fine = mode_response(lam, 1.0, 0.5, 1.0,
                         contour=ContourSpec.for_time(1.0, nodes_per_ray=320))
    assert abs(base - fine) < 1e-14


def test_mode_response_short_time_limit():
    # the kernel starts at 1; at t = 1e-8 the drop is O(lam * t^(1-alpha))
    lam = 2.0 * np.pi**2
    assert mode_response(lam, 1e-8, 0.25, 1.0) == pytest.approx(1.0, abs=1e-3)


def test_mode_response_monotone_decay():
    lam = 2.0 * np.pi**2
    ts = np.linspace(0.05, 1.0, 12)
    vals = np.array([mode_response(lam, float(t), 0.5, 1.0) for t in ts])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    lams = np.array([1.0, 10.0, 100.0, 1e4, 1e6])
    by_lam = mode_response_many(lams, 1.0, 0.5, 1.0)
    assert np.all(np.diff(np.abs(by_lam)) < 0)


def test_mode_response_many_matches_scalar_calls():
    lams = np.array([0.0, 1.0, 2.0 * np.pi**2, 500.0])
    batch = mode_response_many(lams, 0.7, 0.3, 2.0)
    single = [mode_response(float(l), 0.7, 0.3, 2.0) for l in lams]
    assert np.allclose(batch, single, rtol=1e-14)
    with pytest.raises(ValueError):
        mode_response_many([-1.0], 0.7, 0.3, 2.0)
    with pytest.raises(ValueError):
        mode_response_many([1.0], 0.7, 1.2, 2.0)
    with pytest.raises(ValueError):
        mode_response_many([1.0], 0.7, 0.3, -2.0)


def test_mode_response_many_blocks_match_single_calls():
    lams = grid_eigenvalues(64)[: _LAM_BLOCK + 300]
    batch = mode_response_many(lams, 1e-3, 0.5, 1.0)
    single = np.array([mode_response(float(l), 1e-3, 0.5, 1.0) for l in lams])
    assert np.array_equal(batch, single)


def test_mode_response_many_checks_every_block():
    # with this oversized arc, exp(z t) is ~1e13 on the contour: large
    # eigenvalues damp it and pass, lam = 0 leaves a residue of ~1e-5
    spec = ContourSpec(delta=30.0, radius=200.0)
    lams = np.full(_LAM_BLOCK + 5, 1e8)
    mode_response_many(lams, 1.0, 0.5, 1.0, spec)
    lams[-1] = 0.0
    with pytest.raises(ContourResolutionError):
        mode_response_many(lams, 1.0, 0.5, 1.0, spec)


def test_mode_response_many_checks_every_block_of_distinct_values():
    # the twin of the test above with no repeated eigenvalue, so the
    # evaluation of distinct values still spans two blocks
    spec = ContourSpec(delta=30.0, radius=200.0)
    lams = 1e8 * (1.0 + np.arange(_LAM_BLOCK + 5) / 64.0)
    mode_response_many(lams, 1.0, 0.5, 1.0, spec)
    lams[-1] = 0.0
    with pytest.raises(ContourResolutionError):
        mode_response_many(lams, 1.0, 0.5, 1.0, spec)


def test_mode_response_many_scatters_repeated_eigenvalues():
    lams = grid_eigenvalues(32)  # lam_kl = lam_lk: 484 distinct of 961
    vals = mode_response_many(lams, 1e-3, 0.5, 1.0)
    once = {}
    for lam in np.unique(lams)[::37]:
        once[lam] = mode_response(float(lam), 1e-3, 0.5, 1.0)
    for lam, want in once.items():
        assert np.all(vals[lams == lam] == want)
    grid = vals.reshape(31, 31)
    assert np.array_equal(grid, grid.T)
    with pytest.raises(ValueError, match="finite"):
        mode_response_many([1.0, np.inf], 1e-3, 0.5, 1.0)


@pytest.mark.parametrize("t", [1.0, 1e-7])
def test_mode_response_many_rejects_overflowing_eigenvalue(t):
    # lam * (1 + gamma z^alpha) overflows; the sum must not come back as NaN
    with pytest.raises(ValueError, match="too large"):
        mode_response_many([1.0, 1e308], t, 0.5, 1.0)
    assert np.isfinite(mode_response_many([1e300], t, 0.5, 1.0)).all()


def test_mode_response_many_memory_is_bounded_by_block():
    lams = grid_eigenvalues(128)
    tracemalloc.start()
    try:
        mode_response_many(lams, 1e-3, 0.5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked 16129 x 480 complex array alone is 124 MB
    assert peak <= 40e6


def test_scalar_cq_converges_to_contour_value():
    lam = 2.0 * np.pi**2
    exact = mode_response(lam, 1.0, 0.5, 1.0)
    errs = [abs(scalar_cq_response(lam, 0.5, 1.0, 1.0, N)[-1] - exact)
            for N in (2000, 4000)]
    assert errs[0] < 1e-5
    assert errs[1] < errs[0]
    with pytest.raises(ValueError):
        scalar_cq_response(lam, 0.5, 1.0, 1.0, 0)


def test_scalar_cq_matches_matrix_stepper():
    # same recursion through two implementations (binomial vs cumprod weights)
    rng = np.random.default_rng(47)
    A1 = lambda lam: SparseSymMatrix.from_coo(
        np.array([0]), np.array([0]), np.array([lam]), 1)
    for _ in range(5):
        lam = rng.uniform(0.5, 50.0)
        alpha = rng.uniform(0.1, 0.9)
        gamma = rng.uniform(0.1, 3.0)
        N = int(rng.integers(5, 40))
        u = scalar_cq_response(lam, alpha, gamma, 1.0, N)
        hist = _advance(A1(lam), DiagMatrix([1.0]), np.array([1.0]),
                        alpha=alpha, gamma=gamma, tau=1.0 / N, N=N,
                        steps=np.arange(N + 1), source_of_prev=None)
        assert np.allclose(u, hist[:, 0], atol=1e-13)


@settings(max_examples=60)
@given(lam=st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda e: 10.0**e)),
       alpha=st.floats(0.05, 0.95), gamma=st.floats(0.0, 10.0),
       T=st.floats(0.01, 10.0), N=st.integers(1, 3000),
       u0=st.floats(-2.0, 2.0))
def test_scalar_cq_matches_direct_sum(lam, alpha, gamma, T, N, u0):
    got = scalar_cq_response(lam, alpha, gamma, T, N, u0)
    want = direct_scalar_cq(lam, alpha, gamma, T, N, u0)
    assert got.shape == (N + 1,)
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("args,match", [
    ((20.0, 1.2, 1.0, 1.0, 4), "alpha"),
    ((20.0, 0.0, 1.0, 1.0, 4), "alpha"),
    ((20.0, 0.5, -1.0, 1.0, 4), "gamma"),
    ((-20.0, 0.5, 1.0, 1.0, 4), "eigenvalue"),
    ((float("nan"), 0.5, 1.0, 1.0, 4), "eigenvalue"),
    ((20.0, 0.5, 1.0, -1.0, 4), "T must be positive"),
    ((20.0, 0.5, 1.0, 0.0, 4), "T must be positive"),
    ((20.0, 0.5, 1.0, 1.0, 0), "N must be a positive integer"),
    ((20.0, 0.5, 1.0, 1.0, 4.0), "N must be a positive integer"),
])
def test_scalar_cq_rejects_bad_input(args, match):
    with pytest.raises(ValueError, match=match):
        scalar_cq_response(*args)


def test_laplacian_eigenvalues():
    assert laplacian_eigenvalue(1, 1) == pytest.approx(2.0 * np.pi**2, rel=1e-15)
    assert laplacian_eigenvalue(2, 3) == pytest.approx(13.0 * np.pi**2, rel=1e-15)


def test_linear_exact_solution_single_mode():
    t, alpha, gamma = 0.5, 0.5, 1.0
    fn = linear_exact_solution([(1, 1, 0.5)], t, alpha, gamma)
    e = mode_response(laplacian_eigenvalue(1, 1), t, alpha, gamma)
    x = np.array([0.25, 0.5, 0.7])
    y = np.array([0.5, 0.5, 0.2])
    want = e * np.sin(np.pi * x) * np.sin(np.pi * y)  # 2 * 0.5 * e * sin * sin
    assert np.allclose(fn(x, y), want, rtol=1e-13)
    assert fn(0.0, 0.37) == pytest.approx(0.0, abs=1e-15)


def test_linear_exact_solution_superposition():
    t, alpha, gamma = 0.3, 0.4, 0.8
    f1 = linear_exact_solution([(1, 1, 1.0)], t, alpha, gamma)
    f2 = linear_exact_solution([(2, 1, -0.5)], t, alpha, gamma)
    both = linear_exact_solution([(1, 1, 1.0), (2, 1, -0.5)], t, alpha, gamma)
    pts = np.random.default_rng(51).uniform(0, 1, size=(10, 2))
    assert np.allclose(both(pts[:, 0], pts[:, 1]),
                       f1(pts[:, 0], pts[:, 1]) + f2(pts[:, 0], pts[:, 1]),
                       atol=1e-14)
    with pytest.raises(ValueError):
        linear_exact_solution([], t, alpha, gamma)


def test_smoothing_probe_bounds():
    t_grid = np.logspace(-4, 0, 9)
    lam_grid = np.logspace(0, 8, 17)
    c0 = smoothing_probe(0.5, 1.0, 0, t_grid, lam_grid)
    assert c0 <= 1.0 + 1e-8
    for order in (1, 2):
        c = smoothing_probe(0.5, 1.0, order, t_grid, lam_grid)
        assert 0.0 < c < 5.0
    with pytest.raises(ValueError):
        smoothing_probe(0.5, 1.0, 3, t_grid, lam_grid)


def test_contour_resolution_error_is_exported():
    assert issubclass(ContourResolutionError, RuntimeError)
