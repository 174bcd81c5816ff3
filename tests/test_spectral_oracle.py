import functools
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import binom

from conftest import hand_built_contour, tree_env, use_hand_built_contour
from frstokes import spectral_oracle
from frstokes.cq_time_stepper import _advance
from frstokes.spectral_oracle import (
    _GL_ORDER,
    _LAM_BLOCK,
    _fft_length,
    _gauss_legendre,
    _product_weights,
    ContourResolutionError,
    contour_nodes,
    laplacian_eigenvalue,
    linear_exact_solution,
    mode_response,
    mode_response_many,
    scalar_cq_response,
    smoothing_probe,
)


def direct_scalar_cq(lam, alpha, gamma, T, N, u0=1.0):
    """The scalar CQ recursion with the history sum evaluated directly over
    every past step, O(N^2), on weights from the plain product recursion
    q_j = q_(j-1) (j - 1 + beta) / j."""
    tau = T / N
    beta = 1.0 - alpha
    q = np.empty(N + 1)
    q[0] = 1.0
    for j in range(1, N + 1):
        q[j] = q[j - 1] * (j - 1 + beta) / j
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


@pytest.mark.parametrize("t,nodes_per_ray,match", [
    pytest.param(1.0, 16.5, "nodes_per_ray", id="nodes_per_ray=16.5"),
    pytest.param(1.0, True, "nodes_per_ray", id="nodes_per_ray=True"),
    pytest.param(1.0, "160", "nodes_per_ray", id="nodes_per_ray='160'"),
    pytest.param(1.0, 4, "nodes_per_ray must be an integer >= 8", id="nodes_per_ray=4"),
    pytest.param(0.0, 80, "t must be a finite number > 0", id="t=0"),
])
def test_contour_nodes_rejects_bad_arguments(t, nodes_per_ray, match):
    with pytest.raises(ValueError, match=match):
        contour_nodes(t, nodes_per_ray)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_contour_for_time_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="t must be a finite number"):
        contour_nodes(t)


@pytest.mark.parametrize("args,match", [
    ((1.0, math.nan, 0.5, 1.0), "t must be a finite number"),
    ((1.0, math.inf, 0.5, 1.0), "t must be a finite number"),
    ((1.0, 0.5, 0.5, math.inf), "gamma must be a finite number"),
    ((1.0, 0.5, 0.5, math.nan), "gamma must be a finite number"),
    ((1.0, 0.5, math.nan, 1.0), "alpha"),
    # the ids of this and the next test keep the messages' wording before
    # the rules were shared
    pytest.param((1.0, -0.5, 0.5, 1.0), "t must be a finite number > 0",
                 id="args5-t must be positive"),
])
def test_mode_response_rejects_bad_arguments(args, match):
    with pytest.raises(ValueError, match=match):
        mode_response(*args)


@pytest.mark.parametrize("call", [
    lambda alpha, gamma: mode_response(1.0, 1.0, alpha, gamma),
    lambda alpha, gamma: scalar_cq_response(1.0, alpha, gamma, 1.0, 4),
    lambda alpha, gamma: smoothing_probe(alpha, gamma, 0, [1.0], [1.0]),
], ids=["mode_response", "scalar_cq_response", "smoothing_probe"])
@pytest.mark.parametrize("alpha,gamma,name", [
    ("0.5", 1.0, "alpha"), (None, 1.0, "alpha"), (True, 1.0, "alpha"),
    ([0.5], 1.0, "alpha"), (0.5, "1", "gamma"), (0.5, None, "gamma"),
])
def test_oracle_rejects_non_number_alpha_and_gamma(call, alpha, gamma, name):
    # a string or None alpha used to raise a TypeError from the comparison
    with pytest.raises(ValueError,
                       match=f"^{name} must be a finite number (in \\(0, 1\\)|>= 0), got "):
        call(alpha, gamma)


def test_contour_for_time_scaling():
    # the arc has radius 1/t, and the rays at angle 3 pi / 4 reach out to
    # where |exp(z t)| = 1e-18; the outermost Gauss node sits half a panel
    # (1 - x_max) inside that radius, in log distance
    x_max = leggauss(_GL_ORDER)[0].max()
    for t in (2.0, 0.01):
        z, _ = contour_nodes(t)
        on_arc = np.abs(np.abs(z) - 1.0 / t) <= 1e-14 / t
        assert on_arc.sum() == 80
        assert np.allclose(np.abs(np.angle(z[~on_arc])), 3.0 * np.pi / 4.0,
                           rtol=1e-15, atol=0.0)
        radius = 18.0 * math.log(10.0) / (math.cos(np.pi / 4.0) * t)
        h = math.log(radius * t) / 10  # ten panels per ray
        outermost = math.exp(math.log(radius) - 0.5 * h * (1.0 - x_max))
        assert np.abs(z).max() == pytest.approx(outermost, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("nodes", [
    pytest.param(hand_built_contour(30.0), id="oversized-arc"),
    *(pytest.param(contour_nodes(t), id=f"for_time({t:g})")
      for t in (1e-7, 1e-3, 1.0, 30.0)),
    # 1, 3 and 20 panels per ray, 2, 3 and 20 on the arc
    *(pytest.param(contour_nodes(1.0, n), id=f"nodes_per_ray={n}")
      for n in (8, 24, 160)),
])
def test_contour_nodes_are_conjugate_symmetric(nodes):
    # mode_response_many sums the upper half alone: each lower node must be
    # the conjugate of an upper node, with the conjugate weight
    z, w = nodes
    upper = z.imag > 0
    assert 2 * upper.sum() == z.size
    assert np.all(z.imag != 0.0)
    zu, wu = z[upper], w[upper]
    zl, wl = np.conj(z[~upper]), np.conj(w[~upper])
    partner = np.abs(zu[:, None] - zl[None, :]).argmin(axis=1)
    assert np.array_equal(np.sort(partner), np.arange(zu.size))
    assert np.all(np.abs(zl[partner] - zu) <= 1e-15 * np.abs(zu))
    assert np.all(np.abs(wl[partner] - wu) <= 1e-15 * np.abs(wu))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_contour_inverts_simple_transforms(t):
    # inverse Laplace transforms: 1/z -> 1 and 1/z^2 -> t
    z, w = contour_nodes(t)
    one = (w * np.exp(z * t) / z).sum()
    ramp = (w * np.exp(z * t) / z**2).sum()
    assert one.real == pytest.approx(1.0, abs=1e-13)
    assert ramp.real == pytest.approx(t, abs=1e-13)
    assert abs(one.imag) < 1e-14 and abs(ramp.imag) < 1e-14


def test_mode_response_zero_eigenvalue_is_one():
    for t in (0.01, 0.5, 1.0, 3.0, 30.0):
        assert mode_response(0.0, t, 0.5, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_mode_response_gamma_zero_is_heat_kernel():
    for lam in (1.0, 2.0 * np.pi**2, 100.0):
        for t in (0.1, 1.0):
            got = mode_response(lam, t, 0.5, 0.0)
            assert got == pytest.approx(math.exp(-lam * t), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("t", [5.0, 10.0, 30.0])
def test_mode_response_gamma_zero_is_heat_kernel_at_long_times(t):
    # an arc of radius 1/t keeps |exp(z t)| <= e on it; a unit arc lets it
    # grow like e^t, an error of 1e-11 at t = 10
    for lam in (0.0, 1.0, 2.0 * np.pi**2, 100.0):
        assert abs(mode_response(lam, t, 0.5, 0.0) - math.exp(-lam * t)) <= 1e-14


def reference_mode_response(lams, t, alpha, gamma):
    """sum_k w_k exp(z_k t) / (z_k + lam (1 + gamma z_k^alpha)), the
    contour sum in its direct form, over chunks of eigenvalues."""
    z, w = contour_nodes(t)
    ezt_w = w * np.exp(z * t)
    symbol = 1.0 + gamma * z**alpha
    vals = [(ezt_w / (z + np.multiply.outer(chunk, symbol))).sum(axis=1)
            for chunk in np.array_split(lams, max(1, lams.size // 1024))]
    return np.concatenate(vals).real


@pytest.mark.parametrize("t", [1.0, 1e-3, 1e-5, 1e-7])
def test_mode_response_many_matches_direct_contour_sum(t):
    lams = grid_eigenvalues(128)
    got = mode_response_many(lams, t, 0.5, 1.0)
    want = reference_mode_response(lams, t, 0.5, 1.0)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def complex_pole_sum(lams, t, alpha, gamma):
    """2 Re sum_k r_k / (lam - p_k) over the upper half of the default
    contour, with the division in complex arithmetic, over chunks of
    eigenvalues; raises ValueError("too large") where the kernel must."""
    lams = np.asarray(lams, dtype=float)
    z, w = contour_nodes(t)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = 1.0 + gamma * z**alpha
        if not np.isfinite(lams.max() * np.abs(sigma).max()):
            raise ValueError("too large")
    upper = z.imag > 0
    residues = (w * np.exp(z * t) / sigma)[upper]
    poles = (-z / sigma)[upper]
    vals = np.concatenate([
        2.0 * (residues / np.subtract.outer(chunk, poles)).sum(axis=1).real
        for chunk in np.array_split(lams, max(1, lams.size // 1024))])
    if not np.isfinite(vals).all():
        raise ValueError("too large")
    return vals


@pytest.mark.parametrize("t", [1.0, 1e-3, 1e-5, 1e-7])
def test_real_kernel_matches_complex_pole_sum(t):
    lams = grid_eigenvalues(128)
    got = mode_response_many(lams, t, 0.5, 1.0)
    want = complex_pole_sum(lams, t, 0.5, 1.0)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 5e-16


def kernel_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        if "too large" not in str(err):
            raise
        return "too large"


@settings(max_examples=300)
@example(lam=0.0, t=1e200, alpha=0.5, gamma=1.0)  # |p| ~ 1e-200: p^2 underflows
@example(lam=1e-200, t=1e150, alpha=0.5, gamma=1.0)
@example(lam=1.0, t=1.0, alpha=0.5, gamma=1e200)
@example(lam=1e10, t=1e-300, alpha=0.5, gamma=0.0)  # |p| ~ 1e301: p^2 overflows
@example(lam=1e300, t=1.0, alpha=0.5, gamma=1.0)  # lam^2 overflows
@given(lam=st.floats(0.0, 1e300),
       t=st.floats(1e-7, 30.0),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       gamma=st.floats(0.0, 1e300))
def test_real_kernel_matches_complex_pole_sum_everywhere(lam, t, alpha, gamma):
    got = kernel_or_error(mode_response_many, [lam], t, alpha, gamma)
    want = kernel_or_error(complex_pole_sum, [lam], t, alpha, gamma)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert abs(got[0] - want[0]) <= 1e-14 * (1.0 + abs(want[0]))


@pytest.mark.parametrize("t", [1e-7, 1.0, 30.0])
@pytest.mark.parametrize("gamma", [1.0, 1e3])
def test_real_kernel_keeps_relative_accuracy_at_large_eigenvalues(t, gamma):
    # e_lam ~ 1 / lam here, below any absolute tolerance; the series in
    # 1 / lam that takes every eigenvalue past 2 max|p| must keep it right
    lams = np.array([1e140, 1e150, 1e151, 1e152, 1e200, 1e300])
    got = mode_response_many(lams, t, 0.5, gamma)
    want = complex_pole_sum(lams, t, 0.5, gamma)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def upper_residues_and_poles(t, alpha, gamma):
    """Residues w exp(z t) / sigma and poles -z / sigma, sigma = 1 + gamma
    z^alpha, over the upper half of the default contour."""
    z, w = contour_nodes(t)
    sigma = 1.0 + gamma * z**alpha
    upper = z.imag > 0
    return (w * np.exp(z * t) / sigma)[upper], (-z / sigma)[upper]


@pytest.mark.parametrize("t", [1e-7, 1.0, 30.0])
@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
def test_far_series_matches_complex_pole_sum_at_its_threshold(t, alpha, gamma):
    # past 2 max|p| the kernel sums a series in 1 / lam, just below it the
    # poles.  The terms cancel by up to 4e6 (t = 30, alpha 0.99, gamma
    # 1e-3), where both sums lose digits alike, so the yardstick is the sum
    # of their moduli, 1.3 to 5 times |e_lam| where they do not cancel.
    residues, poles = upper_residues_and_poles(t, alpha, gamma)
    lams = 2.0 * np.abs(poles).max() * np.array([1.0 - 1e-12, 1.0 + 1e-12])
    got = mode_response_many(lams, t, alpha, gamma)
    want = complex_pole_sum(lams, t, alpha, gamma)
    moduli = 2.0 * np.abs(residues / np.subtract.outer(lams, poles)).sum(axis=1)
    assert np.all(np.abs(got - want) <= 1e-14 * moduli)


def test_far_series_matches_complex_pole_sum_on_standing_grid():
    # the grid on which the default contour was shown to be resolved; the
    # eigenvalues below 2 max|p| take the pole sum, unchanged by the series
    lams = np.concatenate([[0.0], np.logspace(-8.0, 16.0, 49)])
    far_count = 0
    for t in (1e-12, 1e-8, 1e-3, 1.0, 100.0, 1e4):
        for alpha in (0.001, 0.01, 0.5, 0.99, 0.999):
            for gamma in (0.0, 1e-6, 1.0, 1e4, 1e6, 1e10):
                _, poles = upper_residues_and_poles(t, alpha, gamma)
                far = lams >= 2.0 * np.abs(poles).max()
                got = mode_response_many(lams[far], t, alpha, gamma)
                want = complex_pole_sum(lams[far], t, alpha, gamma)
                assert np.all(np.abs(got - want) <= 2e-16 * (1.0 + np.abs(want)))
                far_count += far.sum()
    assert far_count > 4000


@pytest.mark.parametrize("lam, t, alpha, gamma", [
    (0.0, 1.3714374429756675e195, 1.9470872587777212e-122, 3.859122743944975e199),
    (0.0, 2.7260283262838753e213, 4.308612536166332e-199, 3.0557234645692486e98),
])
def test_mode_response_many_rejects_underflowing_poles(lam, t, alpha, gamma):
    # the poles -z / sigma fall to zero (first case) or to subnormals whose
    # scaled residues overflow (second): a clear error, and no warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"gamma or t too large.*gamma .*, t "):
            mode_response_many([lam], t, alpha, gamma)


def test_gauss_legendre_rule_is_cached_and_read_only(monkeypatch):
    x, w = _gauss_legendre()
    assert _gauss_legendre()[0] is x and _gauss_legendre()[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 0.0
    fresh = leggauss(_GL_ORDER)
    assert np.array_equal(x, fresh[0]) and np.array_equal(w, fresh[1])
    times = (1e-7, 1e-5, 1e-3, 1.0, 30.0)
    cached = [contour_nodes(t) for t in times]
    # the nodes as built before the cache, on a fresh rule per panel set
    monkeypatch.setattr(spectral_oracle, "_gauss_legendre", lambda: leggauss(_GL_ORDER))
    for t, (z, w) in zip(times, cached):
        z0, w0 = contour_nodes(t)
        assert z.tobytes() == z0.tobytes() and w.tobytes() == w0.tobytes()


def test_gauss_legendre_rule_is_built_on_first_contour():
    probe = ("from frstokes import spectral_oracle as so\n"
             "before = so._gauss_legendre.cache_info().currsize\n"
             "so.mode_response(1.0, 1.0, 0.5, 1.0)\n"
             "print(before, so._gauss_legendre.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=tree_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def refined_contour(monkeypatch, n):
    """Make ``mode_response_many`` sum over ``contour_nodes(t, n)``."""
    monkeypatch.setattr(spectral_oracle, "contour_nodes",
                        functools.partial(contour_nodes, nodes_per_ray=n))


def test_mode_response_self_convergence(monkeypatch):
    lam = 2.0 * np.pi**2
    values = []
    for n in (160, 320):
        refined_contour(monkeypatch, n)
        values.append(mode_response(lam, 1.0, 0.5, 1.0))
    assert abs(values[0] - values[1]) < 1e-14


def test_default_contour_is_resolved_to_rounding(monkeypatch):
    # the default 80 nodes per ray against twice (320) and half (40) as
    # many: the default is converged, and the halved rule stays far inside
    # 1e-10, the margin a halved-rule resolution check would rely on.  At
    # gamma = 0 the kernel is exp(-lam t).  Measured: 2.9e-16, 9.6e-12 and
    # 2.2e-16.
    scattered = np.concatenate([[0.0], np.logspace(-8.0, 16.0, 49)])
    cases = [(scattered, t, alpha, gamma)
             for t in (1e-12, 1e-8, 1e-3, 1.0, 100.0, 1e4)
             for alpha in (0.001, 0.01, 0.5, 0.99, 0.999)
             for gamma in (0.0, 1e-6, 1.0, 1e4, 1e6, 1e10)]
    cases += [(grid_eigenvalues(128), t, 0.5, 1.0) for t in (1.0, 1e-3, 1e-5, 1e-7)]
    for lams, t, alpha, gamma in cases:
        value = mode_response_many(lams, t, alpha, gamma)
        for n, tol in ((320, 2e-15), (40, 1e-10)):
            with monkeypatch.context() as patch:
                refined_contour(patch, n)
                other = mode_response_many(lams, t, alpha, gamma)
            err = np.max(np.abs(other - value) / (1.0 + np.abs(value)))
            assert err <= tol, (n, t, alpha, gamma, err)
        if gamma == 0.0:
            heat = np.exp(-lams * t)
            assert np.all(np.abs(value - heat) <= 1e-15 * (1.0 + np.abs(value))), (t, alpha)


def test_large_eigenvalue_matches_its_asymptote():
    # e_lam(t) ~ t^(alpha-1) E_(alpha,alpha)(-t^alpha / gamma) / (gamma lam)
    # as lam -> oo; at t = 1, alpha = 1/2, gamma = 1 that is
    # (1/sqrt(pi) - e erfc(1)) / lam.  An arc of radius 30, much larger
    # than 1/t, returns -8.8e-5 here.
    want = (1.0 / math.sqrt(math.pi) - math.e * math.erfc(1.0)) / 1e8
    assert mode_response(1e8, 1.0, 0.5, 1.0) == pytest.approx(want, rel=1e-7)


def test_mode_response_stays_in_range_at_long_times():
    # a unit arc, much larger than 1/t, returns -9.3e257 at t = 600 and
    # -2.2e301 at 700
    vals = [mode_response(1.0, t, 0.5, 1.0) for t in (100.0, 600.0, 700.0, 1e4)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("call", [
    lambda: mode_response(1.0, 1.0, 0.5, 1.0, contour=None),
    lambda: mode_response_many([1.0], 1.0, 0.5, 1.0, contour=None),
    lambda: linear_exact_solution([(1, 1, 1.0)], 1.0, 0.5, 1.0, contour=None),
    lambda: mode_response_many([1.0], 1.0, 0.5, 1.0, 80),
    lambda: mode_response_many([1.0], 1.0, 0.5, 1.0, nodes_per_ray=80),
    lambda: smoothing_probe(0.5, 1.0, 0, [1.0], [1.0], nodes_per_ray=80),
], ids=["mode_response", "mode_response_many", "linear_exact_solution", "positional",
        "mode_response_many-nodes_per_ray", "smoothing_probe-nodes_per_ray"])
def test_oracle_takes_no_contour(call):
    with pytest.raises(TypeError):
        call()


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


@st.composite
def eigenvalue_arrays(draw):
    """Up to 3 blocks of eigenvalues with repeats and, maybe, zeros."""
    n = draw(st.integers(1, 3 * _LAM_BLOCK))
    distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = 10.0 ** rng.uniform(-2.0, 6.0, distinct)
    if draw(st.booleans()):
        pool[0] = 0.0
    picks = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)])
    return pool[rng.permutation(picks)]


@settings(max_examples=20, deadline=None)
# eigenvalues below the switch to the series in 1 / lam at 2 max|p| and
# far past it
@example(lams=np.array([0.0, 1e-300, 1.0, 1e150, 1e151, 1e152, 1e300]), t=1e-7)
@example(lams=np.array([0.0, 1e-300, 1.0, 1e150, 1e151, 1e152, 1e300]), t=30.0)
@given(lams=eigenvalue_arrays(), t=st.sampled_from([2.0, 1.0, 1e-3, 1e-7]))
def test_mode_response_many_is_bitwise_single_calls(lams, t):
    batch = mode_response_many(lams, t, 0.5, 1.0)
    single = np.array([mode_response(float(l), t, 0.5, 1.0) for l in lams])
    assert np.array_equal(batch, single)


def test_mode_response_many_checks_every_block(monkeypatch):
    # exp(z t) is ~1e13 on this arc, and lam = 0 leaves a residue of ~1e-5.
    # The guard bounds the rounding for every eigenvalue at once, before
    # the first block, so large eigenvalues, which damp the sum, are
    # refused too, with lam = 0 in the last block and without it
    use_hand_built_contour(monkeypatch, 30.0)
    with pytest.raises(ContourResolutionError, match="smaller arc"):
        mode_response_many([0.0], 1.0, 0.5, 1.0)
    lams = np.full(_LAM_BLOCK + 5, 1e8)
    with pytest.raises(ContourResolutionError):
        mode_response_many(lams, 1.0, 0.5, 1.0)
    lams[-1] = 0.0
    with pytest.raises(ContourResolutionError):
        mode_response_many(lams, 1.0, 0.5, 1.0)


def test_mode_response_many_checks_every_block_of_distinct_values(monkeypatch):
    # the twin of the test above with no repeated eigenvalue, so the
    # evaluation of distinct values would span two blocks
    use_hand_built_contour(monkeypatch, 30.0)
    lams = 1e8 * (1.0 + np.arange(_LAM_BLOCK + 5) / 64.0)
    with pytest.raises(ContourResolutionError):
        mode_response_many(lams, 1.0, 0.5, 1.0)
    lams[-1] = 0.0
    with pytest.raises(ContourResolutionError):
        mode_response_many(lams, 1.0, 0.5, 1.0)


def full_contour_sum(lam, t, alpha, gamma, nodes):
    """sum_k w_k exp(z_k t) / (z_k + lam (1 + gamma z_k^alpha)) over every
    node of the contour, lower half included, as a complex number."""
    z, w = nodes
    return (w * np.exp(z * t) / (z + lam * (1.0 + gamma * z**alpha))).sum()


def test_rounding_check_is_no_looser_than_imaginary_residue(monkeypatch):
    # the full sum's imaginary part is pure rounding; wherever it exceeds
    # the tolerance the half-contour kernel must refuse the value
    flagged = 0
    for delta in (5.0, 10.0, 20.0, 30.0, 40.0):
        use_hand_built_contour(monkeypatch, delta)
        for lam in (0.0, 1.0, 1e2, 1e4, 1e6, 1e8):
            full = full_contour_sum(lam, 1.0, 0.5, 1.0, hand_built_contour(delta))
            if abs(full.imag) > 1e-10 * (1.0 + abs(full.real)):
                flagged += 1
                with pytest.raises(ContourResolutionError, match="smaller arc"):
                    mode_response_many([lam], 1.0, 0.5, 1.0)
    assert flagged > 0


def test_default_contours_pass_rounding_check():
    lams = np.concatenate([[0.0], np.logspace(-2.0, 8.0, 41)])
    for t in np.logspace(-7.0, 2.0, 10):
        vals = mode_response_many(lams, float(t), 0.5, 1.0)
        assert np.all(np.isfinite(vals))


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
    # one unblocked 16129 x 240 complex array alone is 62 MB
    assert peak <= 40e6


def traced_peak(fn):
    fn()  # first call pays one-off costs (imports, caches)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_working_sets():
    # a block of 256 eigenvalues x 240 nodes is 1 MB; the scalar run keeps
    # a few series of about 1e5 coefficients
    lams = grid_eigenvalues(128)
    assert traced_peak(lambda: mode_response_many(lams, 1e-3, 0.5, 1.0)) <= 4e6
    lam = 2.0 * np.pi**2
    assert traced_peak(lambda: scalar_cq_response(lam, 0.5, 1.0, 1.0, N=100_000)) <= 6.5e6


def test_scalar_cq_working_set():
    # a and b of 1e5 + 1 coefficients and the three FFT buffers of the top
    # Newton stage, reused by every stage, are 4.0 MB together
    lam = 2.0 * np.pi**2
    assert traced_peak(lambda: scalar_cq_response(lam, 0.5, 1.0, 1.0, N=100_000)) <= 4.5e6


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
    # same recursion through two implementations: a power-series solve here,
    # a block/sum-of-exponentials history there, and separate weight code
    rng = np.random.default_rng(47)
    A1 = lambda lam: sp.csr_matrix([[lam]])
    for _ in range(5):
        lam = rng.uniform(0.5, 50.0)
        alpha = rng.uniform(0.1, 0.9)
        gamma = rng.uniform(0.1, 3.0)
        N = int(rng.integers(5, 40))
        u = scalar_cq_response(lam, alpha, gamma, 1.0, N)
        hist = _advance(A1(lam), sp.diags([1.0], format="csr"), np.array([1.0]),
                        alpha=alpha, gamma=gamma, tau=1.0 / N, N=N,
                        steps=np.arange(N + 1))
        assert np.allclose(u, hist[:, 0], atol=1e-13)


@settings(max_examples=60)
# odd sizes on the Newton ladder: N = 100 climbs 1, 2, 4, 7, 13, 26, 51, 101
@example(lam=1.0, alpha=0.5, gamma=1.0, T=1.0, N=1, u0=1.0)
@example(lam=10.0, alpha=0.3, gamma=2.0, T=1.0, N=2, u0=1.0)
@example(lam=100.0, alpha=0.7, gamma=0.5, T=2.0, N=64, u0=-1.5)
@example(lam=1e4, alpha=0.5, gamma=1.0, T=1.0, N=100, u0=1.0)
@example(lam=1e8, alpha=0.1, gamma=10.0, T=0.01, N=2999, u0=0.5)
@given(lam=st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda e: 10.0**e)),
       alpha=st.floats(0.05, 0.95), gamma=st.floats(0.0, 10.0),
       T=st.floats(0.01, 10.0), N=st.integers(1, 3000),
       u0=st.floats(-2.0, 2.0))
def test_scalar_cq_matches_direct_sum(lam, alpha, gamma, T, N, u0):
    got = scalar_cq_response(lam, alpha, gamma, T, N, u0)
    want = direct_scalar_cq(lam, alpha, gamma, T, N, u0)
    assert got.shape == (N + 1,)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_fft_length_is_the_smallest_5_smooth_length():
    smooth = sorted(2**i * 3**j * 5**k for i in range(14) for j in range(9)
                    for k in range(6))
    for n in range(1, 5001):
        assert _fft_length(n) == next(L for L in smooth if L >= n), n


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
def test_product_weights_match_binomials(beta):
    # scipy's binomial is accurate for small j (1.9e-16 up to j = 20) and
    # drifts to 8e-12 by j ~ 2500, so it is the reference only up to 50
    j = np.arange(51)
    want = (-1.0) ** j * binom(-beta, j)
    assert np.allclose(_product_weights(beta, 50), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
def test_product_weights_match_gamma_ratio_asymptotics(beta):
    # q_j = Gamma(j + beta) / (Gamma(beta) Gamma(j + 1))
    #     = j^(beta-1) / Gamma(beta) (1 + c1 / j + c2 / j^2 + O(j^-3)),
    # the O(j^-3) term below 1e-15 relative at j >= 1e5
    c1 = beta * (beta - 1.0) / 2.0
    c2 = beta * (beta - 1.0) * (beta - 2.0) * (3.0 * beta - 1.0) / 24.0
    q = _product_weights(beta, 200_000)
    for j in (100_000, 200_000):
        want = j ** (beta - 1.0) / math.gamma(beta) * (1.0 + c1 / j + c2 / j**2)
        assert abs(q[j] - want) <= 1e-13 * want


@pytest.mark.parametrize("args,match", [
    ((20.0, 1.2, 1.0, 1.0, 4), "alpha"),
    ((20.0, 0.0, 1.0, 1.0, 4), "alpha"),
    ((20.0, 0.5, -1.0, 1.0, 4), "gamma"),
    pytest.param((-20.0, 0.5, 1.0, 1.0, 4), "lam must be a finite number >= 0",
                 id="args3-eigenvalue"),
    pytest.param((float("nan"), 0.5, 1.0, 1.0, 4), "lam must be a finite number >= 0",
                 id="args4-eigenvalue"),
    pytest.param((20.0, 0.5, 1.0, -1.0, 4), "T must be a finite number > 0",
                 id="args5-T must be positive"),
    pytest.param((20.0, 0.5, 1.0, 0.0, 4), "T must be a finite number > 0",
                 id="args6-T must be positive"),
    ((20.0, 0.5, 1.0, 1.0, 0), "N must be a positive integer"),
    ((20.0, 0.5, 1.0, 1.0, 4.0), "N must be a positive integer"),
    pytest.param((math.inf, 0.5, 1.0, 1.0, 4), "lam must be a finite number >= 0",
                 id="args9-eigenvalue must be finite"),
    ((20.0, 0.5, math.inf, 1.0, 4), "gamma must be a finite number"),
    ((20.0, 0.5, 1.0, math.inf, 4), "T must be a finite number"),
    ((20.0, 0.5, 1.0, math.nan, 4), "T must be a finite number"),
    ((20.0, 0.5, 1.0, 1.0, 4, math.nan), "u0 must be a finite number"),
    ((20.0, 0.5, 1.0, 1.0, 4, math.inf), "u0 must be a finite number"),
    pytest.param((True, 0.5, 1.0, 1.0, 4), "lam must be a finite number >= 0, got True",
                 id="args15-got lam=True"),
    pytest.param(("1", 0.5, 1.0, 1.0, 4), "lam must be a finite number >= 0, got '1'",
                 id="args16-got lam='1'"),
    pytest.param((1 + 0j, 0.5, 1.0, 1.0, 4),
                 "lam must be a finite number >= 0, got \\(1\\+0j\\)",
                 id="args17-got lam=\\(1\\+0j\\)"),
    ((20.0, 0.5, 1.0, 1.0, True), "N must be a positive integer, got True"),
    ((20.0, 0.5, 1.0, 1.0, np.True_), "N must be a positive integer"),
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
