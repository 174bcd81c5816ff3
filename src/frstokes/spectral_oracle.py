"""Semi-analytic reference solutions via inverse-Laplace contour quadrature.

For the problem d_t u - (1 + gamma d_t^alpha) Lap u = 0 the coefficient of
an eigenmode with eigenvalue lam evolves as

    e_lam(t) = (1 / 2 pi i) * integral over Gamma of
               exp(z t) / (z + lam + lam gamma z^alpha) dz,

where Gamma is a sectorial contour chosen from t alone: two rays at
angles +/- 3 pi / 4 joined by a circular arc of radius 1/t around the
origin, oriented by increasing imaginary part, with the rays cut where
|exp(z t)| falls below 1e-18 (``contour_nodes``).  The quadrature uses
Gauss-Legendre panels, geometrically spaced along the rays, which keeps
the corner joints of the contour on panel boundaries and converges to
machine precision at the default node count.

The lower half of the contour is the mirror image of the upper half, node
for node and weight for weight, and for real lam, gamma and t the
integrand takes conjugate values at conjugate points.  So the sum over the
lower half is the conjugate of the sum over the upper half, and e_lam(t)
is twice the real part of the upper half's sum (Weideman & Trefethen,
"Parabolic and hyperbolic contours for computing the Bromwich integral",
Math. Comp. 76 (2007)).  The imaginary part of the full sum is zero up to
rounding, so it is not computed; the rounding of the sum is bounded
instead (see ``ContourResolutionError``).  The real part is summed in
real arithmetic: with p = a + i b and d = lam - a, each term is
Re(2 r / (lam - p)) = (2 Re r d - 2 Im r b) / (d^2 + b^2).  So that d^2
and b^2 neither overflow nor underflow, the poles and residues are first
divided by a power of two near the largest |p|, which is exact.  Past
twice the largest |p|, the sum over poles is a geometric series in p / lam,
so such an eigenvalue is evaluated as a short polynomial in 1 / lam whose
coefficients are computed once per contour.
"""

from __future__ import annotations

import functools
import math

import numpy as np
# numpy loads fft and polynomial on first attribute access; importing them
# here keeps that cost in the import instead of the first oracle call.
from numpy.fft import irfft, rfft
from numpy.polynomial.legendre import leggauss

from .mesh import _count, _real

__all__ = [
    "ContourResolutionError",
    "mode_response",
    "mode_response_many",
    "scalar_cq_response",
    "laplacian_eigenvalue",
    "linear_exact_solution",
    "smoothing_probe",
]

_GL_ORDER = 8
# Angle of the upper ray of every contour.
_THETA = 3.0 * np.pi / 4.0
# exp(z t) below 1e-18 in modulus is dropped when choosing the ray length.
_TRUNC_LOG = 18.0 * np.log(10.0)
# Nodes per ray of contour_nodes.  Against 320 per ray, 80 stay within
# 2.9e-16 (1 + |e_lam(t)|) for t in {1e-12, 1e-8, 1e-3, 1, 100, 1e4},
# alpha in {0.001, 0.01, 0.5, 0.99, 0.999}, gamma in {0, 1e-6, 1, 1e4,
# 1e6, 1e10} and lam in {0} U 49 log-spaced values in [1e-8, 1e16]; 40
# reach 9.6e-12.
_NODES_PER_RAY = 80
# Eigenvalues below _FAR_RATIO max_k |p_k| are summed pole by pole in
# blocks of this many: that bounds the two working arrays to _LAM_BLOCK x
# (contour nodes / 2) floats each, about 0.5 MB together at 240 nodes, so
# a block stays in cache.
_LAM_BLOCK = 256
# The rounding of a contour sum may reach this fraction of 1 + |e_lam(t)|.
_ROUNDING_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# From lam >= _FAR_RATIO |p_k| on, 1 / (lam - p_k) = sum_j p_k^j / lam^(j+1)
# is a geometric series of ratio at most 1 / _FAR_RATIO.  Its tail after J
# terms is at most _FAR_RATIO^-J / (1 - 1 / _FAR_RATIO) relative to 1 / lam,
# and _FAR_TERMS is the least J that makes this eps / 2 (54 for ratio 2).
_FAR_RATIO = 2.0
_FAR_TERMS = math.ceil(math.log2(2.0 * _FAR_RATIO / (_EPS * (_FAR_RATIO - 1.0)))
                       / math.log2(_FAR_RATIO))


class ContourResolutionError(RuntimeError):
    """The contour sum may lose more than 1e-10 to rounding for some
    eigenvalue.  Checked once per contour, before any eigenvalue is
    evaluated: for every lam >= 0, |lam - p_k| >= n_k, where n_k = |p_k| if
    Re p_k <= 0 and |Im p_k| otherwise, so eps * 2 sum_k |r_k| / n_k over
    the upper half bounds eps * sum_k |r_k / (lam - p_k)| over the full
    contour whatever lam is.  The bound is large when |exp(z t)| is large
    on the contour and its terms cancel, as on an arc much larger than
    1/t; on the contours of ``contour_nodes`` it stays below 3e-16 for t
    in [1e-12, 1e4], alpha in [0.001, 0.999] and gamma in [0, 1e10].  It
    is a cancellation bound, not a test of quadrature resolution: it does
    not see a sum that is computed accurately but has too few nodes.
    """


@functools.cache
def _gauss_legendre():
    """The _GL_ORDER-point Gauss-Legendre rule on [-1, 1], built on first
    use and read-only, since every caller shares the arrays."""
    x, w = leggauss(_GL_ORDER)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_nodes(a: float, b: float, panels: int):
    """Gauss-Legendre nodes/weights on [a, b] split into equal panels."""
    x, w = _gauss_legendre()
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def contour_nodes(t: float, nodes_per_ray: int = _NODES_PER_RAY):
    """Quadrature nodes z_k and weights w_k with sum_k w_k F(z_k) ~ the
    contour integral (1/2 pi i) * integral of F over Gamma, on the contour
    for time t.

    The rays leave the origin at angles +/- theta = 3 pi / 4.  The arc
    radius delta = 1/t keeps exp(z t) on the arc of modulus at most e, and
    the rays are truncated where |exp(z t)| drops below 1e-18, at
    _TRUNC_LOG / (|cos theta| t) = 58.6 / t.  The default 80 nodes per ray
    (ten Gauss-Legendre panels per ray and ten on the arc, 120 nodes in
    the upper half) are converged to rounding (see ``_NODES_PER_RAY``);
    the quadrature error falls geometrically with the node count.  The
    arc may come as close to the origin as it likes: for real lam > 0 the
    denominator z + lam + lam gamma z^alpha has a positive imaginary part
    for 0 < arg z < pi, so it has no zeros in the cut plane.
    """
    t = _real("t", t, "> 0")
    radius = _TRUNC_LOG / (abs(np.cos(_THETA)) * t)
    return _contour(1.0 / t, radius, nodes_per_ray)


def _contour(delta: float, radius: float, nodes_per_ray: int):
    """Nodes and weights of the rays at +/- _THETA from radius delta out to
    ``radius``, joined by the arc of radius delta, with ``nodes_per_ray``
    // _GL_ORDER panels on each ray, geometric in the distance from 0."""
    panels = _count("nodes_per_ray", nodes_per_ray, least=_GL_ORDER) // _GL_ORDER
    s, ws = _panel_nodes(np.log(delta), np.log(radius), panels)
    rho = np.exp(s)
    up = rho * np.exp(1j * _THETA)
    w_up = ws * up  # dz = e^{i theta} e^s ds

    psi, wpsi = _panel_nodes(-_THETA, _THETA, max(2, panels))
    # the panel edges are symmetric about 0 only up to rounding: average
    # each node with its mirror image so that the lower arc is exactly the
    # conjugate of the upper one, as mode_response_many assumes
    psi = 0.5 * (psi - psi[::-1])
    wpsi = 0.5 * (wpsi + wpsi[::-1])
    arc = delta * np.exp(1j * psi)
    w_arc = wpsi * 1j * arc  # dz = i delta e^{i psi} dpsi

    # Orientation: up the lower ray, around the arc, out the upper ray.
    z = np.concatenate([np.conj(up), arc, up])
    w = np.concatenate([-np.conj(w_up), w_arc, w_up]) / (2j * np.pi)
    return z, w


def mode_response_many(lams, t: float, alpha: float, gamma: float) -> np.ndarray:
    """Vectorized e_lam(t) over an array of eigenvalues, on the one contour
    that ``contour_nodes`` builds for t.

    The quadrature is taken in pole form: with sigma_k = 1 + gamma z_k^alpha,
    residues r_k = w_k exp(z_k t) / sigma_k and poles p_k = -z_k / sigma_k,
    computed once per contour, e_lam(t) = sum_k r_k / (lam - p_k).  The
    terms of the lower half of the contour are the conjugates of those of
    the upper half, so only the nodes with Im z_k > 0 are kept and
    e_lam(t) = 2 Re sum_{Im z_k > 0} r_k / (lam - p_k).

    The sum is taken in real arithmetic.  The residues, poles and
    eigenvalues are divided by c = 2^e, where 1 <= max_k |p_k| / c < 2,
    which changes no bits but keeps the squares below in range when t or
    gamma is extreme.  With p_k / c = a_k + i b_k, d = lam / c - a_k,
    rho_k = 2 Re r_k / c and kappa_k = -2 Im r_k b_k / c,

        e_lam(t) = sum_k (rho_k d + kappa_k) / (d^2 + b_k^2).

    An eigenvalue with lam / c >= R max_k |p_k / c| (R = ``_FAR_RATIO``
    = 2) is far: there 1 / (lam - p_k) = sum_j p_k^j / lam^(j+1) converges
    geometrically, and with the real moments
    mu_j = 2 Re sum_k (r_k / c) (p_k / c)^j, computed once per contour,

        e_lam(t) = sum_{j < J} mu_j y^(j+1),    y = c / lam,

    by Horner's rule: J = ``_FAR_TERMS`` = 54 multiply-adds per eigenvalue
    and no division, with a truncation error below eps / 2 relative to
    sum_k |r_k| / lam.  Most of a grid spectrum is far (97.7-100 % of the
    M=128 grid for t in [1e-5, 1] at alpha 0.5, gamma 1), and lam = 1e300
    stays finite.

    Each distinct eigenvalue is evaluated once (a grid spectrum repeats
    lam_kl = lam_lk) and the values are scattered back.  The distinct
    eigenvalues below the far ones are taken in blocks of
    ``_LAM_BLOCK``, so the working arrays are at most ``_LAM_BLOCK`` x
    (number of nodes / 2) whatever the length of ``lams``; each value is
    the same as a single-eigenvalue call.

    Raises ``ValueError`` ("too large") when lam (1 + gamma z^alpha)
    overflows, or when gamma and t are so large that the poles underflow
    or the scaled residues overflow, and ``ContourResolutionError`` when
    the lam-free rounding bound of the contour exceeds 1e-10, before any
    eigenvalue is evaluated.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all((lams >= 0) & (lams < np.inf)):
        raise ValueError("eigenvalues must be finite and nonnegative")
    z, w = contour_nodes(t)
    alpha, gamma = _real("alpha", alpha, "in (0, 1)"), _real("gamma", gamma, ">= 0")
    distinct, where = np.unique(lams, return_inverse=True)
    # lam - p does not overflow where lam * sigma would; such an eigenvalue
    # is still out of the quadrature's range, and so is a gamma for which
    # sigma itself overflows
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = 1.0 + gamma * z**alpha
        in_range = (np.isfinite(sigma).all() and
                    np.isfinite(distinct.max(initial=0.0) * np.abs(sigma).max()))
    if not in_range:
        raise ValueError("eigenvalue or gamma too large for the contour quadrature: "
                         "lam (1 + gamma z^alpha) overflows (largest eigenvalue "
                         f"{distinct.max(initial=0.0):.3e}, gamma {gamma:.3e})")
    upper = z.imag > 0
    poles = (-z / sigma)[upper]
    with np.errstate(over="ignore", invalid="ignore"):
        largest = np.abs(poles).max()
        c = math.ldexp(1.0, math.frexp(largest)[1] - 1)
        residues = (w * np.exp(z * t) / sigma)[upper] / c
        poles /= c
    if not (largest > 0 and np.isfinite(residues).all() and np.isfinite(poles).all()):
        raise ValueError("gamma or t too large for the contour quadrature: the poles "
                         "-z / (1 + gamma z^alpha) underflow or the scaled residues "
                         f"overflow (gamma {gamma:.3e}, t {t:.3e})")
    a = np.ascontiguousarray(poles.real)
    b = np.ascontiguousarray(poles.imag)
    rho = 2.0 * residues.real
    kappa = -2.0 * residues.imag * b
    b2 = b * b
    # For lam >= 0, |lam - p_k| >= |p_k| where Re p_k <= 0 and >= |Im p_k|
    # elsewhere, neither of them zero, so this bounds the rounding of the
    # sum for every eigenvalue at once
    nearest = np.where(a <= 0, np.abs(poles), np.abs(b))
    bound = _EPS * 2.0 * np.sum(np.abs(residues) / nearest)
    if bound > _ROUNDING_TOL:
        raise ContourResolutionError(
            f"rounding bound {bound:.3e} of the contour sum exceeds "
            f"{_ROUNDING_TOL:.0e}: exp(z t) is large on the contour and its "
            "terms cancel; the contour needs a smaller arc")
    with np.errstate(over="ignore"):  # inf takes the far form
        scaled = distinct / c
    reach = np.abs(poles).max()
    n_near = int(np.searchsorted(scaled, _FAR_RATIO * reach))
    vals = np.empty(distinct.shape)
    for start in range(0, n_near, _LAM_BLOCK):
        stop = min(start + _LAM_BLOCK, n_near)
        d = np.subtract.outer(scaled[start:stop], a)
        num = rho * d
        num += kappa
        d *= d
        d += b2  # |lam - p|^2 / c^2
        np.divide(num, d, out=num)
        vals[start:stop] = num.sum(axis=1)
    if n_near < distinct.size:
        # moments mu_j = 2 Re sum_k r_k p_k^j / c^(j+1), and e_lam(t) =
        # sum_j mu_j y^(j+1) in y = c / lam by Horner's rule
        powers = np.empty((_FAR_TERMS, poles.size), dtype=complex)
        powers[0] = residues
        powers[1:] = poles
        np.cumprod(powers, axis=0, out=powers)
        moments = 2.0 * powers.real.sum(axis=1)
        y = c / distinct[n_near:]
        far = np.full(y.shape, moments[-1])
        for mu in moments[-2::-1]:
            far *= y
            far += mu
        far *= y
        vals[n_near:] = far
    if not np.isfinite(vals).all():
        raise ValueError("eigenvalue too large for the contour quadrature: "
                         f"the sum overflowed (largest eigenvalue {distinct[-1]:.3e})")
    return vals[where.reshape(lams.shape)]


def mode_response(lam: float, t: float, alpha: float, gamma: float) -> float:
    """Mode coefficient e_lam(t); e_0 = 1 and gamma -> 0 gives exp(-lam t)."""
    return float(mode_response_many([lam], t, alpha, gamma)[0])


def scalar_cq_response(lam: float, alpha: float, gamma: float, T: float,
                       N: int, u0: float = 1.0) -> np.ndarray:
    """Backward-Euler CQ recursion for the scalar mode equation.

    Solves u' + lam (1 + gamma d_t^alpha) u = 0, u(0) = u0, with the same
    update rule as the matrix schemes but in closed scalar form:

        u_n (1 + lam c) = u_0 - lam (tau * S_n + gamma tau^(1-alpha) * W_n),

    where S_n, W_n are the plain and q^{(1-alpha)}-weighted history sums
    and c = tau + gamma tau^(1-alpha).  Moved to one side, this is the
    lower-triangular Toeplitz system sum_{j<=n} a_{n-j} u_j = u_0 (n >= 1)
    with a_0 = 1 + lam c and a_j = lam (tau + gamma tau^(1-alpha) q_j).
    In generating functions, with sum_j q_j zeta^j = (1 - zeta)^(-beta),

        a(zeta) = 1 + lam tau / (1 - zeta)
                    + lam gamma tau^(1-alpha) (1 - zeta)^(-beta),
        U(zeta) a(zeta) = u_0 (1 / (1 - zeta) + lam c),

    so with b = 1/a, u_n = u_0 (b_0 + ... + b_n + lam c b_n).  The first
    N + 1 coefficients of b come from Newton steps b <- b (2 - a b) over
    the ladder N + 1, ceil((N + 1) / 2), ..., 1, with FFT products of
    5-smooth length, in O(N log N) time and O(N) memory.

    The weights q_j are the Taylor coefficients of (1 - zeta)^(-beta),
    built by their product recursion in place in the array that becomes a
    (see ``_product_weights``), with numpy alone: no SciPy special
    function is used.  Against 50-digit values (beta = 0.25, 0.5, 0.75)
    they are within 6e-15 relative at j = 2468 and 6e-14 at j = 2e5,
    where SciPy's binomial form (-1)^j C(-beta, j) is off by up to 8.1e-12
    and (at j = 1e5) 1.3e-10.  The solve shares nothing with the
    vector stepper (power-series inversion here, block and
    sum-of-exponentials history there) and the weights have their own
    code, so this path is an independent check of it.
    """
    lam = _real("lam", lam, ">= 0")
    alpha, gamma = _real("alpha", alpha, "in (0, 1)"), _real("gamma", gamma, ">= 0")
    T, N, u0 = _real("T", T, "> 0"), _count("N", N), _real("u0", u0)
    tau = T / N
    beta = 1.0 - alpha
    frac_scale = gamma * tau**beta
    c = tau + frac_scale
    # a = lam (tau + frac_scale q), built in place from q
    a = _product_weights(beta, N)
    a *= frac_scale
    a += tau
    a *= lam
    a[0] += 1.0
    b = _series_inverse(a)
    u = np.cumsum(b)
    b *= lam * c
    u += b
    u *= u0
    return u


def _product_weights(beta: float, N: int) -> np.ndarray:
    """q_0..q_N of (1 - zeta)^(-beta) = sum_j q_j zeta^j, in one array.

    q_j = q_(j-1) (1 + (beta - 1) / j): the factors are written over
    0..N in place and multiplied up in place, so the array is the only
    N-sized allocation.
    """
    q = np.arange(N + 1, dtype=float)
    np.divide(beta - 1.0, q[1:], out=q[1:])
    q += 1.0  # q[0] = 0 + 1
    np.cumprod(q, out=q)
    return q


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """First a.size coefficients of the power series 1/a(zeta), a[0] != 0.

    Newton's method over the ladder n, ceil(n/2), ..., 1 taken upwards:
    with b correct to m terms, a b = 1 + O(zeta^m) and b (2 - a b) is
    correct to 2m >= m2, the next size.  Only the coefficients m..m2-1 of
    a b are needed, and of b times the residual only 0..m2-m-1.  A cyclic
    product of length L >= m2 holds them: a b wraps only onto indices
    below m, and b times the residual, of m2 - 1 coefficients, does not
    wrap.  Each stage takes the smallest 5-smooth L >= m2 (101250 rather
    than 131072 at the top stage for n = 100001).
    """
    n = a.size
    ladder = [n]
    while ladder[-1] > 1:
        ladder.append((ladder[-1] + 1) // 2)
    b = np.empty(n)
    b[0] = 1.0 / a[0]
    # every stage transforms into prefixes of the top stage's buffers
    top = _fft_length(n)
    spectra = np.empty((2, top // 2 + 1), dtype=complex)
    signal = np.empty(top)
    m = 1
    for m2 in reversed(ladder[:-1]):
        L = _fft_length(m2)
        fb, prod = spectra[:, : L // 2 + 1]
        rfft(b[:m], L, out=fb)
        rfft(a[:m2], L, out=prod)
        prod *= fb
        residual = irfft(prod, L, out=signal[:L])[m:m2]
        rfft(residual, L, out=prod)
        prod *= fb
        np.negative(irfft(prod, L, out=signal[:L])[: m2 - m], out=b[m:m2])
        m = m2
    return b


def laplacian_eigenvalue(k: int, l: int) -> float:
    """Dirichlet Laplacian eigenvalue (k^2 + l^2) pi^2 on the unit square."""
    return float((k * k + l * l) * np.pi**2)


def linear_exact_solution(modes, t: float, alpha: float, gamma: float):
    """Exact solution of the linear (f = 0) problem for sine-series data.

    ``modes`` is an iterable of (k, l, coefficient) with coefficients taken
    against the orthonormal eigenfunctions phi_kl = 2 sin(k pi x) sin(l pi y).
    Returns a vectorized callable on the closed square.
    """
    modes = [(int(k), int(l), float(c)) for k, l, c in modes]
    if not modes:
        raise ValueError("need at least one mode")
    lams = np.array([laplacian_eigenvalue(k, l) for k, l, _ in modes])
    coeffs = np.array([c for _, _, c in modes])
    evals = mode_response_many(lams, t, alpha, gamma)
    amps = 2.0 * coeffs * evals
    ks = np.array([k for k, _, _ in modes], dtype=float)
    ls = np.array([l for _, l, _ in modes], dtype=float)

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        sx = np.sin(np.multiply.outer(x, ks) * np.pi)
        sy = np.sin(np.multiply.outer(y, ls) * np.pi)
        return (sx * sy).dot(amps)

    return fn


def smoothing_probe(alpha: float, gamma: float, order: int, t_grid,
                    lam_grid) -> float:
    """Empirical constant sup over the grids of
    lam^(order/2) * |e_lam(t)| * t^((1-alpha) order / 2).

    ``order`` is the regularity gap p - q in {0, 1, 2}.  For order 0 the
    probe is just the sup of |e_lam|, expected to stay near 1.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    lams = np.asarray(lam_grid, dtype=float)
    best = 0.0
    for t in np.asarray(t_grid, dtype=float):
        vals = np.abs(mode_response_many(lams, float(t), alpha, gamma))
        weighted = lams ** (order / 2.0) * vals * float(t) ** ((1.0 - alpha) * order / 2.0)
        best = max(best, float(weighted.max()))
    return best
