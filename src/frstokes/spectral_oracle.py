"""Semi-analytic reference solutions via inverse-Laplace contour quadrature.

For the problem d_t u - (1 + gamma d_t^alpha) Lap u = 0 the coefficient of
an eigenmode with eigenvalue lam evolves as

    e_lam(t) = (1 / 2 pi i) * integral over Gamma of
               exp(z t) / (z + lam + lam gamma z^alpha) dz,

where Gamma is a sectorial contour: two rays at angles +/- theta
(pi/2 < theta < pi) joined by a circular arc of radius delta around the
origin, oriented by increasing imaginary part.  The quadrature uses
Gauss-Legendre panels, geometrically spaced along the rays, which keeps
the corner joints of the contour on panel boundaries and converges to
machine precision at the default node counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContourSpec",
    "ContourResolutionError",
    "symbol_g",
    "mode_response",
    "mode_response_many",
    "scalar_cq_response",
    "linear_exact_solution",
    "smoothing_probe",
]

_GL_ORDER = 8
# exp(z t) below 1e-18 in modulus is dropped when choosing the ray length.
_TRUNC_LOG = 18.0 * np.log(10.0)
# Eigenvalues per block in mode_response_many: bounds the working array to
# _LAM_BLOCK x (contour nodes) complex values, about 8 MB at 480 nodes.
_LAM_BLOCK = 1024


class ContourResolutionError(RuntimeError):
    """The quadrature left a non-negligible imaginary residue."""


@dataclass(frozen=True)
class ContourSpec:
    """Sectorial contour parameters and quadrature resolution."""

    theta: float = 3.0 * np.pi / 4.0
    delta: float = 1.0
    radius: float = 60.0
    nodes_per_ray: int = 160

    def __post_init__(self):
        if not np.pi / 2 < self.theta < np.pi:
            raise ValueError(f"theta must lie in (pi/2, pi), got {self.theta}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.radius <= self.delta:
            raise ValueError("truncation radius must exceed delta")
        if self.nodes_per_ray < _GL_ORDER:
            raise ValueError(f"need at least {_GL_ORDER} nodes per ray")

    @classmethod
    def for_time(cls, t: float, nodes_per_ray: int = 160) -> "ContourSpec":
        """Contour adapted to the evaluation time.

        delta = max(1/t, 1) keeps exp(z t) on the arc of modulus at most e;
        the rays are truncated where |exp(z t)| drops below 1e-18.
        """
        if t <= 0:
            raise ValueError(f"time must be positive, got {t}")
        theta = 3.0 * np.pi / 4.0
        delta = max(1.0 / t, 1.0)
        radius = max(_TRUNC_LOG / (abs(np.cos(theta)) * t), 4.0 * delta)
        return cls(theta=theta, delta=delta, radius=radius,
                   nodes_per_ray=nodes_per_ray)


def _check_alpha_gamma(alpha: float, gamma: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")


def symbol_g(z: complex, alpha: float, gamma: float) -> complex:
    """Laplace symbol g(z) = z / (1 + gamma z^alpha), principal branch."""
    if z == 0:
        raise ValueError("symbol is evaluated away from z = 0")
    _check_alpha_gamma(alpha, gamma)
    z = complex(z)
    return z / (1.0 + gamma * z**alpha)


def _panel_nodes(a: float, b: float, panels: int):
    """Gauss-Legendre nodes/weights on [a, b] split into equal panels."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def contour_nodes(spec: ContourSpec):
    """Quadrature nodes z_k and weights w_k with sum_k w_k F(z_k) ~ the
    contour integral (1/2 pi i) * integral of F over Gamma."""
    panels = max(1, spec.nodes_per_ray // _GL_ORDER)
    s, ws = _panel_nodes(np.log(spec.delta), np.log(spec.radius), panels)
    rho = np.exp(s)
    up = rho * np.exp(1j * spec.theta)
    w_up = ws * up  # dz = e^{i theta} e^s ds

    psi, wpsi = _panel_nodes(-spec.theta, spec.theta, max(2, panels))
    arc = spec.delta * np.exp(1j * psi)
    w_arc = wpsi * 1j * arc  # dz = i delta e^{i psi} dpsi

    # Orientation: up the lower ray, around the arc, out the upper ray.
    z = np.concatenate([np.conj(up), arc, up])
    w = np.concatenate([-np.conj(w_up), w_arc, w_up]) / (2j * np.pi)
    return z, w


def mode_response_many(lams, t: float, alpha: float, gamma: float,
                       contour: ContourSpec | None = None) -> np.ndarray:
    """Vectorized e_lam(t) over an array of eigenvalues (one contour).

    Each distinct eigenvalue is evaluated once (a grid spectrum repeats
    lam_kl = lam_lk) and the values are scattered back.  The distinct
    eigenvalues are taken in blocks of ``_LAM_BLOCK``, so the working array
    is at most ``_LAM_BLOCK`` x (number of nodes) whatever the length of
    ``lams``; each value is the same as a single-eigenvalue call.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all((lams >= 0) & (lams < np.inf)):
        raise ValueError("eigenvalues must be finite and nonnegative")
    _check_alpha_gamma(alpha, gamma)
    distinct, where = np.unique(lams, return_inverse=True)
    spec = contour if contour is not None else ContourSpec.for_time(t)
    z, w = contour_nodes(spec)
    ezt_w = w * np.exp(z * t)
    symbol = 1.0 + gamma * z**alpha
    vals = np.empty(distinct.shape, dtype=complex)
    # an eigenvalue near the float limit overflows lam * symbol; that is
    # caught below as a non-finite value, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, distinct.size, _LAM_BLOCK):
            block = distinct[start : start + _LAM_BLOCK]
            denom = np.multiply.outer(block, symbol)
            denom += z
            np.divide(ezt_w, denom, out=denom)
            vals[start : start + block.size] = denom.sum(axis=1)
    if not np.isfinite(vals).all():
        raise ValueError("eigenvalue too large for the contour quadrature: "
                         f"the sum overflowed (largest eigenvalue {distinct[-1]:.3e})")
    residue = np.abs(vals.imag)
    bound = 1e-10 * (1.0 + np.abs(vals.real))
    if np.any(residue > bound):
        raise ContourResolutionError(
            f"imaginary residue {residue.max():.3e} exceeds tolerance; "
            "increase the contour resolution"
        )
    return vals.real[where.reshape(lams.shape)]


def mode_response(lam: float, t: float, alpha: float, gamma: float,
                  contour: ContourSpec | None = None) -> float:
    """Mode coefficient e_lam(t); e_0 = 1 and gamma -> 0 gives exp(-lam t)."""
    return float(mode_response_many([lam], t, alpha, gamma, contour)[0])


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
    N + 1 coefficients of b come from Newton doubling b <- b (2 - a b) with
    FFT products, in O(N log N) time and O(N) memory.

    The weights are the binomial form q_j = (-1)^j C(-beta, j), and the
    solve shares nothing with the vector stepper (neither its recursive
    weights nor its sum-of-exponentials history), so this path is an
    independent check of it.
    """
    # Deferred: scipy.special is this module's only use of it and is heavy
    # to load for every process that imports frstokes.
    from scipy.special import binom

    if not lam >= 0:
        raise ValueError(f"eigenvalue must be nonnegative, got {lam}")
    _check_alpha_gamma(alpha, gamma)
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    tau = T / N
    beta = 1.0 - alpha
    j = np.arange(N + 1)
    q = (-1.0) ** j * binom(-beta, j)
    frac_scale = gamma * tau**beta
    c = tau + frac_scale
    a = lam * (tau + frac_scale * q)
    a[0] += 1.0
    b = _series_inverse(a)
    return u0 * (np.cumsum(b) + lam * c * b)


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """First a.size coefficients of the power series 1/a(zeta), a[0] != 0.

    Newton doubling: with b correct to m terms, a b = 1 + O(zeta^m) and
    b (2 - a b) is correct to 2m.  Only the coefficients m..2m-1 of a b are
    needed, and a cyclic product of length 2m leaves them unwrapped.
    """
    n = a.size
    b = np.zeros(1 << (n - 1).bit_length())
    b[0] = 1.0 / a[0]
    m = 1
    while m < n:
        fb = np.fft.rfft(b[:m], 2 * m)
        residual = np.fft.irfft(np.fft.rfft(a[: 2 * m], 2 * m) * fb, 2 * m)[m:]
        b[m : 2 * m] = -np.fft.irfft(np.fft.rfft(residual, 2 * m) * fb, 2 * m)[:m]
        m *= 2
    return b[:n]


def laplacian_eigenvalue(k: int, l: int) -> float:
    """Dirichlet Laplacian eigenvalue (k^2 + l^2) pi^2 on the unit square."""
    return float((k * k + l * l) * np.pi**2)


def linear_exact_solution(modes, t: float, alpha: float, gamma: float,
                          contour: ContourSpec | None = None):
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
    evals = mode_response_many(lams, t, alpha, gamma, contour)
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
                    lam_grid, nodes_per_ray: int = 160) -> float:
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
        spec = ContourSpec.for_time(float(t), nodes_per_ray=nodes_per_ray)
        vals = np.abs(mode_response_many(lams, float(t), alpha, gamma, spec))
        weighted = lams ** (order / 2.0) * vals * float(t) ** ((1.0 - alpha) * order / 2.0)
        best = max(best, float(weighted.max()))
    return best
