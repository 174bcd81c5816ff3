"""Backward-Euler convolution-quadrature time stepping.

The fully discrete schemes advance the interior coefficient vector U^n of
the semilinear problem

    d_t u - (1 + gamma d_t^alpha) Lap u = f(u),  u(0) = u_0,

using the expanded update (W is the consistent or lumped mass matrix, A the
stiffness matrix, c = tau + gamma tau^(1-alpha)):

    (W + c A) U^n = W U^0
                    - A (tau * sum_{j<n} U^j
                         + gamma tau^(1-alpha) * sum_{j<n} q_{n-j}^{(1-alpha)} U^j)
                    + tau * (source sum),

where q_j^{(beta)} are the Taylor coefficients of (1-zeta)^(-beta).  The
linearized scheme sums f over the previous iterates, the implicit scheme
includes f(U^n) and resolves it by Picard iteration.

The step matrix W + c A is the same for every step of a run, so it is
factored once (sparse LU, :meth:`CompositeOperator.factorize`) and each
step, and each Picard iterate, is a pair of triangular solves.

The fractional history sum_{j<n} q_{n-j} U^j is split in two.  The last
n0 to n0 + B - 1 states (n0 = B = 32) form an exact near field over a
rolling window of n0 + B states.  Older states enter through a sum of
exponentials, q_j ~ sum_k w_k exp(-s_k j) for n0 <= j <= N (about 140
terms at N = 5000, relative error near 1e-15), a quadrature of the
integral representation of the weights.  Every B steps the B states that
leave the window are folded into P accumulated vectors with one matrix
product, and a second product gives the tail terms of the next B steps.
A run costs O(N P ndof) time instead of O(N^2 ndof), and holds
O((n0 + B + P) ndof) history plus the snapshots it returns.  Runs with
N < n0 + B never fold and use the direct sum.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .fem_assembly import NodalField, ProblemSpec, mesh_operator
from .mesh import TriMesh
from .sparse_linalg import CompositeOperator

__all__ = [
    "CQWeights",
    "cq_weights",
    "cq_fractional_integral",
    "SchemeConfig",
    "Trajectory",
    "DivergedError",
    "PicardConvergenceError",
    "step_linearized",
    "step_implicit",
]

VARIANTS = ("galerkin-linearized", "lumped-linearized", "galerkin-implicit")


class DivergedError(RuntimeError):
    """A step produced non-finite values."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"solution diverged (non-finite values) at step {step}")


class PicardConvergenceError(RuntimeError):
    """The implicit inner iteration failed to contract."""

    def __init__(self, step: int, iterations: int, increment: float):
        self.step = step
        self.iterations = iterations
        self.increment = increment
        super().__init__(
            f"picard iteration at step {step} did not converge within "
            f"{iterations} iterations (last increment {increment:.3e})"
        )


@dataclass(frozen=True)
class CQWeights:
    """Coefficients q_j^{(beta)} of (1-zeta)^(-beta), j = 0..N."""

    beta: float
    q: npt.NDArray[np.float64]


def cq_weights(beta: float, N: int) -> CQWeights:
    """Weights via the stable recursion q_0 = 1, q_j = q_{j-1} (j-1+beta)/j."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    j = np.arange(1, N + 1)
    q = np.cumprod(np.concatenate([[1.0], (j - 1 + beta) / j]))
    q.setflags(write=False)
    return CQWeights(beta, q)


def cq_fractional_integral(samples, beta: float, tau: float) -> float:
    """Backward-Euler CQ value tau^beta * sum_j q_{n-j}^{(beta)} phi(t_j).

    ``samples`` holds phi(t_0), ..., phi(t_n); all n+1 samples carry
    weight, matching the convolution sums used by the stepping schemes.
    """
    phi = np.asarray(samples, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError("samples must be a nonempty 1-d array")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    q = cq_weights(beta, phi.size - 1).q
    return float(tau**beta * q[::-1].dot(phi))


def _require_bool(name: str, value) -> None:
    """Reject anything but a bool, such as the string "false"."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _is_count(value) -> bool:
    """True for an integer >= 1 that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices for one run.

    ``source_lumping`` (a bool) switches the nonlinear load from the
    consistent reading M f(U) to the vertex-quadrature reading D f(U).
    Snapshots are kept every ``snapshot_stride`` steps (None, the default,
    means ceil(N/100); otherwise an integer >= 1) plus the final step;
    ``store_full`` keeps every step.  The steppers solve each
    step directly with a factorization of the step matrix, so ``cg_tol``
    no longer affects the result; it is validated and kept for existing
    callers.
    """

    variant: str
    N: int
    tau: float | None = None
    source_lumping: bool = False
    cg_tol: float = 1e-12
    picard_tol: float = 1e-12
    picard_maxit: int = 50
    snapshot_stride: int | None = None
    store_full: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if not _is_count(self.N):
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if self.cg_tol <= 0 or self.picard_tol <= 0:
            raise ValueError("solver tolerances must be positive")
        if self.picard_maxit < 1:
            raise ValueError("picard_maxit must be at least 1")
        _require_bool("source_lumping", self.source_lumping)
        if self.snapshot_stride is not None and not _is_count(self.snapshot_stride):
            raise ValueError("snapshot_stride must be None or an integer >= 1, "
                             f"got {self.snapshot_stride!r}")

    def resolve_tau(self, T: float) -> float:
        tau = T / self.N if self.tau is None else self.tau
        if abs(tau * self.N - T) > 1e-14 * max(1.0, T):
            raise ValueError(f"tau * N = {tau * self.N} inconsistent with T = {T}")
        return tau


@dataclass(frozen=True)
class Trajectory:
    """Stored snapshots of a run; snapshot 0 is U^0, the last is U^N."""

    mesh: TriMesh
    times: npt.NDArray[np.float64]
    steps: npt.NDArray[np.int64]
    values: npt.NDArray[np.float64]  # (len(times), n_nodes)
    N: int
    tau: float

    def final(self) -> NodalField:
        return NodalField(self.mesh, self.values[-1].copy())

    def field_at(self, i: int) -> NodalField:
        return NodalField(self.mesh, self.values[i].copy())


def _snapshot_steps(N: int, stride: int | None, store_full: bool) -> np.ndarray:
    if store_full:
        return np.arange(N + 1)
    if stride is None:
        stride = max(1, -(-N // 100))
    marks = set(range(0, N + 1, stride))
    marks.update((0, N))
    return np.array(sorted(marks), dtype=np.int64)


# Sum-of-exponentials history: exact near-field lags, fold block size, and
# the quadrature order of every panel of the tail quadrature.  Panels reach
# out to s = _SOE_CUTOFF / _SOE_NEAR, past which exp(-j s) < e^-40 for all
# approximated lags j.
_SOE_NEAR = 32
_SOE_BLOCK = 32
_SOE_ORDER = 10
_SOE_CUTOFF = 40.0


def _soe_tail(beta: float, N: int, n0: int = _SOE_NEAR):
    """Nodes s_k and weights w_k with q_j^{(beta)} ~ sum_k w_k exp(-s_k j).

    Valid for n0 <= j <= N and 0 < beta < 1.  The weights have the
    representation

        q_j = (sin(pi beta) / pi) int_0^inf e^{-(j+beta)s} (1-e^{-s})^{-beta} ds,

    discretized by Gauss-Jacobi with weight s^-beta on [0, 1/N] and dyadic
    Gauss-Legendre panels from 1/N up to 40/n0.
    """
    # Golub-Welsch for the Jacobi weight (1+x)^b on [-1, 1], b = -beta.
    b = -beta
    k = np.arange(_SOE_ORDER, dtype=float)
    diag = b * b / ((2 * k + b) * (2 * k + b + 2))
    k = k[1:]
    off = 2 * k * (k + b) / ((2 * k + b) * np.sqrt((2 * k + b) ** 2 - 1))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (1 + b) / (1 + b)
    # s = (1+x)/(2N); the rule's s^-beta is folded back into the weight.
    nodes = [(1 + x) / (2 * N)]
    quad = [mu0 * vec[0] ** 2 * (1 + x) ** beta / (2 * N)]

    xg, wg = np.polynomial.legendre.leggauss(_SOE_ORDER)
    lo = 1.0 / N
    while lo < _SOE_CUTOFF / n0:
        nodes.append(lo * (1.5 + 0.5 * xg))
        quad.append(0.5 * lo * wg)
        lo *= 2.0
    s = np.concatenate(nodes)
    w = (np.sin(np.pi * beta) / np.pi * np.concatenate(quad)
         * np.exp(-beta * s) * (-np.expm1(-s)) ** -beta)
    return s, w


def _advance(A, W, u0: np.ndarray, alpha: float, gamma: float, tau: float,
             N: int, steps: np.ndarray, source_of_prev, implicit_source=None,
             picard_tol: float = 1e-12, picard_maxit: int = 50) -> np.ndarray:
    """Run the update recursion; returns U^n for each n in ``steps``.

    ``steps`` is a sorted array of step indices in 0..N; the result has one
    row per entry.  ``source_of_prev(V)`` maps an accepted iterate to its
    load vector and feeds the running source sum (linearized scheme).  When
    ``implicit_source`` is given it is evaluated at the current Picard
    iterate and added on top of the running sum each inner solve.
    """
    ndof = u0.size
    out = np.zeros((steps.size, ndof))
    row = {int(n): i for i, n in enumerate(steps)}
    if 0 in row:
        out[row[0]] = u0
    if ndof == 0:
        return out

    near, block = _SOE_NEAR, _SOE_BLOCK
    beta = 1.0 - alpha
    q = cq_weights(beta, min(N, near + block)).q
    frac_scale = gamma * tau ** (1.0 - alpha)
    c = tau + frac_scale
    lu = CompositeOperator(W, c, A).factorize()
    w_u0 = W.matvec(u0)

    # window[i] = U^(first + i); states before `first` live in `folded`,
    # folded[k] = sum_{j < first} exp(-s_k (first - j)) U^j.
    window = np.empty((min(N + 1, near + block), ndof))
    window[0] = u0
    first = 0
    if N >= near + block:
        from scipy.linalg.blas import dgemm

        s, w = _soe_tail(beta, N, near)
        decay = np.exp(-block * s)[:, None]
        fold = np.exp(-np.outer(s, block - np.arange(block)))
        tail_of = w * np.exp(-np.outer(near + np.arange(block), s))
        folded = np.zeros((s.size, ndof))

    sum_plain = np.zeros(ndof)
    sum_source = np.zeros(ndof)
    if implicit_source is not None:
        # The implicit convolution starts at j = 0 with f(U^0).
        sum_source += implicit_source(u0)

    for n in range(1, N + 1):
        if n - first == near + block:
            # folded = decay * folded + fold @ window[:block], accumulated in
            # place by BLAS (on the transposes, which are Fortran-ordered).
            folded *= decay
            folded = dgemm(1.0, window[:block].T, fold.T, 1.0, folded.T,
                           overwrite_c=True).T
            window[:near] = window[block:]
            first += block
            tail = tail_of @ folded
        lag = n - first
        prev = window[lag - 1]
        sum_plain += prev
        if source_of_prev is not None:
            sum_source += source_of_prev(prev)
        weighted = q[1 : lag + 1][::-1].dot(window[:lag])
        if first:
            weighted += tail[lag - near]
        rhs = w_u0 - A.matvec(tau * sum_plain + frac_scale * weighted) + tau * sum_source

        if implicit_source is None:
            u = lu.solve(rhs)
        else:
            u = 2.0 * prev - window[lag - 2] if n >= 2 else prev
            for _ in range(picard_maxit):
                u_next = lu.solve(rhs + tau * implicit_source(u))
                increment = np.linalg.norm(u_next - u)
                u = u_next
                if not np.all(np.isfinite(u)):
                    raise DivergedError(n)
                if increment <= picard_tol:
                    break
            else:
                raise PicardConvergenceError(n, picard_maxit, increment)
            sum_source += implicit_source(u)

        if not np.all(np.isfinite(u)):
            raise DivergedError(n)
        window[lag] = u
        if n in row:
            out[row[n]] = u
    return out


def _source_builder(mesh: TriMesh, problem: ProblemSpec, lumped: bool,
                    mass_full=None, lumped_interior=None):
    """Interior load of the interpolated source f(u_h).

    The consistent reading applies the full-node mass matrix so that
    boundary nodes, where u_h = 0 and hence f = f(0), still contribute to
    loads on adjacent interior basis functions.
    """
    f = problem.nonlinearity
    if f.lipschitz == 0.0 and f.name == "zero":
        return None
    interior = mesh.interior_nodes
    if lumped:
        diag = (lumped_interior if lumped_interior is not None
                else mesh_operator(mesh, "lumped_mass")).values

        def source(v: np.ndarray) -> np.ndarray:
            return diag * np.asarray(f(v), dtype=float)

        return source

    M_full = mass_full if mass_full is not None else mesh_operator(mesh, "mass", full=True)
    f_boundary = np.zeros(mesh.n_nodes)
    f_boundary[mesh.boundary_mask] = f(np.zeros(np.count_nonzero(mesh.boundary_mask)))

    def source(v: np.ndarray) -> np.ndarray:
        full = f_boundary.copy()
        full[interior] = f(v)
        return M_full.matvec(full)[interior]

    return source


def _package(mesh: TriMesh, rows: np.ndarray, steps: np.ndarray, tau: float,
             N: int) -> Trajectory:
    values = np.zeros((steps.size, mesh.n_nodes))
    values[:, mesh.interior_nodes] = rows
    return Trajectory(mesh=mesh, times=steps * tau, steps=steps,
                      values=values, N=N, tau=tau)


def step_linearized(config: SchemeConfig, problem: ProblemSpec, mesh: TriMesh,
                    A=None, W=None) -> Trajectory:
    """Advance the linearized scheme; the source lags one step behind."""
    if config.variant not in ("galerkin-linearized", "lumped-linearized"):
        raise ValueError(f"step_linearized cannot run variant {config.variant!r}")
    lumped_variant = config.variant == "lumped-linearized"
    tau = config.resolve_tau(problem.T)

    if A is None:
        A = mesh_operator(mesh, "stiffness")
    if W is None:
        W = mesh_operator(mesh, "lumped_mass" if lumped_variant else "mass")
    source = _source_builder(mesh, problem, config.source_lumping,
                             lumped_interior=W if lumped_variant and config.source_lumping else None)

    u0 = problem.initial_data.field(mesh).interior()
    steps = _snapshot_steps(config.N, config.snapshot_stride, config.store_full)
    rows = _advance(A, W, u0, problem.alpha, problem.gamma, tau, config.N,
                    steps, source)
    return _package(mesh, rows, steps, tau, config.N)


def step_implicit(config: SchemeConfig, problem: ProblemSpec, mesh: TriMesh,
                  A=None, W=None) -> Trajectory:
    """Advance the implicit scheme, resolving f(U^n) by Picard iteration.

    Warns up front when tau * Lipschitz(f) >= 1, in which case the inner
    fixed-point map is not guaranteed to contract.
    """
    if config.variant != "galerkin-implicit":
        raise ValueError(f"step_implicit cannot run variant {config.variant!r}")
    tau = config.resolve_tau(problem.T)
    if tau * problem.nonlinearity.lipschitz >= 1.0:
        warnings.warn(
            f"tau * L = {tau * problem.nonlinearity.lipschitz:.3g} >= 1: "
            "the picard iteration may not contract",
            RuntimeWarning,
            stacklevel=2,
        )

    if A is None:
        A = mesh_operator(mesh, "stiffness")
    if W is None:
        W = mesh_operator(mesh, "mass")
    source = _source_builder(mesh, problem, config.source_lumping)

    u0 = problem.initial_data.field(mesh).interior()
    steps = _snapshot_steps(config.N, config.snapshot_stride, config.store_full)
    rows = _advance(A, W, u0, problem.alpha, problem.gamma, tau, config.N,
                    steps, None, implicit_source=source,
                    picard_tol=config.picard_tol,
                    picard_maxit=config.picard_maxit)
    return _package(mesh, rows, steps, tau, config.N)

