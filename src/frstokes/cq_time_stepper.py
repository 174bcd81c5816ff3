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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .fem_assembly import (
    NodalField,
    ProblemSpec,
    assemble_lumped_mass,
    assemble_mass,
    assemble_stiffness,
)
from .mesh import TriMesh
from .sparse_linalg import CompositeOperator, SparseSymMatrix

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


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices for one run.

    ``source_lumping`` switches the nonlinear load from the consistent
    reading M f(U) to the vertex-quadrature reading D f(U).  Snapshots are
    kept every ``snapshot_stride`` steps (default ceil(N/100)) plus the
    final step; ``store_full`` keeps every step.  The steppers solve each
    step directly with a factorization of the step matrix, so ``cg_tol``
    no longer affects the result; it is validated and kept for existing
    callers and cache keys.
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
        if self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        if self.cg_tol <= 0 or self.picard_tol <= 0:
            raise ValueError("solver tolerances must be positive")
        if self.picard_maxit < 1:
            raise ValueError("picard_maxit must be at least 1")

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


def _advance(A, W, u0: np.ndarray, alpha: float, gamma: float, tau: float,
             N: int, source_of_prev, implicit_source=None,
             picard_tol: float = 1e-12, picard_maxit: int = 50,
             on_accept=None) -> np.ndarray:
    """Run the update recursion; returns the (N+1, ndof) history.

    ``source_of_prev(V)`` maps an accepted iterate to its load vector and
    feeds the running source sum (linearized scheme).  When
    ``implicit_source`` is given it is evaluated at the current Picard
    iterate and added on top of the running sum each inner solve.
    """
    ndof = u0.size
    history = np.zeros((N + 1, ndof))
    history[0] = u0
    if ndof == 0:
        return history

    q = cq_weights(1.0 - alpha, N).q
    frac_scale = gamma * tau ** (1.0 - alpha)
    c = tau + frac_scale
    lu = CompositeOperator(W, c, A).factorize()
    w_u0 = W.matvec(u0)

    sum_plain = np.zeros(ndof)
    sum_source = np.zeros(ndof)
    if implicit_source is not None:
        # The implicit convolution starts at j = 0 with f(U^0).
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
                if not np.all(np.isfinite(u)):
                    raise DivergedError(n)
                if increment <= picard_tol:
                    break
            else:
                raise PicardConvergenceError(n, picard_maxit, increment)
            sum_source += implicit_source(u)

        if not np.all(np.isfinite(u)):
            raise DivergedError(n)
        history[n] = u
        if on_accept is not None:
            on_accept(n, u)
    return history


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
                else assemble_lumped_mass(mesh)).values

        def source(v: np.ndarray) -> np.ndarray:
            return diag * np.asarray(f(v), dtype=float)

        return source

    M_full = mass_full if mass_full is not None else assemble_mass(mesh, full=True)
    f_boundary = np.zeros(mesh.n_nodes)
    f_boundary[mesh.boundary_mask] = f(np.zeros(np.count_nonzero(mesh.boundary_mask)))

    def source(v: np.ndarray) -> np.ndarray:
        full = f_boundary.copy()
        full[interior] = f(v)
        return M_full.matvec(full)[interior]

    return source


def _package(mesh: TriMesh, history: np.ndarray, tau: float, N: int,
             config: SchemeConfig) -> Trajectory:
    steps = _snapshot_steps(N, config.snapshot_stride, config.store_full)
    interior = mesh.interior_nodes
    values = np.zeros((steps.size, mesh.n_nodes))
    values[:, interior] = history[steps]
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
        A = assemble_stiffness(mesh)
    mass_full = None
    if W is None:
        if lumped_variant:
            W = assemble_lumped_mass(mesh)
        else:
            mass_full = assemble_mass(mesh, full=True)
            W = _interior_mass(mesh, mass_full)
    source = _source_builder(mesh, problem, config.source_lumping,
                             mass_full=mass_full,
                             lumped_interior=W if lumped_variant and config.source_lumping else None)

    u0 = problem.initial_data.field(mesh).interior()
    history = _advance(A, W, u0, problem.alpha, problem.gamma, tau, config.N,
                       source)
    return _package(mesh, history, tau, config.N, config)


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
        A = assemble_stiffness(mesh)
    mass_full = assemble_mass(mesh, full=True)
    if W is None:
        W = _interior_mass(mesh, mass_full)
    source = _source_builder(mesh, problem, config.source_lumping, mass_full=mass_full)

    u0 = problem.initial_data.field(mesh).interior()
    history = _advance(A, W, u0, problem.alpha, problem.gamma, tau, config.N,
                       None, implicit_source=source,
                       picard_tol=config.picard_tol,
                       picard_maxit=config.picard_maxit)
    return _package(mesh, history, tau, config.N, config)


def _interior_mass(mesh: TriMesh, mass_full) -> SparseSymMatrix:
    idx = mesh.interior_nodes
    return SparseSymMatrix(mass_full._csr[idx][:, idx])
