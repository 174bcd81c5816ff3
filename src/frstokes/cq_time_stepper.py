"""Backward-Euler convolution-quadrature time stepping.

The fully discrete schemes advance the interior coefficient vector U^n of
the semilinear problem

    d_t u - (1 + gamma d_t^alpha) Lap u = f(u),  u(0) = u_0,

using the expanded update (W is the consistent or lumped mass matrix, A the
stiffness matrix, c = tau + gamma tau^(1-alpha)):

    (W + c A) U^n = W U^0 - A sum_{j<n} k_{n-j} U^j + tau * (source sum),

    k_m = tau + gamma tau^(1-alpha) q_m^{(1-alpha)},

where q_j^{(beta)} are the Taylor coefficients of (1-zeta)^(-beta): one
kernel carries both the plain sum of the first-order term and the
fractional sum.  The source sum is sum_{j<n} (S f(U^j) + b), with S the
interior consistent mass (or the lumped diagonal) and b the fixed load of
the boundary nodes, so the stepper carries the running sum g_n =
sum_{j<n} f(U^j) of f values and f runs once per accepted state.  The
linearized scheme uses this right-hand side as it is; the implicit scheme
adds tau (S f(U^n) + b) and resolves it by Picard iteration, to an
increment of at most _PICARD_TOL = 1e-12 within _PICARD_MAXIT = 50
iterates.  Each Picard solve starts from a Newton backward-difference
predictor: the polynomial through the last d + 1 accepted states,
evaluated at the new step, with the degree d <= 7 chosen where the
backward differences of those states stop shrinking (as Adams PECE codes
choose their order).  A smooth trajectory then needs one or two iterates
per step instead of three.

The step matrix W + c A is the same for every step of a run, so it is
factored once (sparse LU, :meth:`CompositeOperator.factorize`) and each
step, and each Picard iterate, is a pair of triangular solves.  The
factored matrix is symmetric bit for bit, so B^T x = b and B x = b have
the same solution; the steppers solve the transposed system
(``lu.solve(b, trans="T")``) because SuperLU's transposed triangular
solves are about 30 % faster on these factors (one right-hand side,
M = 32 to 128, one BLAS thread), and the two solutions differ only by
rounding (below 1e-15 relative).  Besides the solve, a step costs one
CSR product: with K = [-A | tau S | tau b | W U^0] built once per run,

    rhs = K [z_n; g_n; n; 1] = W U^0 - A z_n + tau S g_n + n tau b,

    z_n = sum_{j<n} k_{n-j} U^j

(the implicit scheme puts n + 1 in place of n, which carries the tau b of
its current load; K = [-A | W U^0] and the vector is [z_n; 1] when there
is no source).  K stores no zero entries: its tau b column holds only
the interior nodes next to the boundary, and none for the lumped
source.  A step's state is proven finite by one dot product, u.u, and
scanned entry by entry only when that is not finite.

The history z_n is split in two.  Lags up to n0 = 32 to 63 are exact;
older states enter through a sum of exponentials, k_j ~ sum_k w_k
exp(-s_k j) for n0 < j <= N.  Its nodes are s = 0 with weight tau, which
is exact for the constant part since e^0 = 1, and for the fractional
part a quadrature of the integral representation of the weights: one
Gauss-Legendre rule in log s, 63 nodes at N = 5000 and 81 at N = 1e5
(relative error below 3e-15).  Steps run in blocks of n0 (block b holds
U^(n0 b) .. U^(n0 b + n0 - 1)).  At each block start the stepper holds
the previous block's n0 states and P accumulated vectors, one per node,
and a single matrix product writes the history of all n0 steps of the
block, from every state before it, into the block's own rows.  Each
step then adds its in-block lags (16 on average) with one dot and
overwrites its row with the new state; at the block boundary the
n0 states that leave are folded into the accumulators with one more
matrix product.  A run costs O(N P ndof) time instead of O(N^2 ndof), and
holds O((2 n0 + P) ndof) history plus the snapshots it returns.  Runs
with N < 2 n0 never fold and have no accumulators (P = 0), so they use
the exact kernel throughout.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .fem_assembly import Nonlinearity, ProblemSpec, _zero, mesh_operator
from .mesh import TriMesh, _count, _flag, _gauss_legendre, _is_count, _real
from .sparse_linalg import CompositeOperator

__all__ = [
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


def cq_weights(beta: float, N: int) -> npt.NDArray[np.float64]:
    """Coefficients q_j^{(beta)} of (1-zeta)^(-beta), j = 0..N, as a read-only
    array, via the stable recursion q_0 = 1, q_j = q_{j-1} (j-1+beta)/j."""
    beta = _real("beta", beta, "> 0")
    N = _count("N", N, least=0)
    j = np.arange(1, N + 1)
    q = np.cumprod(np.concatenate([[1.0], (j - 1 + beta) / j]))
    q.setflags(write=False)
    return q


def cq_fractional_integral(samples, beta: float, tau: float) -> float:
    """Backward-Euler CQ value tau^beta * sum_j q_{n-j}^{(beta)} phi(t_j).

    ``samples`` holds phi(t_0), ..., phi(t_n); all n+1 samples carry
    weight, matching the convolution sums used by the stepping schemes.
    """
    phi = np.asarray(samples, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError("samples must be a nonempty 1-d array")
    tau, beta = _real("tau", tau, "> 0"), _real("beta", beta, "> 0")
    q = cq_weights(beta, phi.size - 1)
    return float(tau**beta * q[::-1].dot(phi))


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices for one run.

    The run takes ``N`` uniform steps of tau = T / N up to the problem's
    final time T.  ``source_lumping`` (a bool) switches the nonlinear load
    from the consistent reading M f(U) to the vertex-quadrature reading
    D f(U).  Snapshots are kept every ``snapshot_stride`` steps (None, the
    default, means ceil(N/100); otherwise an integer >= 1, and 1 keeps
    every step) plus the final step.
    """

    variant: str
    N: int
    source_lumping: bool = False
    snapshot_stride: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        for name, check in (("N", _count), ("source_lumping", _flag)):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        if self.snapshot_stride is not None and not _is_count(self.snapshot_stride):
            raise ValueError("snapshot_stride must be None or an integer >= 1, "
                             f"got {self.snapshot_stride!r}")


@dataclass(frozen=True)
class Trajectory:
    """Stored snapshots of a run; snapshot 0 is U^0, the last is U^N."""

    times: npt.NDArray[np.float64]
    steps: npt.NDArray[np.int64]
    values: npt.NDArray[np.float64]  # (len(times), n_nodes)
    N: int
    tau: float

    def final(self) -> npt.NDArray[np.float64]:
        """A fresh copy of U^N, one value per mesh node."""
        return self.values[-1].copy()


def _snapshot_steps(N: int, stride: int | None) -> np.ndarray:
    if stride is None:
        stride = max(1, -(-N // 100))
    marks = set(range(0, N + 1, stride))
    marks.update((0, N))
    return np.array(sorted(marks), dtype=np.int64)


# Sum-of-exponentials history: exact lags and block length, the order of
# the Gauss-Jacobi rule on [0, 1/N], and the Gauss-Legendre nodes per unit
# of log s from there out to s = _SOE_CUTOFF / _SOE_NEAR, past which
# exp(-j s) < e^-40 for all lags j.  Six per unit keep 3e-15 at every N;
# 5.75 reaches 1.2e-14 at N = 123 as beta -> 0.
_SOE_NEAR = 32
_SOE_ORDER = 10
_SOE_PER_UNIT = 6
_SOE_CUTOFF = 40.0
# Highest degree of the polynomial that starts each Picard solve, the
# increment at which an iterate is accepted, and the iterates allowed.
_PICARD_ORDER = 7
_PICARD_TOL = 1e-12
_PICARD_MAXIT = 50


@functools.lru_cache(maxsize=None)
def _difference_matrix(p: int) -> np.ndarray:
    """D with (D @ states)[k] = nabla^k U^(n-1) for states U^(n-p) .. U^(n-1).

    Row k holds the signed binomials (-1)^j C(k, j) of lag j, the weight of
    U^(n-1-j), which sits in row p - 1 - j of ``states``.
    """
    D = np.array([[(-1) ** j * math.comb(k, j) for j in range(p - 1, -1, -1)]
                  for k in range(p)], dtype=float)
    D.setflags(write=False)
    return D


def _extrapolate(states: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Newton backward-difference predictor of U^n from the p rows U^(n-p) ..
    U^(n-1) of ``states``, oldest first; ``diff`` is scratch of >= p rows.

    Returns sum_{k <= d} nabla^k U^(n-1), the value at step n of the degree-d
    polynomial through the last d + 1 states.  With p >= 3 the degree is the
    one just before the smallest ||nabla^(d+1) U^(n-1)||, 1 <= d <= p - 2,
    the order choice of Adams PECE codes: the differences shrink while the
    states look like a polynomial of that degree, and grow once rounding or
    a rough solution dominates.  Fewer states give U^0 (p = 1) and
    2 U^1 - U^0 (p = 2), and p = 3 always gives 2 U^(n-1) - U^(n-2).
    """
    p = states.shape[0]
    diff = diff[:p]
    np.matmul(_difference_matrix(p), states, out=diff)
    d = p - 1
    if p >= 3:
        d = 1 + int(np.argmin(np.einsum("ij,ij->i", diff[2:], diff[2:])))
    return diff[: d + 1].sum(axis=0)


def _soe_tail(beta: float, N: int):
    """Nodes s_k and weights w_k with q_j^{(beta)} ~ sum_k w_k exp(-s_k j).

    Valid for _SOE_NEAR <= j <= N and 0 < beta < 1.  The weights have the
    representation

        q_j = (sin(pi beta) / pi) int_0^inf e^{-(j+beta)s} (1-e^{-s})^{-beta} ds,

    discretized by Gauss-Jacobi with weight s^-beta on [0, 1/N] and one
    Gauss-Legendre rule in y = log(N s) from 1/N up to 40/_SOE_NEAR: the
    integrand is analytic in a strip about the y axis, so the rule converges
    geometrically (63 nodes at N = 5000 and 81 at N = 1e5, within 3e-15).
    """
    # Golub-Welsch for the Jacobi weight (1+x)^b on [-1, 1], b = -beta.
    b = -beta
    k = np.arange(_SOE_ORDER, dtype=float)
    diag = b * b / ((2 * k + b) * (2 * k + b + 2))
    k = k[1:]
    off = 2 * k * (k + b) / ((2 * k + b) * np.sqrt((2 * k + b) ** 2 - 1))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (1 + b) / (1 + b)
    # Near: s = (1+x)/(2N), the rule's s^-beta folded back into the weight.
    # Far: s = e^y / N for y in [0, X], so ds = s dy.
    X = math.log(_SOE_CUTOFF * N / _SOE_NEAR)
    y, wy = _gauss_legendre(math.ceil(_SOE_PER_UNIT * X))
    far = np.exp(X * y) / N
    s = np.concatenate([(1 + x) / (2 * N), far])
    quad = np.concatenate([mu0 * vec[0] ** 2 * (1 + x) ** beta / (2 * N), X * wy * far])
    # sin(pi beta) = sin(pi (1 - beta)), and 1 - beta is exact for beta >= 1/2
    w = (np.sin(np.pi * min(beta, 1.0 - beta)) / np.pi * quad
         * np.exp(-beta * s) * (-np.expm1(-s)) ** -beta)
    return s, w


def _advance(A, W, u0: np.ndarray, alpha: float, gamma: float, tau: float,
             N: int, steps: np.ndarray, load=None, implicit: bool = False) -> np.ndarray:
    """Run the update recursion; returns U^n for each n in ``steps``.

    ``steps`` is a sorted array of step indices in 0..N; the result has one
    row per entry.  ``load`` is the load object of :func:`_source_builder`,
    or None for no source; ``implicit`` selects the implicit scheme, which
    differs from the linearized one only when there is a load.  Each step's
    right-hand side is one CSR product,

        rhs = K [z_n; g_n; n'; 1],   K = [-A | tau S | tau b | W U^0],

    with the running sum g_n of f over every accepted state before the
    step, and n' = n (linearized) or n + 1 (implicit, whose current load
    tau (S f(U^n) + b) thereby has its tau b in rhs); without a source,
    K = [-A | W U^0] and the vector is [z_n; 1].  K stores no zero
    entries.  Each Picard solve starts from :func:`_extrapolate` of the
    last min(n, _PICARD_ORDER + 2) accepted states, a polynomial of degree
    up to _PICARD_ORDER, solves for rhs + tau S f(U) per iterate, and
    stops once an iterate moves by at most _PICARD_TOL.  A state with a
    non-finite entry raises :class:`DivergedError` before f sees it.
    """
    ndof = u0.size
    out = np.zeros((steps.size, ndof))
    row = {int(n): i for i, n in enumerate(steps)}
    if 0 in row:
        out[row[0]] = u0
    if ndof == 0:
        return out

    near = _SOE_NEAR
    beta = 1.0 - alpha
    frac_scale = gamma * tau ** beta
    lu = CompositeOperator(W, tau + frac_scale, A).factorize()
    if load is None:
        implicit = False  # with f = 0 both schemes are one linear recursion
        blocks, columns = [-A], [W @ u0]
    else:
        tau_S = tau * load.S
        blocks, columns = [-A, tau_S], [tau * load.b, W @ u0]
    K = sp.hstack([*blocks, sp.csr_matrix(np.column_stack(columns))], format="csr")
    zg = np.zeros(K.shape[1])  # [z_n; g_n; n'; 1], or [z_n; 1] without a load
    zg[-1] = 1.0
    z, g = zg[:ndof], zg[ndof : 2 * ndof]

    # k[m] weighs U^(n-m) in the history z_n of step n; k[0] = 1 adds the
    # block's own row i, which holds the history from before the block.
    k = tau + frac_scale * cq_weights(beta, 2 * near)
    k[0] = 1.0
    if N >= 2 * near:
        # the sum of exponentials carries the constant tau as the node s = 0
        s, w = _soe_tail(beta, N)
        s = np.concatenate([[0.0], s])
        w = np.concatenate([[tau], frac_scale * w])
    else:
        s = w = np.zeros(0)
    P = s.size
    m = near if N >= near else 0

    # Block b holds U^(near b) .. U^(near b + near - 1).  buf = [P
    # accumulators; the m states of the previous block; this block's
    # states].  At block start n_b, acc[p] = sum_{j < n_b - near}
    # exp(-s_p (n_b - near - j)) U^j, and one product writes coef @ [acc; old]
    # into the block's rows: row i holds the history of step n_b + i from
    # all states before the block (tail weights, then the exact k of lag
    # near + i - r for old row r) until U^(n_b + i) replaces it.  In block 0
    # those rows are zero.
    buf = np.zeros((P + m + min(near, N + 1), ndof))
    hist, acc = buf[: P + m], buf[:P]
    old, new = buf[P : P + m], buf[P + m :]
    new[0] = u0
    lag = near + np.arange(m)
    coef = np.hstack([w * np.exp(-np.outer(lag, s)), k[lag[:, None] - np.arange(m)]])
    if implicit:
        diff = np.empty((_PICARD_ORDER + 2, ndof))
    if P:
        from scipy.linalg.blas import dgemm

        decay = np.exp(-near * s)[:, None]
        fold = np.exp(-np.outer(s, near - np.arange(near)))

    for n_b in range(0, N + 1, near):
        if n_b:
            if n_b > near:
                # acc = decay * acc + fold @ old, accumulated in place by
                # BLAS (on the transposes, which are Fortran-ordered).
                acc *= decay
                dgemm(1.0, old.T, fold.T, 1.0, acc.T, overwrite_c=True)
            old[...] = new
            np.matmul(coef, hist, out=new)
        for i in range(n_b == 0, min(near, N + 1 - n_b)):
            n = n_b + i
            np.dot(k[i::-1], new[: i + 1], out=z)
            if load is not None:
                g += load.f(buf[P + m + i - 1])  # U^(n-1)
                zg[-2] = n + implicit
            rhs = K @ zg

            if not implicit:
                u = lu.solve(rhs, trans="T")
                # one dot proves u finite; only an overflow needs the scan
                if not math.isfinite(u.dot(u)) and not np.isfinite(u).all():
                    raise DivergedError(n)
            else:
                # the accepted states U^(n-p) .. U^(n-1) are contiguous in
                # buf: the previous block's old rows, then this block's new
                # rows
                p = min(n, _PICARD_ORDER + 2)
                u = _extrapolate(buf[P + m + i - p : P + m + i], diff)
                for _ in range(_PICARD_MAXIT):
                    r = tau_S @ load.f(u)
                    r += rhs
                    u_next = lu.solve(r, trans="T")
                    increment = np.linalg.norm(u_next - u)
                    u = u_next
                    # a finite increment proves both iterates finite
                    if not math.isfinite(increment) and not np.isfinite(u).all():
                        raise DivergedError(n)
                    if increment <= _PICARD_TOL:
                        break
                else:
                    raise PicardConvergenceError(n, _PICARD_MAXIT, increment)

            new[i] = u
            if n in row:
                out[row[n]] = u
    return out


@dataclass(frozen=True)
class _Load:
    """Interior load S f(v) + b of the interpolated source f(u_h).

    The stepper reads ``S``, ``b`` and ``f`` to carry the source as a
    running sum of f values.
    """

    S: sp.csr_matrix
    b: npt.NDArray[np.float64]
    f: Nonlinearity


def _source_builder(mesh: TriMesh, problem: ProblemSpec, lumped: bool):
    """Interior load of the interpolated source f(u_h), or None for f = 0.

    The consistent reading is the interior rows of the full-node mass
    matrix applied to f at every node, so that boundary nodes, where
    u_h = 0 and hence f = f(0), still contribute to loads on adjacent
    interior basis functions.  Their part never changes and is computed
    once: the load is M_ii f(v) + (M f_boundary)_interior, with M_ii the
    interior mass matrix.  The lumped reading is D f(v), with D the
    interior lumped mass as a sparse diagonal.
    """
    f = problem.nonlinearity
    if f.fn is _zero:
        return None
    if lumped:
        diag = mesh_operator(mesh, "lumped_mass")
        return _Load(diag, np.zeros(diag.shape[0]), f)

    f_boundary = np.zeros(mesh.n_nodes)
    f_boundary[mesh.boundary_mask] = f(np.zeros(np.count_nonzero(mesh.boundary_mask)))
    load_boundary = (mesh_operator(mesh, "mass", full=True)
                     @ f_boundary)[mesh.interior_nodes]
    return _Load(mesh_operator(mesh, "mass"), load_boundary, f)


def _solve(config: SchemeConfig, problem: ProblemSpec, mesh: TriMesh) -> Trajectory:
    """Run ``config.variant`` on the mesh operators; the body of both steppers."""
    tau = problem.T / config.N
    A = mesh_operator(mesh, "stiffness")
    W = mesh_operator(mesh, "lumped_mass" if config.variant == "lumped-linearized"
                      else "mass")
    source = _source_builder(mesh, problem, config.source_lumping)

    u0 = problem.initial_data.field(mesh)[mesh.interior_nodes]
    steps = _snapshot_steps(config.N, config.snapshot_stride)
    rows = _advance(A, W, u0, problem.alpha, problem.gamma, tau, config.N, steps,
                    source, implicit=config.variant == "galerkin-implicit")
    values = np.zeros((steps.size, mesh.n_nodes))
    values[:, mesh.interior_nodes] = rows
    return Trajectory(times=steps * tau, steps=steps,
                      values=values, N=config.N, tau=tau)


def step_linearized(config: SchemeConfig, problem: ProblemSpec, mesh: TriMesh) -> Trajectory:
    """Advance the linearized scheme; the source lags one step behind."""
    if config.variant not in ("galerkin-linearized", "lumped-linearized"):
        raise ValueError(f"step_linearized cannot run variant {config.variant!r}")
    return _solve(config, problem, mesh)


def step_implicit(config: SchemeConfig, problem: ProblemSpec, mesh: TriMesh) -> Trajectory:
    """Advance the implicit scheme, resolving f(U^n) by Picard iteration.

    Each step iterates U <- (W + c A)^-1 (rhs + tau (S f(U) + b)) from a
    backward-difference extrapolation of the accepted states (U^0 at step
    1, 2 U^1 - U^0 at step 2, up to degree 7 later) until an iterate moves
    by at most _PICARD_TOL (1e-12); after _PICARD_MAXIT (50) iterates it
    raises :class:`PicardConvergenceError`.  Warns up front when
    tau * Lipschitz(f) >= 1, in which case the inner fixed-point map is not
    guaranteed to contract.
    """
    if config.variant != "galerkin-implicit":
        raise ValueError(f"step_implicit cannot run variant {config.variant!r}")
    tau_L = problem.T / config.N * problem.nonlinearity.lipschitz
    if tau_L >= 1.0:
        warnings.warn(
            f"tau * L = {tau_L:.3g} >= 1: the picard iteration may not contract",
            RuntimeWarning,
            stacklevel=2,
        )
    return _solve(config, problem, mesh)
