"""A CG solver for the L2 projection, and the step operator W + c*A.

The assembled operators are plain ``scipy.sparse`` CSR matrices.
:func:`cg_solve` is a Jacobi-preconditioned conjugate gradient iteration
for one-off solves (the L2 projection).  :class:`CompositeOperator`
applies W + c*A without forming it; no solver in the package calls it,
and ``bench/tracing.py`` wraps its ``matvec``.
"""

from __future__ import annotations

import numpy as np

from . import _EXPORTS

__all__ = _EXPORTS["sparse_linalg"]


class CGConvergenceError(RuntimeError):
    """Conjugate gradients hit the iteration cap above tolerance."""

    def __init__(self, iterations: int, residual: float, target: float):
        self.iterations = iterations
        self.residual = residual
        self.target = target
        super().__init__(
            f"cg failed after {iterations} iterations: "
            f"residual {residual:.3e} > target {target:.3e}"
        )


class CompositeOperator:
    """W + c*A for two CSR matrices, applied without forming it."""

    def __init__(self, W, c: float, A):
        if W.shape != A.shape:
            raise ValueError("operand sizes differ")
        self.W = W
        self.c = float(c)
        self.A = A

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.W @ x + self.c * (self.A @ x)


def cg_solve(op, b, tol: float = 1e-12, maxit: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned CG for an SPD CSR matrix ``op``.

    Terminates when ||b - op x||_2 <= tol * ||b||_2 and raises
    :class:`CGConvergenceError` if that is not reached within ``maxit``
    iterations (default 10*n).
    """
    b = np.asarray(b, dtype=float)
    n = op.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs of length {b.shape} against n={n}")
    if maxit is None:
        maxit = 10 * n
    res = np.linalg.norm(b)
    target = tol * res
    x = np.zeros(n)
    if res <= target:  # b = 0 (or n = 0), or tol >= 1
        return x

    inv_diag = 1.0 / op.diagonal()
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r.dot(z)
    for k in range(maxit):
        Ap = op @ p
        alpha = rz / p.dot(Ap)
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r)
        if res <= target:
            return x
        z = inv_diag * r
        rz_new = r.dot(z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    raise CGConvergenceError(maxit, res, target)
