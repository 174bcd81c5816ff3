"""The step-matrix factorization and a CG solver for the FEM solvers.

The assembled operators are plain ``scipy.sparse`` CSR matrices.  The
time-stepping matrix W + c*A of one run is described by
:class:`CompositeOperator`; :meth:`CompositeOperator.factorize`
materializes it once and returns its sparse LU factorization, which the
steppers reuse for every step.  :func:`cg_solve` is a Jacobi-preconditioned
conjugate gradient iteration for one-off solves (the L2 projection).
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
    """W + c*A for two CSR matrices, factorized once for repeated solves."""

    def __init__(self, W, c: float, A):
        if W.shape != A.shape:
            raise ValueError("operand sizes differ")
        self.W = W
        self.c = float(c)
        self.A = A

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.W @ x + self.c * (self.A @ x)

    def factorize(self):
        """SuperLU factorization of the materialized W + c*A.

        Returns the ``scipy.sparse.linalg.SuperLU`` object; a solve then
        costs two sparse triangular solves.  The matrix is symmetric, so a
        minimum-degree ordering of A^T + A with symmetric pivoting keeps
        the fill well below that of the default column ordering.

        The factored matrix is (B + B^T)/2 for B = W + c*A, which is
        symmetric bit for bit (and equal to B bit for bit when W and A
        are, as assembled).  Callers may therefore solve with
        ``.solve(b, trans="T")``: it gives the same solution as the
        untransposed solve, to rounding, and SuperLU runs it faster (see
        :mod:`frstokes.cq_time_stepper`).  The import is deferred because
        ``scipy.sparse.linalg`` is heavy to load and most entry points
        never factor.
        """
        from scipy.sparse.linalg import splu

        B = self.W + self.c * self.A
        B = 0.5 * (B + B.T)
        return splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    options=dict(SymmetricMode=True))


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
