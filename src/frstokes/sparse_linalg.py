"""Minimal symmetric sparse linear algebra for the FEM solvers.

Matrices are stored in compressed sparse row form (backed by
``scipy.sparse``).  The time-stepping matrix W + c*A of one run is
described by :class:`CompositeOperator`; :meth:`CompositeOperator.factorize`
materializes it once and returns its sparse LU factorization, which the
steppers reuse for every step.  :func:`cg_solve` is a Jacobi-preconditioned
conjugate gradient iteration for one-off solves (the L2 projection).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseSymMatrix",
    "DiagMatrix",
    "CompositeOperator",
    "CGConvergenceError",
    "cg_solve",
]

_SYM_TOL = 1e-14


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


class SparseSymMatrix:
    """Symmetric CSR matrix.  Symmetry is validated on construction."""

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got {csr.shape}")
        csr.sum_duplicates()
        csr.sort_indices()
        scale = max(1.0, abs(csr.data).max()) if csr.nnz else 1.0
        asym = abs(csr - csr.T)
        if asym.nnz and asym.data.max() > _SYM_TOL * scale:
            raise ValueError("matrix is not symmetric to 1e-14")
        self._csr = csr

    @classmethod
    def from_coo(cls, rows, cols, vals, n: int) -> "SparseSymMatrix":
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def indptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def data(self) -> np.ndarray:
        return self._csr.data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector of length {x.shape} against n={self.n}")
        return self._csr.dot(x)

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def tocsr(self):
        return self._csr

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)


class DiagMatrix:
    """Positive diagonal matrix (lumped mass)."""

    def __init__(self, values):
        vals = np.asarray(values, dtype=float).copy()
        if vals.ndim != 1:
            raise ValueError("diagonal must be a vector")
        if vals.size and vals.min() <= 0:
            raise ValueError("diagonal entries must be strictly positive")
        vals.setflags(write=False)
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector of length {x.shape} against n={self.n}")
        return self.values * x

    def diagonal(self) -> np.ndarray:
        return self.values.copy()

    def toarray(self) -> np.ndarray:
        return np.diag(self.values)

    def tocsr(self):
        return sp.diags(self.values, format="csr")

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)


class CompositeOperator:
    """W + c*A, applied matrix-free or factorized once for repeated solves."""

    def __init__(self, W, c: float, A):
        if W.n != A.n:
            raise ValueError("operand sizes differ")
        self.W = W
        self.c = float(c)
        self.A = A

    @property
    def n(self) -> int:
        return self.A.n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.W.matvec(x) + self.c * self.A.matvec(x)

    def diagonal(self) -> np.ndarray:
        return self.W.diagonal() + self.c * self.A.diagonal()

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

        B = self.W.tocsr() + self.c * self.A.tocsr()
        B = 0.5 * (B + B.T)
        return splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    options=dict(SymmetricMode=True))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)


def cg_solve(op, b, tol: float = 1e-12, maxit: int | None = None, x0=None) -> np.ndarray:
    """Jacobi-preconditioned CG for SPD ``op``.

    Terminates when ||b - op x||_2 <= tol * ||b||_2 and raises
    :class:`CGConvergenceError` if that is not reached within ``maxit``
    iterations (default 10*n).
    """
    b = np.asarray(b, dtype=float)
    n = op.n
    if b.shape != (n,):
        raise ValueError(f"rhs of length {b.shape} against n={n}")
    if n == 0:
        return np.zeros(0)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n)
    if maxit is None:
        maxit = 10 * n
    target = tol * norm_b

    inv_diag = 1.0 / op.diagonal()
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - op.matvec(x)
    res = np.linalg.norm(r)
    if res <= target:
        return x
    z = inv_diag * r
    p = z.copy()
    rz = r.dot(z)
    for k in range(maxit):
        Ap = op.matvec(p)
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
