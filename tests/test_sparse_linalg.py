import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_spd_coo
from frstokes.sparse_linalg import CGConvergenceError, CompositeOperator, cg_solve


def test_composite_operator_is_w_plus_c_times_a():
    rows, cols, vals, dense = random_spd_coo(9, seed=4)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(9, 9))
    W = sp.diags(np.arange(1.0, 10.0), format="csr")
    c = 0.37
    op = CompositeOperator(W, c, A)
    x = np.random.default_rng(5).standard_normal(9)
    want = np.arange(1.0, 10.0) * x + c * (dense @ x)
    assert np.allclose(op.matvec(x), want, atol=1e-13)


@pytest.mark.parametrize("n,seed", [(5, 2), (30, 3), (80, 8)])
def test_cg_matches_dense_solve(n, seed):
    rows, cols, vals, dense = random_spd_coo(n, seed=seed)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    b = np.random.default_rng(seed + 100).standard_normal(n)
    x = cg_solve(A, b, tol=1e-13)
    assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-10)
    assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b) * 1.01


def test_cg_zero_rhs_returns_zero_immediately():
    rows, cols, vals, _ = random_spd_coo(6, seed=10)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(6, 6))
    x = cg_solve(A, np.zeros(6))
    assert np.array_equal(x, np.zeros(6))


def test_cg_exact_in_n_steps_on_identity():
    A = sp.csr_matrix(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(cg_solve(A, b), b, atol=1e-15)


def test_cg_raises_on_iteration_cap():
    rows, cols, vals, _ = random_spd_coo(40, seed=14)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(40, 40))
    b = np.ones(40)
    with pytest.raises(CGConvergenceError) as exc:
        cg_solve(A, b, tol=1e-16, maxit=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > exc.value.target
