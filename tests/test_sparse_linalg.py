import numpy as np
import pytest

from frstokes.sparse_linalg import (
    CGConvergenceError,
    CompositeOperator,
    DiagMatrix,
    SparseSymMatrix,
    cg_solve,
)


def random_spd_coo(n, seed):
    """Random sparse SPD matrix as COO triplets plus its dense image."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        v = rng.standard_normal()
        dense[i, j] += v
        dense[j, i] += v
    dense += n * np.eye(n)  # diagonally dominant, hence SPD
    rows, cols = np.nonzero(dense)
    return rows, cols, dense[rows, cols], dense


def test_from_coo_matches_dense_matvec():
    rows, cols, vals, dense = random_spd_coo(12, seed=0)
    A = SparseSymMatrix.from_coo(rows, cols, vals, 12)
    x = np.random.default_rng(1).standard_normal(12)
    assert np.allclose(A.matvec(x), dense @ x, atol=1e-13)
    assert np.allclose(A @ x, dense @ x, atol=1e-13)
    assert np.allclose(A.diagonal(), np.diag(dense), atol=1e-15)
    assert np.allclose(A.toarray(), dense, atol=1e-15)


def test_from_coo_sums_duplicate_entries():
    rows = np.array([0, 0, 1, 0, 1])
    cols = np.array([0, 1, 0, 1, 1])
    vals = np.array([2.0, 0.25, 0.5, 0.25, 3.0])
    A = SparseSymMatrix.from_coo(rows, cols, vals, 2)
    assert np.allclose(A.toarray(), [[2.0, 0.5], [0.5, 3.0]])


def test_symmetry_validation_rejects_asymmetric():
    rows = np.array([0, 1])
    cols = np.array([1, 0])
    vals = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        SparseSymMatrix.from_coo(rows, cols, vals, 2)


def test_diag_matrix_requires_positive_entries():
    D = DiagMatrix(np.array([1.0, 2.0]))
    assert np.allclose(D.matvec([3.0, 4.0]), [3.0, 8.0])
    assert np.allclose(D.diagonal(), [1.0, 2.0])
    with pytest.raises(ValueError):
        DiagMatrix(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagMatrix(np.array([1.0, -2.0]))


def test_composite_operator_is_w_plus_c_times_a():
    rows, cols, vals, dense = random_spd_coo(9, seed=4)
    A = SparseSymMatrix.from_coo(rows, cols, vals, 9)
    W = DiagMatrix(np.arange(1.0, 10.0))
    c = 0.37
    op = CompositeOperator(W, c, A)
    x = np.random.default_rng(5).standard_normal(9)
    want = np.arange(1.0, 10.0) * x + c * (dense @ x)
    assert np.allclose(op.matvec(x), want, atol=1e-13)
    assert np.allclose(op.diagonal(), np.arange(1.0, 10.0) + c * np.diag(dense))
    # the factorization solves the materialized matrix, for either mass type
    b = np.random.default_rng(6).standard_normal(9)
    for mass, W_dense in ((W, np.diag(np.arange(1.0, 10.0))), (A, dense)):
        B = W_dense + c * dense
        x = CompositeOperator(mass, c, A).factorize().solve(b)
        assert np.linalg.norm(B @ x - b) <= 1e-13 * np.linalg.norm(b)


@pytest.mark.parametrize("n,seed", [(5, 2), (30, 3), (80, 8)])
def test_cg_matches_dense_solve(n, seed):
    rows, cols, vals, dense = random_spd_coo(n, seed=seed)
    A = SparseSymMatrix.from_coo(rows, cols, vals, n)
    b = np.random.default_rng(seed + 100).standard_normal(n)
    x = cg_solve(A, b, tol=1e-13)
    assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-10)
    assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b) * 1.01


def test_cg_on_composite_operator():
    rows, cols, vals, dense = random_spd_coo(20, seed=6)
    A = SparseSymMatrix.from_coo(rows, cols, vals, 20)
    w = np.random.default_rng(7).uniform(1.0, 2.0, 20)
    op = CompositeOperator(DiagMatrix(w), 0.8, A)
    b = np.random.default_rng(9).standard_normal(20)
    x = cg_solve(op, b, tol=1e-13)
    assert np.allclose((np.diag(w) + 0.8 * dense) @ x, b, atol=1e-11)


def test_cg_zero_rhs_returns_zero_immediately():
    rows, cols, vals, _ = random_spd_coo(6, seed=10)
    A = SparseSymMatrix.from_coo(rows, cols, vals, 6)
    x = cg_solve(A, np.zeros(6))
    assert np.array_equal(x, np.zeros(6))


def test_cg_warm_start_already_converged():
    rows, cols, vals, dense = random_spd_coo(10, seed=12)
    A = SparseSymMatrix.from_coo(rows, cols, vals, 10)
    b = np.random.default_rng(13).standard_normal(10)
    exact = np.linalg.solve(dense, b)
    x = cg_solve(A, b, tol=1e-10, x0=exact)
    assert np.allclose(x, exact, atol=1e-12)


def test_cg_exact_in_n_steps_on_identity():
    A = SparseSymMatrix.from_coo(np.arange(4), np.arange(4), np.ones(4), 4)
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(cg_solve(A, b), b, atol=1e-15)


def test_cg_raises_on_iteration_cap():
    rows, cols, vals, _ = random_spd_coo(40, seed=14)
    A = SparseSymMatrix.from_coo(rows, cols, vals, 40)
    b = np.ones(40)
    with pytest.raises(CGConvergenceError) as exc:
        cg_solve(A, b, tol=1e-16, maxit=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > exc.value.target
