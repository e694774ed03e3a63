import numpy as np
import pytest

from blackbox_linalg import dense_det, dense_inverse, matmul_mod
from blackbox_linalg.errors import Singular

from _oracles import bareiss_det, dense_nullspace, dense_rank, dense_solve


def test_inverse_identity():
    I4 = np.eye(4, dtype=np.int64)
    assert np.array_equal(dense_inverse(I4, 10007), I4)


def test_inverse_2x2_known():
    # det = 1, adjugate [[5, -2], [-2, 1]] reduces to the frozen value
    M = np.array([[1, 2], [2, 5]], dtype=np.int64)
    assert np.array_equal(dense_inverse(M, 7),
                          np.array([[5, 5], [5, 1]], dtype=np.int64))


def test_inverse_random_self_check():
    p = 10007
    rng = np.random.default_rng(4)
    M = rng.integers(0, p, size=(8, 8), dtype=np.int64)
    while dense_rank(M, p) < 8:
        M = rng.integers(0, p, size=(8, 8), dtype=np.int64)
    X = dense_inverse(M, p)
    assert np.array_equal(matmul_mod(M, X, p), np.eye(8, dtype=np.int64))


def test_inverse_both_sides_random_sizes():
    # invariant: M X = X M = I for 200 random nonsingular M, n <= 64
    p = 10007
    rng = np.random.default_rng(5)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 65))
        M = rng.integers(0, p, size=(n, n), dtype=np.int64)
        try:
            X = dense_inverse(M, p)
        except Singular:
            continue
        I = np.eye(n, dtype=np.int64)
        assert np.array_equal(matmul_mod(M, X, p), I)
        assert np.array_equal(matmul_mod(X, M, p), I)
        done += 1


def test_singular_reports_first_dependent_column():
    p = 10007
    M = np.array([[1, 2, 3],
                  [4, 5, 9],
                  [7, 8, 15]], dtype=np.int64)  # col2 = col0 + col1
    with pytest.raises(Singular) as exc:
        dense_inverse(M, p)
    assert exc.value.column == 2


def test_rank_zero_identity_outer():
    p = 10007
    assert dense_rank(np.zeros((3, 3), dtype=np.int64), p) == 0
    assert dense_rank(np.eye(5, dtype=np.int64), p) == 5
    rng = np.random.default_rng(6)
    a = rng.integers(1, p, size=(6, 1), dtype=np.int64)
    b = rng.integers(1, p, size=(1, 6), dtype=np.int64)
    assert dense_rank(matmul_mod(a, b, p), p) == 1


def test_rank_transpose_invariant():
    p = 10007
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.integers(0, 3, size=(9, 5), dtype=np.int64)
        assert dense_rank(M, p) == dense_rank(M.T, p)


def test_det_against_bareiss():
    p = 10007
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        M = rng.integers(-9, 10, size=(n, n))
        assert dense_det(M % p, p) == bareiss_det(M) % p


def test_solve_and_nullspace():
    p = 10007
    rng = np.random.default_rng(9)
    M = rng.integers(0, p, size=(6, 6), dtype=np.int64)
    while dense_rank(M, p) < 6:
        M = rng.integers(0, p, size=(6, 6), dtype=np.int64)
    B = rng.integers(0, p, size=(6, 3), dtype=np.int64)
    X = dense_solve(M, B, p)
    assert np.array_equal(matmul_mod(M, X, p), B)
    # nullspace of a rank-2 matrix
    a = rng.integers(0, p, size=(6, 2), dtype=np.int64)
    b = rng.integers(0, p, size=(2, 6), dtype=np.int64)
    R = matmul_mod(a, b, p)
    N = dense_nullspace(R, p)
    assert N.shape == (6, 4)
    assert not matmul_mod(R, N, p).any()
    assert dense_rank(N, p) == 4
