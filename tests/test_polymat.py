import numpy as np
import pytest

from blackbox_linalg import MatrixPolynomial, polymat_mul
from blackbox_linalg.errors import DimensionError

from _oracles import naive_polymat_convolution


def rand_poly(rng, rows, cols, degree, p):
    return MatrixPolynomial(
        [rng.integers(0, p, size=(rows, cols), dtype=np.int64)
         for _ in range(degree + 1)], p)


def test_mul_by_constant_identity():
    p = 10007
    rng = np.random.default_rng(10)
    F = rand_poly(rng, 3, 3, 4, p)
    I = MatrixPolynomial([np.eye(3, dtype=np.int64)], p)
    assert polymat_mul(F, I) == F
    assert polymat_mul(I, F) == F


def test_mul_scalar_known():
    # (2 + 3x)(4 + 5x) = 8 + 22x + 15x^2 = 1 + x + x^2 mod 7
    p = 7
    F = MatrixPolynomial([np.array([[2]]), np.array([[3]])], p)
    G = MatrixPolynomial([np.array([[4]]), np.array([[5]])], p)
    got = polymat_mul(F, G)
    assert [int(c[0, 0]) for c in got.coeffs] == [1, 1, 1]


def test_mul_against_naive_convolution():
    p = 10007
    rng = np.random.default_rng(11)
    F = rand_poly(rng, 3, 3, 5, p)
    G = rand_poly(rng, 3, 3, 5, p)
    got = polymat_mul(F, G)
    expect = naive_polymat_convolution(F.coeffs, G.coeffs, p)
    assert len(got.coeffs) == len(expect)
    for a, b in zip(got.coeffs, expect):
        assert np.array_equal(a, b)


def test_mul_rectangular_blocks():
    p = 10007
    rng = np.random.default_rng(12)
    F = rand_poly(rng, 2, 2, 3, p)
    G = rand_poly(rng, 2, 5, 2, p)
    got = polymat_mul(F, G)
    expect = naive_polymat_convolution(F.coeffs, G.coeffs, p)
    for a, b in zip(got.coeffs, expect):
        assert np.array_equal(a, b)


def test_dimension_mismatch():
    p = 10007
    F = MatrixPolynomial([np.zeros((2, 3), dtype=np.int64)], p)
    G = MatrixPolynomial([np.zeros((2, 3), dtype=np.int64)], p)
    with pytest.raises(DimensionError):
        polymat_mul(F, G)


def test_associative_and_distributive():
    p = 10007
    rng = np.random.default_rng(13)
    for _ in range(5):
        s = int(rng.integers(1, 5))
        d = int(rng.integers(0, 9))
        F = rand_poly(rng, s, s, d, p)
        G = rand_poly(rng, s, s, d, p)
        H = rand_poly(rng, s, s, d, p)
        assert polymat_mul(polymat_mul(F, G), H) == polymat_mul(F, polymat_mul(G, H))
        G_plus_H = MatrixPolynomial([g + h for g, h in zip(G.coeffs, H.coeffs)], p)
        FG, FH = polymat_mul(F, G), polymat_mul(F, H)
        assert polymat_mul(F, G_plus_H) == MatrixPolynomial(
            [a + b for a, b in zip(FG.coeffs, FH.coeffs)], p)


def test_truncated_product():
    p = 10007
    rng = np.random.default_rng(14)
    F = rand_poly(rng, 2, 2, 6, p)
    G = rand_poly(rng, 2, 2, 6, p)
    full = polymat_mul(F, G)
    part = polymat_mul(F, G, max_degree=4)
    assert part.degree == 4
    for k in range(5):
        assert np.array_equal(part.coeff(k), full.coeff(k))


def test_trim_and_eval():
    p = 7
    F = MatrixPolynomial([np.array([[1]]), np.array([[2]]), np.array([[0]])], p)
    T = F.trim()
    assert T.degree == 1
    # same polynomial: every coefficient, past the trimmed degree too
    for k in range(4):
        assert np.array_equal(T.coeff(k), F.coeff(k))
