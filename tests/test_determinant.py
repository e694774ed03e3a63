import math

import numpy as np
import pytest

from blackbox_linalg import (DenseOperator, InversionConfig, PrimeField,
                             block_generator, dense_det, det_integer_crt,
                             det_mod_p, matmul_mod)
from blackbox_linalg.determinant import crt_combine, hadamard_bound, word_size_primes
from blackbox_linalg.errors import (DegenerateSequence, DimensionError,
                                   InsufficientPrimes)

from _oracles import IdentityOperator, bareiss_det

BIG = PrimeField(2147483629)
P = BIG.p


def test_generator_scalar_geometric():
    p = 10007
    c = 123
    alpha = [np.array([[pow(c, i, p)]], dtype=np.int64) for i in range(9)]
    gen = block_generator(alpha, 4, p)
    # minimal generator is proportional to x - c; normalize by the leading block
    assert gen.degree == 1
    lead = int(gen.F[1, 0, 0])
    monic0 = int(gen.F[0, 0, 0]) * pow(lead, p - 2, p) % p
    assert monic0 == (-c) % p


def test_generator_zero_sequence_degenerate():
    p = 10007
    alpha = [np.zeros((2, 2), dtype=np.int64) for _ in range(8)]
    with pytest.raises(DegenerateSequence):
        block_generator(alpha, 4, p, expected_degree_sum=8)


def test_generator_diagonal_block_det():
    # diag(d1..d4) with distinct entries, s = 2, m = 2: the extraction
    # formula reproduces prod(d_i)
    rng = np.random.default_rng(90)
    p = 10007
    field = PrimeField(p)
    d = np.array([3, 7, 11, 19], dtype=np.int64)
    B = DenseOperator(np.diag(d), field)
    s, m, n = 2, 2, 4
    u = np.tile(np.eye(s, dtype=np.int64), (m, 1))
    v = rng.integers(0, p, size=(n, s), dtype=np.int64)
    alpha = []
    w = v
    for i in range(2 * m + 1):
        alpha.append(matmul_mod(u.T, w, p))
        w = B.apply_matrix(w)
    gen = block_generator(alpha, m, p, expected_degree_sum=n)
    det = gen.det_at_zero * pow(gen.det_lead, p - 2, p) % p
    if n % 2:
        det = (-det) % p
    assert det == int(np.prod(d)) % p


def test_generator_annihilation_invariant():
    rng = np.random.default_rng(91)
    p = 10007
    field = PrimeField(p)
    n, s = 12, 3
    m = n // s
    M = rng.integers(0, p, size=(n, n), dtype=np.int64)
    B = DenseOperator(M, field)
    u = np.tile(np.eye(s, dtype=np.int64), (m, 1))
    v = rng.integers(0, p, size=(n, s), dtype=np.int64)
    alpha = []
    w = v
    for i in range(2 * m + 1):
        alpha.append(matmul_mod(u.T, w, p))
        w = B.apply_matrix(w)
    gen = block_generator(alpha, m, p)
    # recurrence holds on the sampled window, column by column
    for c, d in enumerate(gen.col_degrees):
        for i in range(len(alpha) - d):
            acc = np.zeros(s, dtype=np.int64)
            for k in range(d + 1):
                acc = (acc + matmul_mod(alpha[i + k],
                                        gen.F[k, :, c:c + 1], p).ravel()) % p
            assert not acc.any()


def test_det_identity():
    assert det_mod_p(IdentityOperator(8, BIG), InversionConfig(seed=0)) == 1


def test_det_diag_factorial():
    field = PrimeField(10007)
    n = 12
    A = DenseOperator(np.diag(np.arange(1, n + 1)).astype(np.int64), field)
    assert det_mod_p(A, InversionConfig(seed=0)) == math.factorial(n) % field.p


def test_det_random_matches_dense_lu():
    rng = np.random.default_rng(92)
    for trial in range(10):
        n = int(rng.integers(2, 33))
        M = rng.integers(0, P, size=(n, n), dtype=np.int64)
        A = DenseOperator(M, BIG)
        assert det_mod_p(A, InversionConfig(seed=trial)) == dense_det(M, P)


def test_det_singular_matrix_returns_zero():
    rng = np.random.default_rng(93)
    a = rng.integers(0, P, size=(6, 2), dtype=np.int64)
    b = rng.integers(0, P, size=(2, 6), dtype=np.int64)
    A = DenseOperator(matmul_mod(a, b, P), BIG)
    assert det_mod_p(A, InversionConfig(seed=0)) == 0


def test_det_block_diagonal_multiplicative():
    rng = np.random.default_rng(94)
    for trial in range(5):
        na, nb = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        Ma = rng.integers(0, P, size=(na, na), dtype=np.int64)
        Mb = rng.integers(0, P, size=(nb, nb), dtype=np.int64)
        M = np.zeros((na + nb, na + nb), dtype=np.int64)
        M[:na, :na] = Ma
        M[na:, na:] = Mb
        dA = det_mod_p(DenseOperator(Ma, BIG), InversionConfig(seed=trial))
        dB = det_mod_p(DenseOperator(Mb, BIG), InversionConfig(seed=trial + 100))
        dAB = det_mod_p(DenseOperator(M, BIG), InversionConfig(seed=trial + 200))
        assert dAB == dA * dB % P


def triples_of(M):
    return [(i, j, int(M[i, j])) for i in range(M.shape[0])
            for j in range(M.shape[1]) if M[i, j]]


def test_crt_2x2_known():
    assert det_integer_crt(2, [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
                           [10007, 10009]) == 1


def test_crt_identity():
    triples = [(i, i, 1) for i in range(10)]
    assert det_integer_crt(10, triples, [10007, 10009]) == 1


def test_crt_random_against_bareiss():
    rng = np.random.default_rng(95)
    primes = word_size_primes(3)
    for trial in range(5):
        n = 16
        M = rng.integers(-9, 10, size=(n, n))
        expect = bareiss_det(M)
        got = det_integer_crt(n, triples_of(M), primes, seed=trial)
        assert got == expect


def test_crt_insufficient_primes():
    rng = np.random.default_rng(96)
    M = rng.integers(-9, 10, size=(16, 16))
    with pytest.raises(InsufficientPrimes):
        det_integer_crt(16, triples_of(M), [10007])


def test_crt_order_and_subset_independence():
    rng = np.random.default_rng(97)
    M = rng.integers(-5, 6, size=(8, 8))
    expect = bareiss_det(M)
    primes = word_size_primes(4)
    got1 = det_integer_crt(8, triples_of(M), primes, seed=0)
    got2 = det_integer_crt(8, triples_of(M), primes[::-1], seed=0)
    got3 = det_integer_crt(8, triples_of(M), primes[:3], seed=0)
    assert got1 == got2 == got3 == expect


def test_crt_combine_and_hadamard():
    assert crt_combine([2, 3], [5, 7]) == 17
    # identity: every row norm 1
    assert hadamard_bound(3, [(i, i, 1) for i in range(3)]) == 1
    assert hadamard_bound(2, [(0, 0, 3), (0, 1, 4), (1, 1, 2)]) == 10


def test_word_size_primes_raise_when_too_few_lie_below():
    # the odd primes below 4 are 3 alone; this once looped forever
    assert word_size_primes(1, below=4) == [3]
    assert word_size_primes(3, below=12) == [11, 7, 5]
    for count, below in ((2, 4), (1, 3), (5, 12)):
        with pytest.raises(ValueError):
            word_size_primes(count, below=below)


@pytest.mark.parametrize("entry", [(5, 0, 1), (0, 3, 1), (-1, 0, 1), (0, -4, 1)])
def test_det_integer_crt_rejects_entries_outside_the_matrix(entry):
    # as SparseOperator does, before any prime is tried
    with pytest.raises(DimensionError):
        det_integer_crt(3, [(0, 0, 1), (1, 1, 1), (2, 2, 1), entry],
                        word_size_primes(2))


def test_det_singular_certified_after_first_degenerate_sequence(monkeypatch):
    # the parent of this change ran all 8 generator attempts first
    import blackbox_linalg.determinant as determinant
    rng = np.random.default_rng(95)
    a = rng.integers(0, P, size=(12, 4), dtype=np.int64)
    b = rng.integers(0, P, size=(4, 12), dtype=np.int64)
    A = DenseOperator(matmul_mod(a, b, P), BIG)
    calls = []
    inner = determinant.block_generator

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(determinant, "block_generator", counting)
    assert det_mod_p(A, InversionConfig(seed=0)) == 0
    assert len(calls) == 1
