import math

import numpy as np
import pytest

import blackbox_linalg.hankel as hankel
from blackbox_linalg import (DenseOperator, InversionConfig, PrimeField,
                             SparseOperator, dense_det, det_integer_crt,
                             det_mod_p, matmul_mod)
from blackbox_linalg.determinant import crt_combine, hadamard_bound, word_size_primes
from blackbox_linalg.errors import (DimensionError, HankelSingular,
                                   InsufficientPrimes)
from blackbox_linalg.hankel import _block_wiedemann

from _oracles import IdentityOperator, annihilates, bareiss_det

BIG = PrimeField(2147483629)
P = BIG.p


def test_generator_scalar_geometric():
    # c I of order 4 with s = 1: alpha_k = 4 c^{k+1}, whose minimal
    # generator is proportional to x - c
    p = 10007
    c = 123
    B = DenseOperator(c * np.eye(4, dtype=np.int64), PrimeField(p))
    degrees, _, F = _block_wiedemann(B, np.ones((4, 1), dtype=np.int64))
    assert degrees == [1]
    monic0 = int(F[0, 0, 0]) * pow(int(F[1, 0, 0]), p - 2, p) % p
    assert monic0 == (-c) % p


def test_generator_zero_sequence_degenerate():
    p = 10007
    B = SparseOperator(8, [], PrimeField(p))  # the zero matrix
    v = np.random.default_rng(89).integers(0, p, size=(8, 2), dtype=np.int64)
    degrees, certified, _ = _block_wiedemann(B, v)
    assert sum(degrees) == 0
    with pytest.raises(HankelSingular):
        certified()


def test_generator_diagonal_block_det():
    # diag(d1..d4) with distinct entries, s = 2, m = 2: the certified
    # v-family gives det B = (-1)^n det v_m = prod(d_i)
    rng = np.random.default_rng(90)
    p = 10007
    d = np.array([3, 7, 11, 19], dtype=np.int64)
    B = DenseOperator(np.diag(d), PrimeField(p))
    v = rng.integers(0, p, size=(4, 2), dtype=np.int64)
    degrees, certified, _ = _block_wiedemann(B, v)
    assert degrees == [2, 2]
    assert dense_det(certified()[1][2], p) == int(np.prod(d)) % p


def test_generator_annihilation_invariant():
    rng = np.random.default_rng(91)
    p = 10007
    n, s = 12, 3
    m = n // s
    B = DenseOperator(rng.integers(0, p, size=(n, n), dtype=np.int64), PrimeField(p))
    v = rng.integers(0, p, size=(n, s), dtype=np.int64)
    degrees, _, F = _block_wiedemann(B, v)
    # alpha_k = u^T B^{k+1} v, k < 2m, by plain repeated application
    u = np.tile(np.eye(s, dtype=np.int64), (m, 1))
    alpha, w = [], v
    for _ in range(2 * m):
        w = B.apply_matrix(w)
        alpha.append(matmul_mod(u.T, w, p))
    assert sum(degrees) == n
    assert annihilates(alpha, F, degrees, p)
    # the check rejects a generator perturbed in one entry
    F[0, 0, 0] = (F[0, 0, 0] + 1) % p
    assert not annihilates(alpha, F, degrees, p)


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


def _structured(name, n):
    I = np.eye(n, dtype=np.int64)
    if name == "identity":
        return I
    if name == "shift":
        return np.roll(I, 1, axis=0)
    if name == "reversal":
        return I[::-1].copy()
    if name == "jordan":
        return I + np.eye(n, k=1, dtype=np.int64)
    M = np.zeros((n, n), dtype=np.int64)  # repeated 2 x 2 blocks
    for i in range(0, n - 1, 2):
        M[i:i + 2, i:i + 2] = [[1, 2], [3, 4]]
    if n % 2:
        M[-1, -1] = 1
    return M


@pytest.mark.parametrize("p", [101, 1009])
@pytest.mark.parametrize("n", [30, 31])
@pytest.mark.parametrize("name", ["identity", "shift", "reversal", "jordan", "blocks2"])
def test_det_structured_families_small_fields(name, n, p):
    # repeated eigenvalues and many equal invariant factors: the
    # preconditioner must make them generic for block Wiedemann
    field = PrimeField(p)
    M = _structured(name, n)
    expect = dense_det(M, p)
    for seed in range(20):
        assert det_mod_p(DenseOperator(M, field), InversionConfig(seed=seed)) == expect


@pytest.mark.parametrize("n", [256, 1024])
def test_det_diagonal_inputs_when_n_exceeds_the_field(n):
    # p = 101 < n: a diagonal repeats some eigenvalue more than
    # s = round(n^(1/3)) times, even after any diagonal scaling, which leaves
    # more than s nontrivial invariant factors; the preconditioner must mix
    # them (the butterfly does)
    field = PrimeField(101)
    d = np.random.default_rng(n).integers(1, 101, size=n)
    for diag in (np.ones(n, dtype=np.int64), d):
        A = SparseOperator(n, [(i, i, int(v)) for i, v in enumerate(diag)], field)
        expect = 1
        for v in diag:
            expect = expect * int(v) % 101
        for seed in range(3):
            assert det_mod_p(A, InversionConfig(seed=seed)) == expect


@pytest.mark.parametrize("n", [30, 31])
def test_det_sparse_inputs_small_field(n):
    # 3 random off-diagonal entries per row, p = 101: most are singular,
    # and det's own runs read kernel vectors that prove them so in this
    # small field
    field = PrimeField(101)
    singular = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        M = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            cols = rng.choice([j for j in range(n) if j != i], size=3, replace=False)
            M[i, cols] = rng.integers(1, 101, size=3)
        expect = dense_det(M, 101)
        singular += expect == 0
        A = SparseOperator(n, triples_of(M), field)
        assert det_mod_p(A, InversionConfig(seed=seed)) == expect, seed
    assert singular > 100


def test_det_spends_two_m_s_applications_when_s_does_not_divide_n():
    # n = 31, s = 3: m = 11, A padded to 33; 2m applications to the
    # 33 x 3 block v, s of them on A per step
    rng = np.random.default_rng(98)
    M = rng.integers(0, P, size=(31, 31), dtype=np.int64)
    A = DenseOperator(M, BIG)
    assert det_mod_p(A, InversionConfig(s=3, seed=0)) == dense_det(M, P)
    assert A.total_applications == 2 * 11 * 3


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
    # the first failed Hankel certificate reads a kernel vector off the
    # generator of the same run, which returns 0 at once: one block
    # Wiedemann run and its one sweep, no other
    import blackbox_linalg.determinant as determinant
    rng = np.random.default_rng(95)
    a = rng.integers(0, P, size=(12, 4), dtype=np.int64)
    b = rng.integers(0, P, size=(4, 12), dtype=np.int64)
    A = DenseOperator(matmul_mod(a, b, P), BIG)
    calls, sweeps = [], []
    inner, inner_sweep = determinant._block_wiedemann, hankel.krylov_apply_left

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    def sweep(*args, **kwargs):
        sweeps.append(args)
        return inner_sweep(*args, **kwargs)
    monkeypatch.setattr(determinant, "_block_wiedemann", counting)
    monkeypatch.setattr(hankel, "krylov_apply_left", sweep)
    assert det_mod_p(A, InversionConfig(seed=0)) == 0
    assert len(calls) == 1
    assert len(sweeps) == 1


def test_det_is_las_vegas_a_corrupted_family_retries(monkeypatch):
    # one entry of the first run's v-family corrupted: det v_m changes, the
    # Hankel certificate rejects the families, and det retries to the true
    # value.  The failed run's kernel read finds nothing (A is nonsingular)
    rng = np.random.default_rng(99)
    n = 12
    M = rng.integers(0, P, size=(n, n), dtype=np.int64)
    runs, corrupted = [], []
    inner = hankel._pade_side

    def spy(alpha, s, m, p):
        degrees, families, rows = inner(alpha, s, m, p)
        runs.append(m)

        def forged():
            q_t, v_t = families()
            if len(runs) == 1:
                good = dense_det(v_t[m], p)
                v_t[m, 0, 0] = (v_t[m, 0, 0] + 1) % p
                corrupted.append(dense_det(v_t[m], p) != good)
            return q_t, v_t
        return degrees, forged, rows
    monkeypatch.setattr(hankel, "_pade_side", spy)
    A = DenseOperator(M, BIG)
    assert det_mod_p(A, InversionConfig(seed=0)) == dense_det(M, P)
    assert corrupted == [True]
    # det's two runs (s = 2, m = 6), and no other
    assert runs == [6, 6]


