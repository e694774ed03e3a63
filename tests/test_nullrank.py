import itertools

import numpy as np

from blackbox_linalg import (DenseOperator, InversionConfig, PrimeField,
                             SparseOperator, berlekamp_massey, dense_inverse,
                             matmul_mod, nullspace_rank, wiedemann_minpoly)
from blackbox_linalg.errors import RetriesExhausted

from _oracles import IdentityOperator, dense_rank, poly_from_roots

BIG = PrimeField(2147483629)
P = BIG.p


def test_bm_geometric_sequence():
    p = 10007
    c = 29
    seq = [pow(c, i, p) for i in range(12)]
    f = berlekamp_massey(seq, p)
    assert np.array_equal(f, np.array([(-c) % p, 1]))  # x - c


def test_bm_fibonacci_recurrence():
    p = 10007
    seq = [1, 1]
    for _ in range(14):
        seq.append((seq[-1] + seq[-2]) % p)
    f = berlekamp_massey(seq, p)
    # minimal polynomial x^2 - x - 1
    assert np.array_equal(f, np.array([p - 1, p - 1, 1]))
    # annihilation on every window
    for i in range(len(seq) - 2):
        assert sum(int(f[j]) * seq[i + j] for j in range(3)) % p == 0


def test_minpoly_zero_operator():
    A = SparseOperator(5, [], BIG)  # the zero matrix
    f = wiedemann_minpoly(A, np.random.default_rng(0))
    assert np.array_equal(f, np.array([0, 1]))  # x


def test_minpoly_identity():
    A = IdentityOperator(5, BIG)
    f = wiedemann_minpoly(A, np.random.default_rng(1))
    assert np.array_equal(f, np.array([P - 1, 1]))  # x - 1


def test_minpoly_distinct_eigenvalues_matches_charpoly():
    rng = np.random.default_rng(2)
    n = 10
    lam = np.arange(2, 2 + n, dtype=np.int64)  # distinct eigenvalues
    V = rng.integers(0, P, size=(n, n), dtype=np.int64)
    while dense_rank(V, P) < n:
        V = rng.integers(0, P, size=(n, n), dtype=np.int64)
    A = matmul_mod(V, matmul_mod(np.diag(lam), dense_inverse(V, P), P), P)
    f = wiedemann_minpoly(DenseOperator(A, BIG), rng)
    assert len(f) == n + 1
    assert np.array_equal(f, poly_from_roots(lam, P))


def test_nullspace_zero_matrix():
    A = SparseOperator(6, [], BIG)  # the zero matrix
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert cert.rank == 0
    assert cert.nullspace.shape == (6, 6)
    assert dense_rank(cert.nullspace, P) == 6
    assert not A.apply_matrix(cert.nullspace).any()


def test_nullspace_diag_1100():
    M = np.diag(np.array([1, 1, 0, 0], dtype=np.int64))
    A = DenseOperator(M, BIG)
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert cert.rank == 2
    N = cert.nullspace
    assert N.shape == (4, 2)
    assert not matmul_mod(M, N, P).any()
    assert dense_rank(N, P) == 2
    # kernel of diag(1,1,0,0) is span(e3, e4): the first two rows must vanish
    assert not N[:2].any()


def test_nullspace_nonsingular_input():
    rng = np.random.default_rng(3)
    M = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    while dense_rank(M, P) < 9:
        M = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    cert = nullspace_rank(DenseOperator(M, BIG), InversionConfig(seed=1))
    assert cert.rank == 9
    assert cert.nullspace.shape == (9, 0)


def test_nullspace_random_low_rank():
    rng = np.random.default_rng(4)
    n = 20
    for r in (5, 13):
        for trial in range(3):
            A = matmul_mod(rng.integers(0, P, size=(n, r), dtype=np.int64),
                           rng.integers(0, P, size=(r, n), dtype=np.int64), P)
            cert = nullspace_rank(DenseOperator(A, BIG), InversionConfig(seed=trial))
            assert cert.rank == dense_rank(A, P) == r
            N = cert.nullspace
            assert N.shape == (n, n - r)
            assert not matmul_mod(A, N, P).any()
            assert dense_rank(N, P) == n - r


def test_nullspace_small_field_fails_loudly():
    # a field below the inversion bound must fail with a hard error,
    # never return an uncertified answer
    from blackbox_linalg.errors import FieldTooSmall
    small = PrimeField(5)
    A = DenseOperator(np.array([[1, 2], [2, 4]], dtype=np.int64), small)
    try:
        cert = nullspace_rank(A, InversionConfig(seed=0, max_retries=1))
    except (RetriesExhausted, FieldTooSmall):
        return
    assert cert.rank == 1
    assert not matmul_mod(A.matrix, cert.nullspace, 5).any()


def test_full_rank_certified_by_inverting_a_itself(monkeypatch):
    # U A V^T D serves the estimate only; the verified inverse is of A, so
    # no preconditioner sits on the certificate's Krylov sweeps
    import blackbox_linalg.nullrank as nullrank
    rng = np.random.default_rng(5)
    M = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    while dense_rank(M, P) < 9:
        M = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    A = DenseOperator(M, BIG)
    inverted = []
    inner = nullrank.blackbox_inverse

    def spy(op, *args, **kwargs):
        inverted.append(op)
        return inner(op, *args, **kwargs)
    monkeypatch.setattr(nullrank, "blackbox_inverse", spy)
    cert = nullspace_rank(A, InversionConfig(seed=1))
    assert cert.rank == 9
    assert len(inverted) == 1 and inverted[0] is A


def test_butterflies_keep_generic_rank_profile_on_dead_rows_and_columns(monkeypatch):
    # every proper set of dead rows and every proper set of dead columns of
    # a random dense n x n matrix, n = 2..6 (228 runs): the first
    # preconditioning U A V^T D must give the exact rank, so each run makes
    # exactly one minimal-polynomial estimate.  A forward butterfly in place
    # of V^T loses the rank profile on some of these column sets.
    import blackbox_linalg.nullrank as nullrank
    estimates = []
    inner = nullrank.wiedemann_minpoly

    def spy(A, rng):
        estimates.append(A.n)
        return inner(A, rng)
    monkeypatch.setattr(nullrank, "wiedemann_minpoly", spy)
    rng = np.random.default_rng(40)
    runs = 0
    for n in range(2, 7):
        M = rng.integers(0, P, size=(n, n), dtype=np.int64)
        while dense_rank(M, P) < n:
            M = rng.integers(0, P, size=(n, n), dtype=np.int64)
        for k in range(1, n):
            for dead in itertools.combinations(range(n), k):
                for axis in ("rows", "columns"):
                    A = M.copy()
                    if axis == "rows":
                        A[list(dead)] = 0
                    else:
                        A[:, list(dead)] = 0
                    estimates.clear()
                    cert = nullspace_rank(DenseOperator(A, BIG),
                                          InversionConfig(seed=runs))
                    where = (n, dead, axis)
                    assert cert.rank == n - k, where
                    assert len(estimates) == 1, where
                    assert not matmul_mod(A, cert.nullspace, P).any(), where
                    runs += 1
    assert runs == 228
