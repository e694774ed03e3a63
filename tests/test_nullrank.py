import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blackbox_linalg import (DenseOperator, InversionConfig, PrimeField,
                             SparseOperator, berlekamp_massey, dense_inverse,
                             matmul_mod, nullspace_rank, wiedemann_minpoly)
from blackbox_linalg.errors import RetriesExhausted

from _oracles import (IdentityOperator, berlekamp_massey_reference, dense_rank,
                      poly_from_roots)

BIG = PrimeField(2147483629)
P = BIG.p


def _nonsingular(rng, n):
    M = rng.integers(0, P, size=(n, n), dtype=np.int64)
    while dense_rank(M, P) < n:
        M = rng.integers(0, P, size=(n, n), dtype=np.int64)
    return M


def _low_rank(rng, n, r):
    return matmul_mod(rng.integers(0, P, size=(n, r), dtype=np.int64),
                      rng.integers(0, P, size=(r, n), dtype=np.int64), P)


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


@st.composite
def _sequences(draw):
    p = draw(st.sampled_from((3, 65537, 2147483629)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(("random", "recurrence", "zero", "zero-prefix")))
    if kind == "zero":
        return [0] * N, p
    if kind == "recurrence":
        # a_{i+deg} = sum_j c_j a_{i+j} from random start values
        deg = draw(st.integers(1, 12))
        c = rng.integers(0, p, size=deg).tolist()
        seq = rng.integers(0, p, size=deg).tolist()
        while len(seq) < N:
            seq.append(sum(cj * x for cj, x in zip(c, seq[-deg:])) % p)
        return seq[:N], p
    seq = rng.integers(0, p, size=N).tolist()
    if kind == "zero-prefix":
        z = draw(st.integers(0, N))
        seq[:z] = [0] * z
    return seq, p


@settings(max_examples=300, deadline=None, database=None)
@given(_sequences())
def test_bm_matches_reference(case):
    seq, p = case
    got = berlekamp_massey(seq, p)
    expect = berlekamp_massey_reference(seq, p)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


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
    V = _nonsingular(rng, n)
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
    M = _nonsingular(np.random.default_rng(3), 9)
    cert = nullspace_rank(DenseOperator(M, BIG), InversionConfig(seed=1))
    assert cert.rank == 9
    assert cert.nullspace.shape == (9, 0)


def test_nullspace_random_low_rank():
    rng = np.random.default_rng(4)
    n = 20
    for r in (5, 13):
        for trial in range(3):
            A = _low_rank(rng, n, r)
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


def test_full_rank_certified_by_minpoly_degree(monkeypatch):
    # a degree-n minimal generator with f(0) != 0 is the characteristic
    # polynomial of U A V^T D: rank n with no inversion at all, for the
    # 2n - 1 applications of the estimate
    import blackbox_linalg.inverse as inverse
    import blackbox_linalg.nullrank as nullrank
    A = DenseOperator(_nonsingular(np.random.default_rng(5), 9), BIG)
    solves = []

    def spy(*args, **kwargs):
        solves.append(args)
        raise AssertionError("no inversion may run")
    monkeypatch.setattr(nullrank, "blackbox_inverse_apply", spy)
    monkeypatch.setattr(inverse, "_solve", spy)
    cert = nullspace_rank(A, InversionConfig(seed=1))
    assert cert.rank == 9
    assert cert.nullspace.shape == (9, 0)
    assert solves == []
    assert cert.stats["retries"] == 0
    assert cert.stats["bb_apply_count"] == 2 * 9 - 1 == 17


def test_short_minpoly_with_nonzero_constant_is_not_rank_n(monkeypatch):
    # f(0) != 0 with deg f < n proves nothing: the attempt retries
    import blackbox_linalg.nullrank as nullrank
    inner = nullrank.wiedemann_minpoly
    calls = []

    def short_first(A, rng):
        calls.append(A.n)
        f = inner(A, rng)
        return np.array([3, 1], dtype=np.int64) if len(calls) == 1 else f
    monkeypatch.setattr(nullrank, "wiedemann_minpoly", short_first)
    A = DenseOperator(_nonsingular(np.random.default_rng(6), 9), BIG)
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert cert.rank == 9
    assert cert.stats["retries"] == 1
    assert len(calls) == 2

    monkeypatch.setattr(nullrank, "wiedemann_minpoly",
                        lambda A, rng: np.array([3, 1], dtype=np.int64))
    S = DenseOperator(_low_rank(np.random.default_rng(7), 9, 4), BIG)
    with pytest.raises(RetriesExhausted):
        nullspace_rank(S, InversionConfig(seed=0, max_retries=3))


def test_minor_failures_recover(monkeypatch):
    import blackbox_linalg.inverse as inverse
    import blackbox_linalg.nullrank as nullrank
    from blackbox_linalg.errors import HankelSingular, SingularMatrix
    n, r = 20, 13
    M = _low_rank(np.random.default_rng(8), n, r)
    A = DenseOperator(M, BIG)

    # a failed first Hankel inverse in the minor solve runs one nested
    # certificate on the r x r minor, which finds it nonsingular; the
    # solve's next attempt succeeds within the same outer attempt
    reps, certs = [], []
    inner_rep = inverse.hankel_inverse_rep
    inner_cert = inverse._singular_certificate

    def rep(*args):
        reps.append(args)
        if len(reps) == 1:
            raise HankelSingular("forced")
        return inner_rep(*args)

    def cert_spy(B, cfg):
        certs.append(B.n)
        return inner_cert(B, cfg)
    monkeypatch.setattr(inverse, "hankel_inverse_rep", rep)
    monkeypatch.setattr(inverse, "_singular_certificate", cert_spy)
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert certs == [r]
    assert (cert.rank, cert.stats["retries"]) == (r, 0)
    assert not matmul_mod(M, cert.nullspace, P).any()
    assert dense_rank(cert.nullspace, P) == n - r
    monkeypatch.undo()

    # a minor proved singular costs exactly one outer retry
    inner_solve = nullrank.blackbox_inverse_apply
    solves = []

    def singular_first(*args, **kwargs):
        solves.append(args)
        if len(solves) == 1:
            raise SingularMatrix(np.zeros(r, dtype=np.int64))
        return inner_solve(*args, **kwargs)
    monkeypatch.setattr(nullrank, "blackbox_inverse_apply", singular_first)
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert len(solves) == 2
    assert (cert.rank, cert.stats["retries"]) == (r, 1)
    assert not matmul_mod(M, cert.nullspace, P).any()
    assert dense_rank(cert.nullspace, P) == n - r


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
        M = _nonsingular(rng, n)
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
