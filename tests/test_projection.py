import numpy as np
import pytest

from blackbox_linalg import (BlockProjection, DenseOperator, DiagonalOperator,
                             PrimeField, SparseOperator, krylov_apply_left,
                             krylov_apply_right, matmul_mod, u_contract,
                             u_expand)
from blackbox_linalg.errors import DimensionError

from _oracles import IdentityOperator, dense_rank, krylov_sequence

F = PrimeField(10007)
P = F.p


def test_projection_geometry():
    bp = BlockProjection(12, 3)
    assert bp.m == 4
    u = bp.u_matrix()
    assert u.shape == (12, 3)
    assert int(u.sum()) == 12  # exactly n nonzero entries
    with pytest.raises(DimensionError):
        BlockProjection(10, 4)


def test_u_contract_identity_columns():
    bp = BlockProjection(4, 2)
    got = u_contract(bp, np.eye(4, dtype=np.int64), P)
    assert np.array_equal(got, np.array([[1, 0, 1, 0], [0, 1, 0, 1]]))


def test_u_contract_zero_and_random():
    bp = BlockProjection(12, 3)
    assert not u_contract(bp, np.zeros((12, 5), dtype=np.int64), P).any()
    rng = np.random.default_rng(30)
    W = rng.integers(0, P, size=(12, 7), dtype=np.int64)
    expect = matmul_mod(bp.u_matrix().T, W, P)
    assert np.array_equal(u_contract(bp, W, P), expect)


def test_u_expand_examples():
    bp = BlockProjection(6, 2)
    got = u_expand(bp, np.eye(2, dtype=np.int64), P)
    assert np.array_equal(got, np.tile(np.eye(2, dtype=np.int64), (3, 1)))
    assert not u_expand(bp, np.zeros((2, 4), dtype=np.int64), P).any()
    rng = np.random.default_rng(31)
    M = rng.integers(0, P, size=(2, 5), dtype=np.int64)
    assert np.array_equal(u_expand(bp, M, P), matmul_mod(bp.u_matrix(), M, P))


def test_contract_expand_roundtrip_is_m_times():
    bp = BlockProjection(15, 3)
    rng = np.random.default_rng(32)
    M = rng.integers(0, P, size=(3, 4), dtype=np.int64)
    assert np.array_equal(u_contract(bp, u_expand(bp, M, P), P), 5 * M % P)


def test_krylov_sequence_identity_operator():
    bp = BlockProjection(6, 2)
    B = IdentityOperator(6, F)
    seq = krylov_sequence(B, bp, 3, side="right")
    for blk in seq.blocks:
        assert np.array_equal(blk, bp.u_matrix())
    assert dense_rank(seq.assemble(), P) == 2
    assert B.apply_count == (3 - 1) * 2  # exact closed form


def test_krylov_sequence_distinct_diagonal_full_rank():
    bp = BlockProjection(4, 2)
    B = DiagonalOperator(np.array([1, 2, 3, 4], dtype=np.int64), F)
    seq = krylov_sequence(B, bp, 2, side="right")
    assert dense_rank(seq.assemble(), P) == 4


def _conditioned_operator(rng, n, s):
    """D A D with A = L U (unit lower times nonsingular upper): all leading
    minors of A are nonzero, so the full Krylov matrix is nonsingular for
    generic diagonals."""
    L = np.tril(rng.integers(0, P, size=(n, n), dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(0, P, size=(n, n), dtype=np.int64), 1) + np.diag(
        rng.integers(1, P, size=n, dtype=np.int64))
    A = matmul_mod(L, U, P)
    d = np.repeat(rng.integers(1, P, size=n // s, dtype=np.int64), s)
    B = matmul_mod(np.diag(d), matmul_mod(A, np.diag(d), P), P)
    return DenseOperator(B, F)


def test_krylov_sequence_conditioned_nonsingular():
    rng = np.random.default_rng(33)
    B = _conditioned_operator(rng, 16, 4)
    bp = BlockProjection(16, 4)
    seq = krylov_sequence(B, bp, 4, side="right")
    assert dense_rank(seq.assemble(), P) == 16


def test_left_sequence_shape_and_value():
    rng = np.random.default_rng(34)
    B = DenseOperator(rng.integers(0, P, size=(6, 6), dtype=np.int64), F)
    bp = BlockProjection(6, 2)
    seq = krylov_sequence(B, bp, 3, side="left")
    u = bp.u_matrix()
    expect = u.T.copy()
    for i, blk in enumerate(seq.blocks):
        assert blk.shape == (2, 6)
        assert np.array_equal(blk, expect)
        expect = matmul_mod(expect, B.matrix, P)
    assert B.transpose_apply_count == (3 - 1) * 2


def test_krylov_apply_right_m1_and_zero():
    bp1 = BlockProjection(4, 4)  # m = 1: K = u = I
    rng = np.random.default_rng(35)
    M = rng.integers(0, P, size=(4, 3), dtype=np.int64)
    B = DenseOperator(rng.integers(0, P, size=(4, 4), dtype=np.int64), F)
    assert np.array_equal(krylov_apply_right(B, bp1, M), M)
    # zero operator: only the first row slice survives (Horner collapse)
    bp = BlockProjection(6, 2)
    Z = SparseOperator(6, [], F)
    M = rng.integers(0, P, size=(6, 4), dtype=np.int64)
    assert np.array_equal(krylov_apply_right(Z, bp, M), u_expand(bp, M[:2], P))


def test_krylov_apply_right_against_materialization():
    rng = np.random.default_rng(36)
    n, s = 12, 3
    bp = BlockProjection(n, s)
    B = DenseOperator(rng.integers(0, P, size=(n, n), dtype=np.int64), F)
    M = rng.integers(0, P, size=(n, n), dtype=np.int64)
    before = B.apply_count
    got = krylov_apply_right(B, bp, M)
    assert B.apply_count - before == (bp.m - 1) * n  # exact closed form
    K = krylov_sequence(B, bp, bp.m, side="right").assemble()
    assert np.array_equal(got, matmul_mod(K, M, P))


@pytest.mark.parametrize("panel", [1 << 16, 60])
def test_krylov_horner_against_repeated_application(monkeypatch, panel):
    # sum_j B^j v G_j for d + 1 = 1, 2 and 6 coefficients of k = 1 and 3
    # columns, against plain repeated application: d k applications, with
    # the terms v G_j in one panel, or with a panel budget of 60 entries
    # (runs of one coefficient at k = 3, of five at k = 1)
    import blackbox_linalg.projection as projection
    from blackbox_linalg.projection import krylov_horner
    monkeypatch.setattr(projection, "PANEL_ELEMENTS", panel)
    rng = np.random.default_rng(38)
    n, s = 12, 3
    B = DenseOperator(rng.integers(0, P, size=(n, n), dtype=np.int64), F)
    v = rng.integers(0, P, size=(n, s), dtype=np.int64)
    for d in (0, 1, 5):
        for k in (1, 3):
            G = rng.integers(0, P, size=(d + 1, s, k), dtype=np.int64)
            want, w = np.zeros((n, k), dtype=np.int64), v
            for j in range(d + 1):
                want = (want + matmul_mod(w, G[j], P)) % P
                w = matmul_mod(B.matrix, w, P)
            before = B.apply_count
            assert np.array_equal(krylov_horner(B, v, G), want), (d, k)
            assert B.apply_count - before == d * k


def test_krylov_apply_left_m1_identity_and_random():
    rng = np.random.default_rng(37)
    bp1 = BlockProjection(4, 4)
    B4 = DenseOperator(rng.integers(0, P, size=(4, 4), dtype=np.int64), F)
    M = rng.integers(0, P, size=(4, 2), dtype=np.int64)
    assert np.array_equal(krylov_apply_left(B4, bp1, M), M)

    n, s = 12, 3
    bp = BlockProjection(n, s)
    I_op = IdentityOperator(n, F)
    M = rng.integers(0, P, size=(n, n), dtype=np.int64)
    got = krylov_apply_left(I_op, bp, M)
    for i in range(bp.m):
        assert np.array_equal(got[i * s:(i + 1) * s], u_contract(bp, M, P))

    B = DenseOperator(rng.integers(0, P, size=(n, n), dtype=np.int64), F)
    before = B.apply_count
    got = krylov_apply_left(B, bp, M)
    assert B.apply_count - before == (bp.m - 1) * n
    Kl = krylov_sequence(B, bp, bp.m, side="left").assemble()
    assert np.array_equal(got, matmul_mod(Kl, M, P))


def test_leading_minor_theorem_property():
    # matrices with all leading ks x ks minors nonzero: K_m(DAD, u) is
    # nonsingular in >= 75% of 200 random diagonal specializations, and
    # resampling always finds a good D within 8 attempts
    rng = np.random.default_rng(41)
    n, s = 12, 3
    m = n // s
    bp = BlockProjection(n, s)
    successes = 0
    trials = 200
    for trial in range(trials):
        L = np.tril(rng.integers(0, P, size=(n, n), dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
        U = np.triu(rng.integers(0, P, size=(n, n), dtype=np.int64), 1) + np.diag(
            rng.integers(1, P, size=n, dtype=np.int64))
        A = matmul_mod(L, U, P)

        def krylov_ok():
            d = np.repeat(rng.integers(1, P, size=m, dtype=np.int64), s)
            B = matmul_mod(np.diag(d), matmul_mod(A, np.diag(d), P), P)
            K = krylov_sequence(DenseOperator(B, F), bp, m, side="right").assemble()
            return dense_rank(K, P) == n

        if krylov_ok():
            successes += 1
        else:
            assert any(krylov_ok() for _ in range(8)), "no good D within 8 resamples"
    assert successes >= 0.75 * trials
