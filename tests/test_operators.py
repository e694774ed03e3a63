import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blackbox_linalg import (ButterflyOperator, ComposedOperator,
                             DenseOperator, DiagonalOperator, EmbeddedOperator,
                             LeadingMinorOperator, PrimeField, SparseOperator,
                             matmul_mod)
from blackbox_linalg.errors import DimensionError
from blackbox_linalg.field import PANEL_ELEMENTS

from _oracles import (IdentityOperator, butterfly_reference, butterfly_stages,
                      dense_rank, materialize, sparse_to_dense)

F = PrimeField(10007)
P = F.p


def test_sparse_identity_triples():
    S = SparseOperator(3, [(i, i, 1) for i in range(3)], F)
    v = np.array([5, 6, 7], dtype=np.int64)
    assert np.array_equal(S.apply(v), v)


def test_sparse_shift_matrix():
    S = SparseOperator(2, [(0, 1, 1)], F)  # [[0, 1], [0, 0]]
    v = np.array([3, 4], dtype=np.int64)
    assert np.array_equal(S.apply(v), [4, 0])
    assert np.array_equal(S.apply_transpose(v), [0, 3])


def test_sparse_random_against_dense():
    rng = np.random.default_rng(20)
    n = 50
    seen = set()
    triples = []
    while len(triples) < 200:
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        triples.append((i, j, int(rng.integers(1, P))))
    S = SparseOperator(n, triples, F)
    M = sparse_to_dense(S)
    V = rng.integers(0, P, size=(n, 4), dtype=np.int64)
    assert np.array_equal(S.apply_matrix(V), matmul_mod(M, V, P))
    assert np.array_equal(S.apply_transpose_matrix(V), matmul_mod(M.T, V, P))


def test_sparse_validation():
    with pytest.raises(ValueError):
        SparseOperator(2, [(0, 0, 1), (0, 0, 2)], F)  # duplicate
    with pytest.raises(ValueError):
        SparseOperator(2, [(0, 0, 0)], F)  # explicit zero
    with pytest.raises(DimensionError):
        SparseOperator(2, [(2, 0, 1)], F)  # out of range
    with pytest.raises(DimensionError):
        SparseOperator(2, [(0, 0, 1)], F).apply(np.zeros(3, dtype=np.int64))


def test_diagonal_ones_is_identity():
    D = DiagonalOperator(np.ones(5, dtype=np.int64), F)
    v = np.arange(5, dtype=np.int64)
    assert np.array_equal(D.apply(v), v)


def test_butterfly_dense_equivalence_and_rank():
    rng = np.random.default_rng(22)
    for n in (8, 12):  # power of two and not
        B = ButterflyOperator(n, F, rng)
        M = materialize(B)
        assert dense_rank(M, P) == n
        v = rng.integers(0, P, size=n, dtype=np.int64)
        assert np.array_equal(B.apply(v), matmul_mod(M, v.reshape(-1, 1), P).ravel())
        assert np.array_equal(B.apply_transpose(v),
                              matmul_mod(M.T, v.reshape(-1, 1), P).ravel())


def test_butterfly_transpose_materializes_to_the_transpose():
    # stages reversed with b and c swapped: a butterfly of its own, with
    # fresh counters, whose forward apply is the network's transposed apply
    rng = np.random.default_rng(28)
    for n in (8, 12):
        B = ButterflyOperator(n, F, rng)
        T = B.transpose()
        assert isinstance(T, ButterflyOperator) and T.total_applications == 0
        assert np.array_equal(materialize(T), materialize(B).T)
        assert np.array_equal(materialize(T.transpose()), materialize(B))
        v = rng.integers(0, P, size=n, dtype=np.int64)
        assert np.array_equal(T.apply_transpose(v), B.apply(v))


@settings(max_examples=120, deadline=None, database=None)
@given(st.one_of(st.integers(1, 70), st.sampled_from((1, 2, 4, 8, 16, 32, 64))),
       st.sampled_from(("one", "three", "ragged")),
       st.integers(0, 2**32 - 1))
def test_butterfly_matches_gather_scatter_reference(n, width, seed):
    # the row plan against stage-by-stage gather/scatter, both directions,
    # on one column, three, and more than a panel holds (ragged last panel)
    rng = np.random.default_rng(seed)
    big = PrimeField(2147483629)
    k = {"one": 1, "three": 3, "ragged": PANEL_ELEMENTS // n + 5}[width]
    V = rng.integers(0, big.p, size=(n, k), dtype=np.int64)
    V[rng.random((n, k)) < 0.2] = big.p - 1
    B = ButterflyOperator(n, big, rng)
    # the stages the reference reads are the network's definition: stage t
    # pairs i with i + 2**t inside blocks of 2**(t+1), with det 1 per pair
    assert len(butterfly_stages(B)) == (n - 1).bit_length()
    for t, (lo, hi, a, b, c, d) in enumerate(butterfly_stages(B)):
        span = 1 << t
        assert lo.tolist() == [i for i in range(n - span) if i // span % 2 == 0]
        assert np.array_equal(hi, lo + span)
        assert np.all((a * d - b * c % big.p) % big.p == 1)
    for op in (B, B.transpose(), B.transpose().transpose()):
        for transposed in (False, True):
            assert np.array_equal(op._apply_block(V, transposed),
                                  butterfly_reference(op, V, transposed))


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(st.integers(1, 70), st.sampled_from((64, 529))),
       st.sampled_from(("one", "ragged")), st.integers(0, 2**32 - 1))
def test_butterfly_transpose_in_place_matches_reference(n, width, seed):
    # in place on a block and on the transposed view of a row-major block
    # (what multiplies by U from the right): the reference's result, k
    # applications counted, and the block itself returned
    rng = np.random.default_rng(seed)
    big = PrimeField(2147483629)
    k = {"one": 1, "ragged": PANEL_ELEMENTS // n + 5}[width]
    B = ButterflyOperator(n, big, rng)
    V = rng.integers(0, big.p, size=(n, k), dtype=np.int64)
    expect = butterfly_reference(B, V, True)
    W = V.copy()
    assert B.apply_transpose_in_place(W) is W
    assert np.array_equal(W, expect)
    X = V.T.copy()
    Y = X.T
    assert B.apply_transpose_in_place(Y) is Y
    assert np.array_equal(X.T, expect)
    assert B.transpose_apply_count == 2 * k and B.apply_count == 0
    with pytest.raises(DimensionError):
        B.apply_transpose_in_place(np.zeros((n + 1, 2), dtype=np.int64))


def test_operators_reject_non_integral_entries():
    # values are converted exactly: integral floats and big Python integers
    # are reduced, a fractional entry raises instead of being truncated
    with pytest.raises(ValueError):
        SparseOperator(2, [(0, 0, 1.7), (1, 1, 1)], F)
    with pytest.raises(ValueError):
        DenseOperator([[1.5, 0], [0, 1]], F)
    with pytest.raises(ValueError):
        DenseOperator(np.array([[np.nan, 0], [0, 1]]), F)
    S = SparseOperator(2, [(0, 0, 10**30), (1, 1, 3.0), (0, 1, -10**30)], F)
    assert S.vals.tolist() == [10**30 % P, 3, -10**30 % P]
    D = DenseOperator([[10**30, 2.0], [0, -1]], F)
    assert D.matrix.tolist() == [[10**30 % P, 2], [0, P - 1]]


def _peak_over_output(apply, V):
    tracemalloc.start()
    try:
        out = apply(V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - out.nbytes


def _full_block(seed):
    big = PrimeField(2147483629)
    rng = np.random.default_rng(seed)
    return big, rng, rng.integers(0, big.p, size=(1024, 1024), dtype=np.int64)


def test_butterfly_temporaries_bounded_by_panel_budget():
    # a full 1024 x 1024 block: the output, two panel buffers and the row
    # plan, within 2 MB over the output
    big, rng, V = _full_block(32)
    B = ButterflyOperator(1024, big, rng)
    out, over = _peak_over_output(lambda X: B._apply_block(X, False), V)
    assert over <= 2 * 2**20
    assert np.array_equal(out[:, :3], butterfly_reference(B, V[:, :3], False))


def test_diagonal_temporaries_bounded_by_panel_budget():
    # the product is the output and is reduced in place one row panel at a
    # time: within 2 MB over the output on a full 1024 x 1024 block
    big, rng, V = _full_block(33)
    D = DiagonalOperator.random(1024, big, rng)
    out, over = _peak_over_output(lambda X: D._apply_block(X, False), V)
    assert over <= 2 * 2**20
    assert np.array_equal(out[:, :3], D.d[:, None] * V[:, :3] % big.p)


def test_butterfly_determinant_is_one():
    # a butterfly and its transpose: every preconditioner with no diagonal
    # part is invertible with determinant 1
    from blackbox_linalg import dense_det
    rng = np.random.default_rng(23)
    for n in (4, 8, 11):
        B = ButterflyOperator(n, F, rng)
        for op in (B, B.transpose()):
            assert dense_det(materialize(op), P) == 1


def test_compose_identity_sandwich():
    rng = np.random.default_rng(24)
    A = DenseOperator(rng.integers(0, P, size=(6, 6), dtype=np.int64), F)
    C = ComposedOperator([IdentityOperator(6, F), A, IdentityOperator(6, F)])
    v = rng.integers(0, P, size=6, dtype=np.int64)
    assert np.array_equal(C.apply(v), A.apply(v))


def test_compose_scalar_diagonal():
    rng = np.random.default_rng(25)
    S = SparseOperator(4, [(i, (i + 1) % 4, 3) for i in range(4)], F)
    D = DiagonalOperator(2 * np.ones(4, dtype=np.int64), F)
    C = ComposedOperator([D, S, D])
    v = rng.integers(0, P, size=4, dtype=np.int64)
    assert np.array_equal(C.apply(v), 4 * S.apply(v) % P)


def test_compose_ldu_materialization():
    rng = np.random.default_rng(26)
    n = 6
    U = ButterflyOperator(n, F, rng)
    L = U.transpose()
    d = rng.integers(1, P, size=n, dtype=np.int64)
    D2 = DiagonalOperator(d * d % P, F)
    R = ComposedOperator([L, D2, U])
    got = materialize(R)
    I = np.eye(n, dtype=np.int64)
    expect = matmul_mod(L.apply_matrix(I),
                        matmul_mod(np.diag(d * d % P), U.apply_matrix(I), P), P)
    assert np.array_equal(got, expect)


def _operator_zoo(rng):
    n = 8
    triples = [(int(i), int(j), int(rng.integers(1, P)))
               for i, j in zip(rng.integers(0, n, 20), rng.integers(0, n, 20))]
    triples = list({(i, j): (i, j, v) for i, j, v in triples}.values())
    return [
        SparseOperator(n, triples, F),
        DiagonalOperator.random(n, F, rng),
        ButterflyOperator(n, F, rng),
        ButterflyOperator(n, F, rng).transpose(),
        DenseOperator(rng.integers(0, P, size=(n, n), dtype=np.int64), F),
        EmbeddedOperator(DenseOperator(rng.integers(0, P, size=(5, 5),
                                                    dtype=np.int64), F), n),
        LeadingMinorOperator(DenseOperator(
            rng.integers(0, P, size=(11, 11), dtype=np.int64), F), n),
    ]


def test_adjoint_consistency_all_kinds():
    # w^T (A v) == (A^T w)^T v, 100 random trials per operator kind
    rng = np.random.default_rng(27)
    for op in _operator_zoo(rng):
        for _ in range(100):
            v = rng.integers(0, P, size=op.n, dtype=np.int64)
            w = rng.integers(0, P, size=op.n, dtype=np.int64)
            left = int(np.dot(w.astype(object), op.apply(v).astype(object))) % P
            right = int(np.dot(op.apply_transpose(w).astype(object),
                               v.astype(object))) % P
            assert left == right


def test_counter_totals_under_composition():
    rng = np.random.default_rng(29)
    n = 6
    A = DenseOperator(rng.integers(0, P, size=(n, n), dtype=np.int64), F)
    D = DiagonalOperator.random(n, F, rng)
    C = ComposedOperator([D, A, D])
    V = rng.integers(0, P, size=(n, 3), dtype=np.int64)
    C.apply_matrix(V)
    C.apply(V[:, 0])
    assert C.apply_count == 4
    assert A.apply_count == 4
    assert D.apply_count == 8  # applied twice per composition pass
    A.apply_transpose(V[:, 0])
    assert A.transpose_apply_count == 1
    assert A.total_applications == 5


def test_linearity_spot_check_all_kinds():
    # apply(a v + b w) == a apply(v) + b apply(w) for every operator kind
    rng = np.random.default_rng(30)
    for op in _operator_zoo(rng):
        for _ in range(10):
            a, b = (int(x) for x in rng.integers(0, P, size=2))
            v = rng.integers(0, P, size=op.n, dtype=np.int64)
            w = rng.integers(0, P, size=op.n, dtype=np.int64)
            left = op.apply((a * v + b * w) % P)
            right = (a * op.apply(v) + b * op.apply(w)) % P
            assert np.array_equal(left, right), type(op).__name__


def test_leading_minor_matches_dense_submatrix():
    # embed-truncate restriction agrees with dense submatrix extraction
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        r = int(rng.integers(1, n))
        M = rng.integers(0, P, size=(n, n), dtype=np.int64)
        op = LeadingMinorOperator(DenseOperator(M, F), r)
        V = rng.integers(0, P, size=(r, 3), dtype=np.int64)
        assert np.array_equal(op.apply_matrix(V), matmul_mod(M[:r, :r], V, P))
        assert np.array_equal(op.apply_transpose_matrix(V),
                              matmul_mod(M[:r, :r].T, V, P))


def test_sparse_apply_temporaries_bounded_by_panel_budget():
    # 512 rows, 5 nonzeros per row, applied to 512 columns: the column
    # panels keep the temporaries far below the nnz x k products (about
    # 20 MB when they are built in one go)
    from blackbox_linalg.cli import random_sparse_operator
    big = PrimeField(2147483629)
    rng = np.random.default_rng(26)
    S = random_sparse_operator(512, 5, big, rng)
    V = rng.integers(0, big.p, size=(512, 512), dtype=np.int64)
    tracemalloc.start()
    try:
        out = S._apply_block(V, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * 2**20
    dense = sparse_to_dense(S)
    assert np.array_equal(out, matmul_mod(dense, V, big.p))
    assert np.array_equal(S._apply_block(V, True), matmul_mod(dense.T, V, big.p))


def _random_sparse(rng, n, p, fill):
    """A SparseOperator over p with about ``fill`` of its entries nonzero
    (possibly none), values near p - 1 among them."""
    mask = rng.random((n, n)) < fill
    vals = rng.integers(1, p, size=(n, n), dtype=np.int64)
    vals[rng.random((n, n)) < 0.3] = p - 1
    rows, cols = np.nonzero(mask)
    return SparseOperator(n, list(zip(rows.tolist(), cols.tolist(),
                                      vals[rows, cols].tolist())), PrimeField(p))


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 30), st.floats(0.0, 0.5), st.integers(1, 200), st.booleans(),
       st.lists(st.tuples(st.integers(0, 13), st.booleans()), min_size=2, max_size=6),
       st.integers(0, 2**32 - 1))
def test_sparse_apply_reuses_buffers_across_widths(n, fill, panel, held, applies, seed):
    # one operator, consecutive applies of different widths in both
    # directions, with a panel budget small enough for several panels per
    # apply: a stale or undersized kept buffer shows against the dense
    # product.  Without ``held`` the scratch bound is as small as a panel,
    # so that wider panels take fresh buffers
    import blackbox_linalg.field as field
    import blackbox_linalg.operators as operators
    p = 2147483629
    rng = np.random.default_rng(seed)
    S = _random_sparse(rng, n, p, fill)
    dense = sparse_to_dense(S).astype(object)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "PANEL_ELEMENTS", panel)
        if not held:
            mp.setattr(field, "PANEL_ELEMENTS", panel)
        for k, transposed in applies:
            V = rng.integers(0, p, size=(n, k), dtype=np.int64)
            want = ((dense.T if transposed else dense) @ V.astype(object)) % p
            got = S._apply_block(V, transposed)
            assert got.shape == (n, k)
            assert np.array_equal(got, want.astype(np.int64)), (k, transposed)


def test_concurrent_applies_match_single_thread():
    # two threads apply one SparseOperator, and a composition holding it, to
    # different blocks at once: every result is the single-thread one and
    # the counters add up exactly.  The sparse panels and the dense factor's
    # limb GEMM products live in per-thread scratch
    import sys
    import threading
    from blackbox_linalg.cli import random_sparse_operator
    rng = np.random.default_rng(34)
    big = PrimeField(2147483629)
    S = random_sparse_operator(300, 5, big, rng)
    C = ComposedOperator([DiagonalOperator.random(300, big, rng), S,
                          ButterflyOperator(300, big, rng),
                          DenseOperator(rng.integers(0, big.p, size=(300, 300)), big)])
    rounds = 12
    # one thread's blocks fit one sparse panel, the other's need several
    jobs = [[(op, rng.integers(0, big.p, size=(300, k + i), dtype=np.int64), tr)
             for i in range(4) for op in (S, C) for tr in (False, True)]
            for k in (3, 70)]
    want = [[op._apply_block(V, tr) for op, V, tr in calls] for calls in jobs]
    before = [(op.apply_count, op.transpose_apply_count) for op in (S, C)]
    results, errors = [[] for _ in jobs], []
    start = threading.Barrier(len(jobs))

    def run(t):
        try:
            start.wait(timeout=60)
            for _ in range(rounds):
                for op, V, tr in jobs[t]:
                    apply = op.apply_transpose_matrix if tr else op.apply_matrix
                    results[t].append(apply(V))
        except Exception as exc:  # reported by the test thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for t, calls in enumerate(jobs):
        assert len(results[t]) == rounds * len(calls)
        for i, out in enumerate(results[t]):
            assert np.array_equal(out, want[t][i % len(calls)]), (t, i)

    def width(direct, transposed):
        return rounds * sum(V.shape[1] for calls in jobs for op, V, tr in calls
                            if op in direct and tr == transposed)

    # S counts its own applies and, once more, every apply of C
    for op, (fw, bw), direct in ((S, before[0], (S, C)), (C, before[1], (C,))):
        assert op.apply_count - fw == width(direct, False)
        assert op.transpose_apply_count - bw == width(direct, True)
