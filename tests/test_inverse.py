import tracemalloc

import numpy as np
import pytest

import blackbox_linalg.determinant as determinant
import blackbox_linalg.hankel as hankel
import blackbox_linalg.inverse as inverse
from blackbox_linalg import (DenseOperator, DiagonalOperator, InversionConfig,
                             PrimeField, SparseOperator, blackbox_inverse,
                             blackbox_inverse_apply, dense_inverse, det_mod_p,
                             matmul_mod, nullspace_rank, precondition,
                             verify_inverse)
from blackbox_linalg.cli import random_sparse_operator
from blackbox_linalg.errors import (DimensionError, FieldTooSmall,
                                   HankelSingular, RetriesExhausted,
                                   SingularMatrix)
from blackbox_linalg.hankel import (build_hankel, hankel_inverse_apply,
                                    hankel_inverse_rep)
from blackbox_linalg.projection import BlockProjection, krylov_apply_right

from _oracles import (IdentityOperator, dense_rank, kernel_certificate_reference,
                      materialize, sparse_to_dense)

BIG = PrimeField(2147483629)


def nonsingular_sparse(rng, n, field, density=5):
    while True:
        A = random_sparse_operator(n, density, field, rng)
        if dense_rank(sparse_to_dense(A), field.p) == n:
            return A


def test_precondition_materializes_to_duad():
    rng = np.random.default_rng(71)
    n = 8
    A = nonsingular_sparse(rng, n, BIG)
    B, D, U, unwrap = precondition(A, 2, rng)
    p = BIG.p
    M = matmul_mod(np.diag(D.d), matmul_mod(
        materialize(U), matmul_mod(sparse_to_dense(A), np.diag(D.d), p), p), p)
    assert np.array_equal(materialize(B), M)


def test_precondition_field_bound():
    small = PrimeField(13)
    rng = np.random.default_rng(72)
    A = IdentityOperator(16, small)
    with pytest.raises(FieldTooSmall):
        precondition(A, 4, rng)
    # the bound comes before any application, also for a singular input
    S = DenseOperator(np.array([[1, 2, 0], [2, 4, 0], [0, 0, 3]]), PrimeField(5))
    with pytest.raises(FieldTooSmall):
        blackbox_inverse(S)
    assert S.total_applications == 0


def test_butterfly_leading_minor_property():
    # fixed nonsingular A (n = 16): all leading ks x ks minors of U A
    # nonzero for >= 70 of 100 seeds
    from blackbox_linalg import ButterflyOperator
    rng = np.random.default_rng(73)
    n, s = 16, 4
    p = BIG.p
    A = sparse_to_dense(nonsingular_sparse(rng, n, BIG))
    good = 0
    for seed in range(100):
        U = ButterflyOperator(n, BIG, np.random.default_rng(seed))
        UA = U.apply_matrix(A)
        ok = all(dense_rank(UA[:k * s, :k * s], p) == k * s
                 for k in range(1, n // s + 1))
        good += ok
    assert good >= 70


def test_inverse_identity():
    A = IdentityOperator(6, BIG)
    res = blackbox_inverse(A, InversionConfig(seed=0))
    assert np.array_equal(res.matrix, np.eye(6, dtype=np.int64))
    assert res.stats.retries == 0


def test_inverse_diagonal_known():
    field = PrimeField(10007)
    n = 16
    d = np.arange(1, n + 1, dtype=np.int64)
    A = DiagonalOperator(d, field)
    res = blackbox_inverse(A, InversionConfig(s=4, seed=1))
    expect = np.diag([field.inv(int(x)) for x in d]).astype(np.int64)
    assert np.array_equal(res.matrix, expect)


def test_inverse_random_sparse_multiple_sizes():
    rng = np.random.default_rng(74)
    for n in (12, 24, 48):
        for trial in range(5):
            A = nonsingular_sparse(rng, n, BIG)
            res = blackbox_inverse(A, InversionConfig(seed=trial))
            expect = dense_inverse(sparse_to_dense(A), BIG.p)
            assert np.array_equal(res.matrix, expect)


def test_inverse_counter_bound():
    # accepted attempts stay within 3 m n applications for s = sqrt(n)
    rng = np.random.default_rng(75)
    for n in (16, 64):
        A = nonsingular_sparse(rng, n, BIG)
        res = blackbox_inverse(A, InversionConfig(seed=0))
        m = res.stats.m
        assert res.stats.bb_applies_last_attempt <= 3 * m * n


def test_inverse_nondividing_block_size_pads():
    rng = np.random.default_rng(76)
    A = nonsingular_sparse(rng, 10, BIG)
    res = blackbox_inverse(A, InversionConfig(s=4, seed=0))
    assert np.array_equal(res.matrix, dense_inverse(sparse_to_dense(A), BIG.p))


def test_inverse_singular_certificate():
    rng = np.random.default_rng(77)
    p = BIG.p
    a = rng.integers(0, p, size=(8, 3), dtype=np.int64)
    b = rng.integers(0, p, size=(3, 8), dtype=np.int64)
    A = DenseOperator(matmul_mod(a, b, p), BIG)
    with pytest.raises(SingularMatrix) as exc:
        blackbox_inverse(A, InversionConfig(seed=0, max_retries=2))
    kv = exc.value.kernel_vector
    assert kv.any()
    assert not A.apply(kv).any()


def test_apply_inverse_zero_rhs():
    rng = np.random.default_rng(78)
    A = nonsingular_sparse(rng, 12, BIG)
    res = blackbox_inverse_apply(A, np.zeros((12, 3), dtype=np.int64),
                                 InversionConfig(seed=0))
    assert not res.matrix.any()


def test_apply_inverse_identity_consistency():
    # n = 13 pads to 16 (auto s = 4): M = I gives the inverse byte for byte
    rng = np.random.default_rng(79)
    for n in (12, 13):
        A = nonsingular_sparse(rng, n, BIG)
        cfg = InversionConfig(seed=5)
        r1 = blackbox_inverse(A, cfg)
        r2 = blackbox_inverse_apply(A, np.eye(n, dtype=np.int64), cfg)
        assert np.array_equal(r1.matrix, r2.matrix)


def test_apply_inverse_random_rhs():
    rng = np.random.default_rng(80)
    A = nonsingular_sparse(rng, 24, BIG)
    M = rng.integers(0, BIG.p, size=(24, 5), dtype=np.int64)
    res = blackbox_inverse_apply(A, M, InversionConfig(seed=0))
    expect = matmul_mod(dense_inverse(sparse_to_dense(A), BIG.p), M, BIG.p)
    assert np.array_equal(res.matrix, expect)


def test_apply_inverse_vector_rhs():
    rng = np.random.default_rng(81)
    A = nonsingular_sparse(rng, 12, BIG)
    b = rng.integers(0, BIG.p, size=12, dtype=np.int64)
    res = blackbox_inverse_apply(A, b, InversionConfig(seed=0))
    assert res.matrix.shape == (12,)
    assert np.array_equal(A.apply(res.matrix), b)


def test_verify_inverse():
    rng = np.random.default_rng(82)
    assert verify_inverse(IdentityOperator(4, BIG), np.eye(4, dtype=np.int64))
    A = nonsingular_sparse(rng, 8, BIG)
    X = dense_inverse(sparse_to_dense(A), BIG.p)
    before = A.apply_count
    assert verify_inverse(A, X)
    assert A.apply_count - before == 8  # exactly n applications
    X[3, 5] = (X[3, 5] + 1) % BIG.p
    assert not verify_inverse(A, X)


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize("panel", ["first", "last"])
def test_verify_inverse_checks_every_panel(monkeypatch, where, panel):
    # panels of 4 columns split n = 18 into five (the last one ragged); a
    # diagonal A makes a wrong entry of X a wrong entry of A X at the same
    # place.  An identity check costs exactly n applications, made in
    # panel-wide blocks, whatever its outcome
    field = PrimeField(10007)
    n = 18
    monkeypatch.setattr(inverse, "PANEL_ELEMENTS", 4 * n)
    d = np.arange(2, n + 2, dtype=np.int64)
    A = DiagonalOperator(d, field)
    X = np.diag([field.inv(int(x)) for x in d]).astype(np.int64)
    widths = []
    apply_matrix = A.apply_matrix

    def logged(V):
        widths.append(V.shape[1])
        return apply_matrix(V)
    monkeypatch.setattr(A, "apply_matrix", logged)
    assert verify_inverse(A, X)
    assert widths == [4, 4, 4, 4, 2]
    col = {"first": 1, "last": n - 1}[panel]
    row = col if where == "diagonal" else (col + 5) % n
    X[row, col] = (X[row, col] + 1) % field.p
    before = A.apply_count
    assert not verify_inverse(A, X)
    assert A.apply_count - before == n
    M = np.arange(n * 3, dtype=np.int64).reshape(n, 3)
    Y = matmul_mod(np.diag([field.inv(int(x)) for x in d]), M, field.p)
    assert verify_inverse(A, Y, M)
    Y[row, 0] += 1
    assert not verify_inverse(A, Y, M)
    assert not verify_inverse(A, X[:, :-1])


def test_panel_steps_equal_the_whole_block_on_strided_columns():
    # H^{-1} and the Horner sweep treat columns independently: a strided
    # column slice gives those columns of the whole-block result, and
    # neither step writes to its input
    rng = np.random.default_rng(88)
    A = nonsingular_sparse(rng, 24, BIG)
    P = BlockProjection(24, 4)
    B, D, U, unwrap = precondition(A, 4, rng)
    H, _ = build_hankel(B, P)
    rep = hankel_inverse_rep(H, rng)
    V = rng.integers(0, BIG.p, size=(24, 17), dtype=np.int64)
    keep = V.copy()
    for step in (lambda W: hankel_inverse_apply(rep, W),
                 lambda W: krylov_apply_right(B, P, W)):
        whole = step(V)
        for cols in (np.s_[2:15:3], np.s_[16:], np.s_[::-5]):
            assert np.array_equal(step(V[:, cols]), whole[:, cols])
        assert np.array_equal(V, keep)


def test_unwrap_overwrites_its_block_with_dz():
    # the final map of both entry points: the left block carries D U, so
    # only the row scaling by D is left, on an n x k block of any width
    rng = np.random.default_rng(89)
    n, p = 12, BIG.p
    A = nonsingular_sparse(rng, n, BIG)
    B, D, U, unwrap = precondition(A, 4, rng)
    for k in (n, 5):
        Z = rng.integers(0, p, size=(n, k), dtype=np.int64)
        expect = matmul_mod(np.diag(D.d), Z, p)
        assert unwrap(Z) is Z
        assert np.array_equal(Z, expect)


def test_inverse_memory_is_the_answer_plus_panels():
    # n = 512 pads to 529 (auto s = 23): the traced peak of one full
    # inverse stays within 4 n^2 int64 plus 2 MiB (the whole-block pipeline
    # needed 7.9 n^2)
    rng = np.random.default_rng(90)
    n = 512
    A = random_sparse_operator(n, 5, BIG, rng)
    tracemalloc.start()
    try:
        res = blackbox_inverse(A, InversionConfig(seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.stats.s, res.stats.m, res.stats.retries) == (23, 23, 0)
    assert peak <= 4 * n * n * 8 + 2 * 2**20
    assert np.array_equal(A.apply_matrix(res.matrix[:, :5]),
                          np.eye(n, 5, dtype=np.int64))


def test_apply_inverse_memory_is_the_answer_plus_panels():
    # n = k = 512 pads to 529 (auto s = 23): the traced peak of one A^{-1} M
    # stays within 4 n k int64 plus 2 MiB, like the full inverse (sweeping
    # D U M as one block needed 8.6 n k)
    rng = np.random.default_rng(92)
    n = 512
    A = random_sparse_operator(n, 5, BIG, rng)
    M = rng.integers(0, BIG.p, size=(n, n), dtype=np.int64)
    tracemalloc.start()
    try:
        res = blackbox_inverse_apply(A, M, InversionConfig(seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.stats.s, res.stats.m, res.stats.retries) == (23, 23, 0)
    assert peak <= 4 * n * n * 8 + 2 * 2**20
    assert np.array_equal(A.apply_matrix(res.matrix[:, :5]), M[:, :5])


def test_apply_inverse_sweeps_each_panel_from_m(monkeypatch):
    # n = 10 pads to 12 (s = 4) and panels of 3 columns split k = 8 into
    # three: each panel gets its own left Krylov sweep, and the answer is
    # that of one whole-block panel, the dense oracle's and A^{-1} @ M
    rng = np.random.default_rng(93)
    n, k, p = 10, 8, BIG.p
    A = nonsingular_sparse(rng, n, BIG)
    M = rng.integers(-p, 2 * p, size=(n, k), dtype=np.int64)
    M_keep = M.copy()
    cfg = InversionConfig(s=4, seed=3)
    whole = blackbox_inverse_apply(A, M, cfg)
    widths = []
    sweep = inverse.krylov_apply_left

    def logged(B, P, V):
        widths.append(V.shape)
        return sweep(B, P, V)
    monkeypatch.setattr(inverse, "krylov_apply_left", logged)
    monkeypatch.setattr(inverse, "PANEL_ELEMENTS", 3 * 12)
    res = blackbox_inverse_apply(A, M, cfg)
    assert widths == [(12, 3), (12, 3), (12, 2)] * (res.stats.retries + 1)
    assert np.array_equal(M, M_keep)
    assert np.array_equal(res.matrix, whole.matrix)
    assert res.stats.bb_apply_count == whole.stats.bb_apply_count
    Ainv = dense_inverse(sparse_to_dense(A), p)
    assert np.array_equal(res.matrix, matmul_mod(Ainv, M % p, p))
    inv = blackbox_inverse(A, cfg).matrix
    assert np.array_equal(res.matrix, matmul_mod(inv, M % p, p))


def test_apply_inverse_rejects_bad_rhs_shape_before_applying():
    rng = np.random.default_rng(94)
    A = nonsingular_sparse(rng, 8, BIG)
    for M in (np.ones((8, 2, 2), dtype=np.int64), np.int64(3),
              np.ones((7, 2), dtype=np.int64)):
        with pytest.raises(DimensionError):
            blackbox_inverse_apply(A, M)
    assert A.total_applications == 0


def test_apply_inverse_rejects_non_integral_rhs():
    # a right-hand side of 1.7 was solved as ones, and 0.5 as zeros
    rng = np.random.default_rng(91)
    A = nonsingular_sparse(rng, 12, BIG)
    for value in (1.7, 0.5, np.nan):
        with pytest.raises(ValueError):
            blackbox_inverse_apply(A, np.full((12, 2), value))
    exact = blackbox_inverse_apply(A, np.full(12, 3), InversionConfig(seed=0))
    floats = blackbox_inverse_apply(A, np.full(12, 3.0), InversionConfig(seed=0))
    huge = blackbox_inverse_apply(A, [3 + 10**30 * BIG.p] * 12,
                                  InversionConfig(seed=0))
    assert np.array_equal(floats.matrix, exact.matrix)
    assert np.array_equal(huge.matrix, exact.matrix)


def _counting(monkeypatch, module, name, log, fail=lambda call: False,
              error=HankelSingular):
    """Replace ``module.name`` by a wrapper that appends each call's
    arguments to ``log`` and raises ``error`` where ``fail(call)``."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        log.append(args)
        if fail(len(log)):
            raise error("forced")
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def _kernel_reads(monkeypatch, module):
    """Replace ``module._kernel_certificate`` by a wrapper that appends, per
    call, the kernel vector it certified, or None when it found none."""
    log = []
    inner = inverse._kernel_certificate

    def reading(A, B, v, F, D, rng):
        try:
            inner(A, B, v, F, D, rng)
        except SingularMatrix as exc:
            log.append(exc.kernel_vector)
            raise
        log.append(None)
    monkeypatch.setattr(module, "_kernel_certificate", reading)
    return log


def test_singular_input_certified_after_first_failed_attempt(monkeypatch):
    # the first attempt's Hankel inverse fails, and the kernel vector is
    # read off the generator of that same run: no second attempt
    rng = np.random.default_rng(83)
    p = BIG.p
    a = rng.integers(0, p, size=(12, 5), dtype=np.int64)
    b = rng.integers(0, p, size=(5, 12), dtype=np.int64)
    A = DenseOperator(matmul_mod(a, b, p), BIG)
    reps = []
    _counting(monkeypatch, inverse, "hankel_inverse_rep", reps)
    kernels = _kernel_reads(monkeypatch, inverse)
    with pytest.raises(SingularMatrix) as exc:
        blackbox_inverse(A, InversionConfig(seed=0))
    assert len(reps) == 1
    kv = exc.value.kernel_vector
    assert len(kernels) == 1 and kernels[0] is kv
    assert kv.any()
    assert not A.apply(kv).any()


def test_unlucky_draw_certifies_once_then_inverts(monkeypatch):
    # a nonsingular A whose first Hankel inverse fails (its first family
    # forced degenerate): that attempt's kernel read finds nothing, and the
    # next attempt is accepted
    rng = np.random.default_rng(84)
    A = nonsingular_sparse(rng, 12, BIG)
    _counting(monkeypatch, hankel, "_family", [], fail=lambda call: call == 1)
    kernels = _kernel_reads(monkeypatch, inverse)
    res = blackbox_inverse(A, InversionConfig(seed=0))
    assert kernels == [None]
    assert res.stats.retries == 1
    assert np.array_equal(res.matrix, dense_inverse(sparse_to_dense(A), BIG.p))


@pytest.mark.parametrize("failure", ["hankel", "verify"])
def test_all_attempts_fail_certificate_runs_once(monkeypatch, failure):
    # every Hankel inverse fails its random check (each attempt reads its
    # own generator once and finds nothing) or every verification fails
    # (no kernel read runs): all 8 attempts, then RetriesExhausted
    rng = np.random.default_rng(85)
    A = nonsingular_sparse(rng, 12, BIG)
    reps = []
    _counting(monkeypatch, inverse, "hankel_inverse_rep", reps)
    if failure == "hankel":
        # the check fails after both sides of the families have succeeded
        inner = hankel.hankel_inverse_apply
        monkeypatch.setattr(hankel, "hankel_inverse_apply",
                            lambda rep, M: (inner(rep, M) + 1) % rep.p)
    else:
        monkeypatch.setattr(inverse, "verify_inverse", lambda *args: False)
    kernels = _kernel_reads(monkeypatch, inverse)
    with pytest.raises(RetriesExhausted):
        blackbox_inverse(A, InversionConfig(seed=0))
    assert len(reps) == 8
    assert kernels == ([None] * 8 if failure == "hankel" else [])


def singular_family(name, n, p, rng):
    """A singular n x n matrix over GF(p) of one structured family."""
    nonzero = lambda size: rng.integers(1, p, size=size)
    M = np.zeros((n, n), dtype=np.int64)
    if name == "sparse":  # 3 entries a row; the last row is the sum of two
        for i in range(n):
            M[i, rng.choice(n, size=min(3, n), replace=False)] = nonzero(min(3, n))
        M[-1] = M[:2].sum(axis=0) % p if n > 2 else M[0]
    elif name == "rank 1":
        M = np.outer(nonzero(n), nonzero(n)) % p
    elif name == "duplicated row":
        M = rng.integers(0, p, size=(n, n), dtype=np.int64)
        M[-1] = M[0]
    elif name == "nilpotent shift":
        M = np.eye(n, k=1, dtype=np.int64)
    elif name == "2 x 2 blocks":
        for i in range(0, n - 1, 2):
            M[i:i + 2, i:i + 2] = [[1, 2], [2, 4]]
        if n % 2:
            M[-1, -1] = 1
    elif name == "diagonal with a zero":
        M = np.diag(nonzero(n))
        M[rng.integers(n)] = 0
    return M  # "zero" stays the zero matrix


SINGULAR_FAMILIES = ("sparse", "rank 1", "duplicated row", "zero",
                     "nilpotent shift", "2 x 2 blocks", "diagonal with a zero")


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_small_field_singular_inputs_are_certified(monkeypatch, p):
    # a kernel read needs no field-size bound: on every input of these
    # families det's own run (its Hankel certificate failed) yields a kernel
    # vector k with A k = 0 within the attempts, and det returns that
    # certified 0
    kernels = _kernel_reads(monkeypatch, determinant)
    field = PrimeField(p)
    for f, name in enumerate(SINGULAR_FAMILIES):
        for n in range(2, 31):
            M = singular_family(name, n, p, np.random.default_rng([p, f, n]))
            kernels.clear()
            where = (name, n)
            assert det_mod_p(DenseOperator(M, field), InversionConfig(seed=n)) == 0, where
            *misses, k = kernels
            assert misses == [None] * len(misses), where
            assert k is not None and k.any(), where
            assert not matmul_mod(M, k.reshape(n, 1), p).any(), where


def test_singular_families_certified_by_their_own_run(monkeypatch):
    # the inverse's first attempt reads the kernel vector off the generator
    # its own order basis made: one Hankel inverse, no block Wiedemann sweep
    p = 65521
    field = PrimeField(p)
    reps = []
    _counting(monkeypatch, inverse, "hankel_inverse_rep", reps)
    sweeps = []  # the block Wiedemann run's, not the inverse's own
    _counting(monkeypatch, hankel, "krylov_apply_left", sweeps)
    for f, name in enumerate(SINGULAR_FAMILIES):
        for n in range(2, 31):
            M = singular_family(name, n, p, np.random.default_rng([p, f, n]))
            reps.clear()
            where = (name, n)
            with pytest.raises(SingularMatrix) as exc:
                blackbox_inverse(DenseOperator(M, field), InversionConfig(seed=n))
            k = exc.value.kernel_vector
            assert k.any() and not matmul_mod(M, k.reshape(n, 1), p).any(), where
            assert len(reps) == 1, where
    assert sweeps == []


def rank_mix_singular():
    """n = 256 (s = m = 16): a 5-per-row sparse matrix with 8 rows emptied,
    as a dense array and as a SparseOperator."""
    rng = np.random.default_rng(97)
    n = 256
    M = sparse_to_dense(random_sparse_operator(n, 5, BIG, rng))
    M[rng.choice(n, size=8, replace=False)] = 0
    rows, cols = M.nonzero()
    A = SparseOperator(n, list(zip(rows.tolist(), cols.tolist(), M[rows, cols].tolist())), BIG)
    return M, A


def test_singular_rank_mix_input_costs_one_run():
    # the failed attempt's sweep of (2m-1) s = 496 applications, the probe
    # of at most m + 1 transposed ones, the Horner sweep of at most m for
    # the one column that passes it, and its kernel check; forming all s
    # columns at once takes up to s m = 256 in place of the probe and the
    # column, and a second block Wiedemann run would add 2N = 512
    M, A = rank_mix_singular()
    with pytest.raises(SingularMatrix) as exc:
        blackbox_inverse(A, InversionConfig(seed=0))
    k = exc.value.kernel_vector
    assert k.any() and not matmul_mod(M, k.reshape(-1, 1), BIG.p).any()
    assert A.total_applications <= 560


def _read(read, A, *args):
    """(kernel vector or None, applications of A) of one kernel read."""
    base = A.total_applications
    try:
        k = read(A, *args)
    except SingularMatrix as exc:
        k = exc.kernel_vector
    return (None if k is None else k.tobytes()), A.total_applications - base


@pytest.mark.parametrize("p", [3, 5, 7, 101, 65521])
def test_kernel_read_matches_the_full_block_reference(monkeypatch, p):
    # every kernel read of det and the inverse on these families certifies
    # the vector that forming all s generator columns at once certifies (or
    # none where it finds none).  It costs at most the probe's deg F + 1
    # more; with nothing to form (deg F = 0) both spend only the checks,
    # and at p >= 101, where a column that cannot certify rarely passes the
    # probe, strictly fewer whenever s >= 2
    reads = []
    inner = inverse._kernel_certificate

    def read(A, B, v, F, D, rng):
        want, ref = _read(kernel_certificate_reference, A, B, v, F, D)
        got, cost = _read(inner, A, B, v, F, D, rng)
        reads.append((want, ref, got, cost, len(F) - 1, v.shape[1]))
        if got is not None:
            raise SingularMatrix(np.frombuffer(got, dtype=np.int64).copy())
    monkeypatch.setattr(inverse, "_kernel_certificate", read)
    monkeypatch.setattr(determinant, "_kernel_certificate", read)
    field = PrimeField(p)
    for f, name in enumerate(SINGULAR_FAMILIES):
        for n in range(2, 31):
            M = singular_family(name, n, p, np.random.default_rng([p, f, n]))
            reads.clear()
            assert det_mod_p(DenseOperator(M, field), InversionConfig(seed=n)) == 0
            with pytest.raises((SingularMatrix, FieldTooSmall)):
                blackbox_inverse(DenseOperator(M, field), InversionConfig(seed=n))
            for want, ref, got, cost, deg, s in reads:
                where = (name, n, deg, s, ref, cost)
                assert got == want, where
                assert cost <= ref + deg + 1, where
                if deg == 0:
                    assert cost == ref, where
                elif p >= 101 and s >= 2:
                    assert cost < ref, where


@pytest.mark.parametrize("name,n", [("nilpotent shift", 18),
                                    ("diagonal with a zero", 17),
                                    ("diagonal with a zero", 21)])
def test_small_field_kernel_read_costs_no_more_than_the_full_block(monkeypatch, name, n):
    # det at p = 5 with s = 3: a probe of one vector let each column that
    # cannot certify through with probability 1/5, and these reads cost 25,
    # 25 and 29 applications against the full block's 19, 19 and 22.  A
    # probe block with p^b above what the probe can save (b = 2 here) costs
    # more than those columns, so the read forms them one at a time
    p = 5
    reads = []
    inner = inverse._kernel_certificate

    def read(A, B, v, F, D, rng):
        want, ref = _read(kernel_certificate_reference, A, B, v, F, D)
        got, cost = _read(inner, A, B, v, F, D, rng)
        reads.append((want, ref, got, cost))
        if got is not None:
            raise SingularMatrix(np.frombuffer(got, dtype=np.int64).copy())
    monkeypatch.setattr(determinant, "_kernel_certificate", read)
    f = SINGULAR_FAMILIES.index(name)
    M = singular_family(name, n, p, np.random.default_rng([p, f, n]))
    assert det_mod_p(DenseOperator(M, PrimeField(p)), InversionConfig(seed=n)) == 0
    assert reads
    for want, ref, got, cost in reads:
        assert got == want and cost <= ref, (ref, cost)


def test_kernel_read_probe_only_skips_work(monkeypatch):
    # with a zero probe vector no column is ruled out: every column is
    # formed in turn until one certifies, which costs more and still gives
    # the vector of forming all s columns at once
    class ZeroDraws:
        def integers(self, low, high, size, dtype):
            return np.zeros(size, dtype=dtype)
    reads = []
    inner = inverse._kernel_certificate

    def read(*args):
        reads.append(args)
        inner(*args)
    monkeypatch.setattr(inverse, "_kernel_certificate", read)
    with pytest.raises(SingularMatrix):
        blackbox_inverse(rank_mix_singular()[1], InversionConfig(seed=0))
    [(A, B, v, F, D, rng)] = reads
    want, ref = _read(kernel_certificate_reference, A, B, v, F, D)
    zero, zero_cost = _read(inner, A, B, v, F, D, ZeroDraws())
    got, cost = _read(inner, A, B, v, F, D, rng)
    assert want is not None and zero == want and got == want
    assert cost < zero_cost < ref


@pytest.mark.parametrize("pipeline", ["inverse", "det"])
def test_certificate_runs_once_when_every_attempt_degenerates(monkeypatch, pipeline):
    # every projection degenerates (each run's first family forced) and no
    # kernel read finds a vector: both pipelines read once per attempt, make
    # every attempt and raise RetriesExhausted (det, Las Vegas, returns no
    # uncertified 0)
    A = nonsingular_sparse(np.random.default_rng(86), 12, BIG)
    tries = []
    _counting(monkeypatch, hankel, "_generator", tries)
    _counting(monkeypatch, hankel, "_family", [], fail=lambda call: True)
    kernels = _kernel_reads(monkeypatch, inverse if pipeline == "inverse" else determinant)
    run = blackbox_inverse if pipeline == "inverse" else det_mod_p
    with pytest.raises(RetriesExhausted):
        run(A, InversionConfig(seed=0, max_retries=3))
    assert kernels == [None] * 3
    assert len(tries) == 3


def test_rank_retries_a_degenerate_attempt_without_certificate(monkeypatch):
    # nullspace_rank reads no kernel vector; its stats count the 2N
    # applications of the failed attempt's sweep and the accepted one's
    # (n = N = 12, s = 3, m = 4)
    A = nonsingular_sparse(np.random.default_rng(87), 12, BIG)
    _counting(monkeypatch, hankel, "_pade_side", [], fail=lambda call: call == 1)
    kernels = _kernel_reads(monkeypatch, inverse)
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert kernels == []
    assert cert.rank == 12
    stats = cert.stats
    assert (stats.retries, stats.bb_applies_last_attempt,
            stats.bb_apply_count) == (1, 24, 48)
