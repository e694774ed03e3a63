import numpy as np
import pytest

import blackbox_linalg.determinant as determinant
import blackbox_linalg.inverse as inverse
import blackbox_linalg.nullrank as nullrank
from blackbox_linalg import (DenseOperator, DiagonalOperator, InversionConfig,
                             PrimeField, blackbox_inverse,
                             blackbox_inverse_apply, dense_inverse, det_mod_p,
                             matmul_mod, nullspace_rank, precondition,
                             verify_inverse)
from blackbox_linalg.cli import random_sparse_operator
from blackbox_linalg.errors import (DegenerateSequence, FieldTooSmall,
                                   HankelSingular, RetriesExhausted,
                                   SingularMatrix)

from _oracles import IdentityOperator, dense_rank, materialize, sparse_to_dense

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
    rng = np.random.default_rng(79)
    A = nonsingular_sparse(rng, 12, BIG)
    cfg = InversionConfig(seed=5)
    r1 = blackbox_inverse(A, cfg)
    r2 = blackbox_inverse_apply(A, np.eye(12, dtype=np.int64), cfg)
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


def test_singular_input_certified_after_first_failed_attempt(monkeypatch):
    # the parent of this change made all 8 attempts before the certificate
    rng = np.random.default_rng(83)
    p = BIG.p
    a = rng.integers(0, p, size=(12, 5), dtype=np.int64)
    b = rng.integers(0, p, size=(5, 12), dtype=np.int64)
    A = DenseOperator(matmul_mod(a, b, p), BIG)
    reps, certs, reps_before_cert = [], [], []
    _counting(monkeypatch, inverse, "hankel_inverse_rep", reps)
    inner_cert = inverse._singular_certificate

    def certificate(*args):
        certs.append(args)
        reps_before_cert.append(len(reps))
        return inner_cert(*args)
    monkeypatch.setattr(inverse, "_singular_certificate", certificate)
    with pytest.raises(SingularMatrix) as exc:
        blackbox_inverse(A, InversionConfig(seed=0))
    assert len(certs) == 1
    assert reps_before_cert == [1]  # the rest ran inside the certificate
    kv = exc.value.kernel_vector
    assert kv.any()
    assert not A.apply(kv).any()


def test_unlucky_draw_certifies_once_then_inverts(monkeypatch):
    # a nonsingular A whose first Hankel inverse is forced to fail: the
    # certificate finds rank n, and the next attempt is accepted
    rng = np.random.default_rng(84)
    A = nonsingular_sparse(rng, 12, BIG)
    reps, certs = [], []
    _counting(monkeypatch, inverse, "hankel_inverse_rep", reps,
              fail=lambda call: call == 1)
    _counting(monkeypatch, inverse, "_singular_certificate", certs)
    res = blackbox_inverse(A, InversionConfig(seed=0))
    assert len(certs) == 1
    assert res.stats.retries == 1
    assert np.array_equal(res.matrix, dense_inverse(sparse_to_dense(A), BIG.p))


@pytest.mark.parametrize("failure", ["hankel", "verify"])
def test_all_attempts_fail_certificate_runs_once(monkeypatch, failure):
    # every Hankel inverse (the certificate runs after the first failure)
    # or every verification (it runs after the last attempt) fails
    rng = np.random.default_rng(85)
    A = nonsingular_sparse(rng, 12, BIG)
    reps, certs = [], []
    if failure == "hankel":
        _counting(monkeypatch, inverse, "hankel_inverse_rep", reps,
                  fail=lambda call: True)
    else:
        monkeypatch.setattr(inverse, "verify_inverse", lambda *args: False)
    _counting(monkeypatch, inverse, "_singular_certificate", certs)
    with pytest.raises(RetriesExhausted):
        blackbox_inverse(A, InversionConfig(seed=0))
    assert len(certs) == 1


@pytest.mark.parametrize("pipeline", ["inverse", "det"])
def test_certificate_field_too_small_is_raised_once_attempts_run_out(
        monkeypatch, pipeline):
    # every projection degenerates and the certificate raises FieldTooSmall:
    # both pipelines run it once, make every attempt, then raise its error
    A = nonsingular_sparse(np.random.default_rng(86), 12, BIG)
    tries, certs = [], []
    if pipeline == "inverse":
        _counting(monkeypatch, inverse, "hankel_inverse_rep", tries,
                  fail=lambda call: True)
        run = blackbox_inverse
    else:
        _counting(monkeypatch, determinant, "block_generator", tries,
                  fail=lambda call: True, error=DegenerateSequence)
        run = det_mod_p

    def certificate(B, cfg):
        certs.append(B.n)
        raise FieldTooSmall(BIG.p, 2 * BIG.p)
    monkeypatch.setattr(inverse, "_singular_certificate", certificate)
    with pytest.raises(FieldTooSmall):
        run(A, InversionConfig(seed=0, max_retries=3))
    assert certs == [12]
    assert len(tries) == 3


def test_rank_retries_a_degenerate_attempt_without_certificate(monkeypatch):
    # nullspace_rank is the certificate, so it never runs one; its stats
    # count the failed attempt's 2n - 1 applications and the accepted one's
    A = nonsingular_sparse(np.random.default_rng(87), 12, BIG)
    _counting(monkeypatch, nullrank, "berlekamp_massey", [],
              fail=lambda call: call == 1, error=DegenerateSequence)

    def certificate(*args):
        raise AssertionError("nullspace_rank ran the certificate")
    monkeypatch.setattr(inverse, "_singular_certificate", certificate)
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert cert.rank == 12
    stats = cert.stats
    assert (stats.retries, stats.bb_applies_last_attempt,
            stats.bb_apply_count) == (1, 23, 46)
