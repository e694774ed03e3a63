import itertools

import numpy as np
import pytest

from blackbox_linalg import (BlockHankel, DenseOperator, InversionConfig,
                             PrimeField, SparseOperator, matmul_mod,
                             nullspace_rank)
from blackbox_linalg.errors import HankelSingular, RetriesExhausted
from blackbox_linalg.hankel import _hankel_certificate, _pade_side

from _oracles import (IdentityOperator, dense_rank, dense_solve, hankel_to_dense,
                      materialize, pade_families)

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


def _spy_estimates(monkeypatch, degrees=None, certificates=None):
    """Record the order N = m s and the row degree sum of each rank
    estimate's block Wiedemann run (``nullrank._block_wiedemann``);
    ``degrees(call, m, degrees)``, when given, replaces the run's row
    degrees (a forged estimate), and ``certificates``, when given, gets N
    each time the run's certificate is asked for (a rank-n certificate)."""
    import blackbox_linalg.nullrank as nullrank
    inner = nullrank._block_wiedemann
    log = []

    def spy(B, v):
        degs, certified, F, row_degrees = inner(B, v)
        if degrees is not None:
            degs = degrees(len(log), B.n // v.shape[1], degs)
        log.append((B.n, sum(degs)))

        def counted():
            certificates.append(B.n)
            return certified()
        return degs, certified if certificates is None else counted, F, row_degrees
    monkeypatch.setattr(nullrank, "_block_wiedemann", spy)
    return log


def _pade_succeeds(alpha, s, m, p):
    try:
        pade_families(alpha, s, m, p)
    except HankelSingular:
        return False
    return True


def _one_side_certifies(alpha, s, m, p):
    # the rank-n certificate: the plain side's families and the exact check
    try:
        _hankel_certificate(alpha, *_pade_side([a.T for a in alpha], s, m, p)[1](), p)
    except HankelSingular:
        return False
    return True


def test_pade_families_exist_exactly_for_nonsingular_hankel():
    # Pade families with invertible normalizers exist only for a
    # nonsingular block-Hankel matrix, and the rank-n certificate (one
    # side's families, checked exactly) succeeds exactly then.  Every sequence
    # alpha_0..alpha_{2m-1} (the last block is read past H) for s = 1,
    # m <= 3 over GF(3), s = 1, m <= 2 over GF(5) and s = 2, m = 1 over
    # GF(3), then random s = 2, m = 2 blocks over GF(3)
    cases = [(s, m, p, itertools.product(range(p), repeat=2 * m * s * s))
             for s, m, p in ((1, 1, 3), (1, 2, 3), (1, 3, 3), (1, 1, 5),
                             (1, 2, 5), (2, 1, 3))]
    rng = np.random.default_rng(41)
    cases.append((2, 2, 3, rng.integers(0, 3, size=(400, 16))))
    seen = {True: 0, False: 0}
    for s, m, p, draws in cases:
        for entries in draws:
            alpha = list(np.array(entries, dtype=np.int64).reshape(2 * m, s, s))
            H = BlockHankel(s, m, alpha, p)
            nonsingular = dense_rank(hankel_to_dense(H), p) == H.n
            assert _pade_succeeds(H.alpha, s, m, p) == nonsingular, (s, m, p, entries)
            assert _one_side_certifies(H.alpha, s, m, p) == nonsingular, (s, m, p, entries)
            seen[nonsingular] += 1
    assert seen[True] > 0 and seen[False] > 0


@pytest.mark.parametrize("n, s, N", [(5, 0, 6), (16, 0, 16), (18, 0, 20),
                                     (12, 1, 12), (12, 5, 15)])
def test_first_estimate_is_the_rank(monkeypatch, n, s, N):
    # the degree sum of the block generator, less the padding N - n, is the
    # rank, for ranks 0, 1, n/2, n - 1 and n: with s | n (16, s = 4), with
    # padding (5 and 18 pad to 6 and 20, 12 with s = 5 to 15) and with the
    # scalar projection s = 1.  One estimate and no retry each
    log = _spy_estimates(monkeypatch)
    rng = np.random.default_rng(42 + n + s)
    for r in (0, 1, n // 2, n - 1, n):
        M = _low_rank(rng, n, r) if r else np.zeros((n, n), dtype=np.int64)
        assert dense_rank(M, P) == r
        log.clear()
        cert = nullspace_rank(DenseOperator(M, BIG), InversionConfig(s=s, seed=r))
        assert log == [(N, r + N - n)], r
        assert (cert.rank, cert.stats.retries) == (r, 0)
        assert not matmul_mod(M, cert.nullspace, P).any()


def test_estimate_of_the_identity_black_box(monkeypatch):
    log = _spy_estimates(monkeypatch)
    cert = nullspace_rank(IdentityOperator(7, BIG), InversionConfig(seed=2))
    assert log == [(9, 9)]  # s = 3, m = 3
    assert (cert.rank, cert.nullspace.shape) == (7, (7, 0))


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
    # a small field may cost retries but never gives an uncertified answer,
    # and rank has no field-size bound: a certified answer or
    # RetriesExhausted, never FieldTooSmall
    small = PrimeField(5)
    A = DenseOperator(np.array([[1, 2], [2, 4]], dtype=np.int64), small)
    try:
        cert = nullspace_rank(A, InversionConfig(seed=0, max_retries=1))
    except RetriesExhausted:
        return
    assert cert.rank == 1
    assert not matmul_mod(A.matrix, cert.nullspace, 5).any()


@pytest.mark.parametrize("p", [5, 7, 101])
def test_rank_deficiency_certified_below_the_inverse_bound(p):
    # sweep-family inputs (tests/test_sweep.py) whose minor solve once
    # raised FieldTooSmall at these primes: the rank's certificates need no
    # field-size bound.  Both families have nullity 1, which each attempt
    # reads off its own block Wiedemann run, and all 24 calls answer within
    # their 8 attempts, over GF(5) too
    from test_sweep import FAMILIES, family
    field = PrimeField(p)
    for name in ("duplicated row", "nilpotent shift"):
        f = FAMILIES.index(name)
        for n in (6, 8, 9, 12, 16, 17):
            for seed in (0, 1):
                M = family(name, n, p, np.random.default_rng([f, p, n, seed]))
                where = (name, n, seed)
                cert = nullspace_rank(DenseOperator(M, field), InversionConfig(seed=seed))
                assert cert.rank == dense_rank(M, p) < n, where
                assert not matmul_mod(M, cert.nullspace, p).any(), where
                assert dense_rank(cert.nullspace, p) == n - cert.rank, where


@pytest.mark.parametrize("n, applications", [(9, 18), (10, 24)])
def test_full_rank_certified_by_the_hankel_certificate(monkeypatch, n, applications):
    # a full degree sum proves nothing by itself: the Pade families of the
    # estimate's own order-basis run, checked on the N x N Hankel matrix of
    # the sequence, certify rank n, with no inversion, for the 2N
    # applications of the sweep (n = 9: s = m = 3; n = 10: s = 3, m = 4,
    # padded to N = 12)
    import blackbox_linalg.inverse as inverse
    import blackbox_linalg.nullrank as nullrank
    A = DenseOperator(_nonsingular(np.random.default_rng(5), n), BIG)
    solves, hankels = [], []

    def spy(*args, **kwargs):
        solves.append(args)
        raise AssertionError("no inversion may run")
    monkeypatch.setattr(nullrank, "_inverse_attempt", spy)
    monkeypatch.setattr(inverse, "_solve", spy)
    log = _spy_estimates(monkeypatch, certificates=hankels)
    cert = nullspace_rank(A, InversionConfig(seed=1))
    assert cert.rank == n
    assert cert.nullspace.shape == (n, 0)
    assert solves == []
    assert log == [(applications // 2, applications // 2)]
    assert hankels == [applications // 2]
    assert cert.stats.retries == 0
    assert cert.stats.bb_apply_count == applications


def test_full_rank_runs_one_order_basis(monkeypatch):
    # the estimate and the rank-n certificate share one M-Basis run, and
    # rank takes neither the block generator nor the two-sided inverse
    # representation
    import blackbox_linalg.hankel as hankel
    import blackbox_linalg.nullrank as nullrank
    runs = []
    inner = hankel._mbasis

    def spy(*args, **kwargs):
        runs.append(args[1])
        return inner(*args, **kwargs)
    monkeypatch.setattr(hankel, "_mbasis", spy)
    A = DenseOperator(_nonsingular(np.random.default_rng(9), 16), BIG)
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert (cert.rank, cert.stats.retries) == (16, 0)
    assert runs == [8]  # one run to order 2m, s = m = 4
    assert not hasattr(nullrank, "block_generator")
    assert not hasattr(nullrank, "hankel_inverse_rep")


def test_forged_estimates_fail_their_certificates(monkeypatch):
    # the estimate certifies nothing.  A short degree sum on a nonsingular
    # input runs the kernel read, which finds no kernel: one retry
    A = DenseOperator(_nonsingular(np.random.default_rng(6), 9), BIG)
    log = _spy_estimates(monkeypatch, lambda call, m, degs:
                         [d - (call == 0 and c == 0) for c, d in enumerate(degs)])
    cert = nullspace_rank(A, InversionConfig(seed=0))
    assert [total for _, total in log] == [8, 9]
    assert (cert.rank, cert.stats.retries) == (9, 1)

    # a full degree sum on a singular input fails the Hankel certificate
    # (HankelSingular): once costs one retry, every time exhausts them
    monkeypatch.undo()
    S = DenseOperator(_low_rank(np.random.default_rng(7), 9, 4), BIG)
    reps = []
    cfg = InversionConfig(seed=0, max_retries=3)
    for forged in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            reps.clear()
            log = _spy_estimates(mp, lambda call, m, degs:
                                 [m] * len(degs) if call < forged else degs,
                                 certificates=reps)
            if forged < cfg.max_retries:
                cert = nullspace_rank(S, cfg)
                assert (cert.rank, cert.stats.retries) == (4, 1)
                assert not matmul_mod(S.matrix, cert.nullspace, P).any()
            else:
                with pytest.raises(RetriesExhausted):
                    nullspace_rank(S, cfg)
        assert reps == [9] * forged
        assert [total for _, total in log][:forged] == [9] * forged


def test_minor_failures_recover():
    # each way a minor attempt can fail costs exactly one outer retry, with
    # a fresh rank estimate: a degenerate Hankel inverse (the first
    # certificate forced to fail; the kernel read of the nonsingular r x r
    # minor finds nothing), a failed verification, and a minor proved
    # singular
    import blackbox_linalg.hankel as hankel
    import blackbox_linalg.inverse as inverse
    import blackbox_linalg.nullrank as nullrank
    from blackbox_linalg.errors import SingularMatrix
    n, r = 20, 13
    M = _low_rank(np.random.default_rng(8), n, r)
    A = DenseOperator(M, BIG)

    def degenerate(*args):
        raise HankelSingular("forced")

    def singular(*args):
        raise SingularMatrix(np.zeros(r, dtype=np.int64))
    failures = [(hankel, "_hankel_certificate", degenerate),
                (inverse, "verify_inverse", lambda *args: False),
                (nullrank, "_inverse_attempt", singular)]
    reads = []
    inner_read = inverse._kernel_certificate
    for module, name, failure in failures:
        with pytest.MonkeyPatch.context() as mp:
            log = _spy_estimates(mp)
            calls = []
            inner = getattr(module, name)

            def first_fails(*args, **kwargs):
                calls.append(args)
                return (failure if len(calls) == 1 else inner)(*args, **kwargs)
            mp.setattr(module, name, first_fails)
            reads.clear()
            mp.setattr(inverse, "_kernel_certificate",
                       lambda A0, *args: reads.append(A0.n) or inner_read(A0, *args))
            cert = nullspace_rank(A, InversionConfig(seed=0))
        assert (cert.rank, cert.stats.retries) == (r, 1), name
        assert log == [(n, r)] * 2, name
        assert reads == ([r] if name == "_hankel_certificate" else []), name
        assert not matmul_mod(M, cert.nullspace, P).any()
        assert dense_rank(cert.nullspace, P) == n - r


def test_minor_attempts_spend_the_rank_budget(monkeypatch):
    # a rank attempt makes one minor attempt and no retry loop of its own:
    # with every minor verification failing, max_retries = 3 makes three
    # preconditionings of the inverse in all, one per rank attempt
    import blackbox_linalg.inverse as inverse
    A = DenseOperator(_low_rank(np.random.default_rng(8), 20, 13), BIG)
    preconditionings = []
    inner = inverse.precondition
    monkeypatch.setattr(inverse, "verify_inverse", lambda *args: False)
    monkeypatch.setattr(inverse, "precondition",
                        lambda *args: preconditionings.append(args) or inner(*args))
    with pytest.raises(RetriesExhausted) as exc:
        nullspace_rank(A, InversionConfig(seed=0, max_retries=3))
    assert len(preconditionings) == 3
    assert exc.value.stats.retries == 3


def _rank_r(rng, n, r, p):
    """A random n x n matrix of rank exactly r over GF(p)."""
    while True:
        M = matmul_mod(rng.integers(0, p, size=(n, r), dtype=np.int64),
                       rng.integers(0, p, size=(r, n), dtype=np.int64), p)
        if dense_rank(M, p) == r:
            return M


@pytest.mark.parametrize("p", [7, 101])
def test_nullity_up_to_s_is_read_off_the_rank_run(monkeypatch, p):
    # nullity k = 1..s (n = 16, s = 4, and n = 14 padded to N = 16): the
    # accepted attempt runs no minor solve and spends the sweep (2N), the
    # Horner sweep of the generator (deg F per kernel column) and the
    # A N = 0 check (k); its nullspace is the unique basis V^T D [W; -I]
    # of ker A~ with W = A0^{-1} A1, formed here by the dense oracle from
    # the attempt's own draws
    import blackbox_linalg.nullrank as nullrank

    def no_minor(*args):
        raise AssertionError("no minor solve may run")
    monkeypatch.setattr(nullrank, "_inverse_attempt", no_minor)
    draws, runs = [], []  # each attempt's (B, V^T, D, v) and its run
    inner_draws, inner_run = nullrank._rank_preconditioner, nullrank._block_wiedemann
    monkeypatch.setattr(nullrank, "_rank_preconditioner",
                        lambda *args: draws.append(inner_draws(*args)) or draws[-1])
    monkeypatch.setattr(nullrank, "_block_wiedemann",
                        lambda B, v: runs.append(inner_run(B, v)) or runs[-1])
    field = PrimeField(p)
    rng = np.random.default_rng([70, p])
    for n in (16, 14):
        for k in range(1, 5):
            r = n - k
            M = _rank_r(rng, n, r, p)
            cert = nullspace_rank(DenseOperator(M, field), InversionConfig(seed=k))
            assert cert.rank == r, (n, k)
            (B, Vt, D, _), F = draws[-1], runs[-1][2]
            assert cert.stats.bb_applies_last_attempt == 2 * B.n + (len(F) - 1) * k + k
            At = materialize(B)[:n, :n]
            N_tilde = np.concatenate([dense_solve(At[:r, :r], At[:r, r:], p),
                                      (p - 1) * np.eye(k, dtype=np.int64) % p])
            assert np.array_equal(cert.nullspace, Vt.apply_matrix(D.apply_matrix(N_tilde)))


def test_a_high_estimate_fails_the_degree_count(monkeypatch):
    # rank 13 of n = 16 (s = 4) with the first estimate forged to 14: the
    # generator's kernel read would give 2 of the 3 kernel vectors, which
    # pass A N = 0, so only the degree count (the Hankel rank, at most
    # rank A + N - n) rejects the attempt: one retry, then the true rank
    M = _low_rank(np.random.default_rng(72), 16, 13)
    log = _spy_estimates(monkeypatch, lambda call, m, degs:
                         [d + (call == 0 and c == 0) for c, d in enumerate(degs)])
    cert = nullspace_rank(DenseOperator(M, BIG), InversionConfig(seed=0))
    assert [total for _, total in log] == [14, 13]
    assert (cert.rank, cert.stats.retries) == (13, 1)
    assert not matmul_mod(M, cert.nullspace, P).any()


def test_nullity_above_s_runs_one_minor_solve(monkeypatch):
    # nullity s + 1 (n = 16, s = 4, rank 11) keeps the minor solve: one
    # inverse attempt on the 11 x 11 minor
    import blackbox_linalg.nullrank as nullrank
    calls = []
    inner = nullrank._inverse_attempt
    monkeypatch.setattr(nullrank, "_inverse_attempt",
                        lambda A0, *args: calls.append(A0.n) or inner(A0, *args))
    M = _low_rank(np.random.default_rng(71), 16, 11)
    cert = nullspace_rank(DenseOperator(M, BIG), InversionConfig(seed=0))
    assert (cert.rank, cert.stats.retries) == (11, 0)
    assert calls == [11]
    assert not matmul_mod(M, cert.nullspace, P).any()


def test_butterflies_keep_generic_rank_profile_on_dead_rows_and_columns(monkeypatch):
    # every proper set of dead rows and every proper set of dead columns of
    # a random dense n x n matrix, n = 2..6 (228 runs): the first
    # preconditioning U A V^T D must give the exact rank, so each run makes
    # exactly one block rank estimate.  A forward butterfly in place of V^T
    # loses the rank profile on some of these column sets.
    estimates = _spy_estimates(monkeypatch)
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
