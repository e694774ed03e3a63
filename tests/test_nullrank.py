import itertools

import numpy as np
import pytest

from blackbox_linalg import (BlockHankel, DenseOperator, InversionConfig,
                             PrimeField, SparseOperator, matmul_mod,
                             nullspace_rank)
from blackbox_linalg.errors import HankelSingular, RetriesExhausted
from blackbox_linalg.hankel import _hankel_certificate, _pade_families, _pade_side

from _oracles import IdentityOperator, dense_rank, hankel_to_dense

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
        degs, certified, F = inner(B, v)
        if degrees is not None:
            degs = degrees(len(log), B.n // v.shape[1], degs)
        log.append((B.n, sum(degs)))

        def counted():
            certificates.append(B.n)
            return certified()
        return degs, certified if certificates is None else counted, F
    monkeypatch.setattr(nullrank, "_block_wiedemann", spy)
    return log


def _pade_succeeds(alpha, s, m, p):
    try:
        _pade_families(alpha, s, m, p)
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
    monkeypatch.setattr(nullrank, "blackbox_inverse_apply", spy)
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
    # input runs the minor solve, and its kernel check fails: one retry
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
    assert (cert.rank, cert.stats.retries) == (r, 0)
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
    assert (cert.rank, cert.stats.retries) == (r, 1)
    assert not matmul_mod(M, cert.nullspace, P).any()
    assert dense_rank(cert.nullspace, P) == n - r


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
