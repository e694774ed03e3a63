import tracemalloc

import numpy as np
import pytest

import blackbox_linalg.hankel as hankel
import blackbox_linalg.polymat as polymat
from blackbox_linalg import (BlockHankel, BlockProjection, DenseOperator,
                             PrimeField, build_hankel, dense_inverse,
                             hankel_inverse_apply, hankel_inverse_rep,
                             matmul_mod, polymat_mul)
from blackbox_linalg.errors import HankelSingular

from _oracles import (IdentityOperator, dense_rank, hankel_to_dense,
                      krylov_sequence, mbasis_reference,
                      naive_polymat_convolution, sigma_basis)

F = PrimeField(10007)
P = F.p


def random_nonsingular_hankel(rng, s, m, p=P):
    while True:
        alpha = [rng.integers(0, p, size=(s, s), dtype=np.int64)
                 for _ in range(2 * m - 1)]
        H = BlockHankel(s=s, m=m, alpha=alpha, p=p)
        if dense_rank(hankel_to_dense(H), p) == s * m:
            return H


def test_build_hankel_identity_operator():
    bp = BlockProjection(6, 2)
    H, Kl = build_hankel(IdentityOperator(6, F), bp)
    assert Kl is None
    for k in range(2 * bp.m - 1):
        assert np.array_equal(H.alpha[k], 3 * np.eye(2, dtype=np.int64))


def test_build_hankel_m1_single_block():
    rng = np.random.default_rng(50)
    B = DenseOperator(rng.integers(0, P, size=(3, 3), dtype=np.int64), F)
    bp = BlockProjection(3, 3)
    H, _ = build_hankel(B, bp)
    assert H.m == 1
    assert np.array_equal(H.alpha[0], B.matrix)  # u = I_3 here


def test_build_hankel_matches_dense_krylov_product():
    rng = np.random.default_rng(51)
    n, s = 12, 3
    bp = BlockProjection(n, s)
    B = DenseOperator(rng.integers(0, P, size=(n, n), dtype=np.int64), F)
    H, got_kl = build_hankel(B, bp, keep_left=True)
    Kr = krylov_sequence(B, bp, bp.m, side="right").assemble()
    Kl = krylov_sequence(B, bp, bp.m, side="left").assemble()
    expect = matmul_mod(Kl, matmul_mod(B.matrix, Kr, P), P)
    assert np.array_equal(hankel_to_dense(H), expect)
    assert np.array_equal(got_kl, Kl)  # the sweep's own left Krylov matrix


def test_build_hankel_apply_count():
    rng = np.random.default_rng(52)
    n, s = 12, 3
    bp = BlockProjection(n, s)
    B = DenseOperator(rng.integers(0, P, size=(n, n), dtype=np.int64), F)
    build_hankel(B, bp)
    assert B.total_applications == (2 * bp.m - 1) * s
    build_hankel(B, bp, keep_left=True)  # keeping K_l costs nothing extra
    assert B.total_applications == 2 * (2 * bp.m - 1) * s


def test_sigma_basis_zero_constant_term():
    # F(0) = 0: the identity basis already has order 1, no elimination
    coeffs = [np.zeros((2, 1), dtype=np.int64),
              np.array([[3], [4]], dtype=np.int64)]
    res = sigma_basis(np.stack(coeffs), 1, P)
    assert res.row_degrees == [0, 0]
    assert np.array_equal(res.basis[0], np.eye(2, dtype=np.int64))


def test_sigma_basis_scalar_constant():
    # F = [a; -1] constant, order 1: one row proportional to (1, a)
    a = 17
    coeffs = [np.array([[a], [P - 1]], dtype=np.int64)]
    res = sigma_basis(np.stack(coeffs), 1, P)
    rows_const = res.basis[0]
    found = False
    for i in range(2):
        r = rows_const[i]
        if res.row_degrees[i] == 0 and r.any():
            # annihilates the constant term, so r is proportional to (1, a)
            assert (r[0] * a + r[1] * (P - 1)) % P == 0
            assert (r[1] * pow(int(r[0]), P - 2, P)) % P == a
            found = True
    assert found
    # the other row carries the x-scaled pattern (degree 1)
    assert sorted(res.row_degrees) == [0, 1]


def test_sigma_basis_random_annihilation():
    rng = np.random.default_rng(53)
    s, sigma = 2, 5
    Fpoly = np.stack(
        [rng.integers(0, P, size=(2 * s, s), dtype=np.int64) for _ in range(7)])
    res = sigma_basis(Fpoly, sigma, P)
    prod = polymat_mul(res.basis, Fpoly, P, 0, sigma)
    for k in range(sigma):
        assert not prod[k].any(), f"nonzero at order {k}"


def test_sigma_basis_minimal_degrees_sum():
    # generic input: total degree growth is exactly sigma * cols
    rng = np.random.default_rng(54)
    s, sigma = 3, 6
    Fpoly = np.stack(
        [rng.integers(0, P, size=(2 * s, s), dtype=np.int64) for _ in range(8)])
    res = sigma_basis(Fpoly, sigma, P)
    assert sum(res.row_degrees) == sigma * s


PADE_KINDS = ("pade", "pade-zero-a0", "pade-repeated", "pade-sparse")


def _order_basis_series(rng, p, kind):
    """A (rows x cols x ncoeff) series with initial row degrees: random,
    of low rank, partly zero (zero coefficients and zero rows), or the
    stacked [A; -I] of a Pade run with shifts (0,...,0, 1,...,1), with
    random blocks or degenerate ones: A_0 = 0 (rows pivot at every step),
    each block repeating the one before with probability 1/2, or 60% of
    the entries zero."""
    if kind in PADE_KINDS:
        s, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        alpha = [rng.integers(0, p, size=(s, s), dtype=np.int64)
                 for _ in range(2 * m - 1)]
        if kind == "pade-zero-a0":
            alpha[0][:] = 0
        elif kind == "pade-repeated":
            for k in range(1, len(alpha)):
                alpha[k] = alpha[k - 1] if rng.random() < 0.5 else alpha[k]
        elif kind == "pade-sparse":
            for a in alpha:
                a[rng.random((s, s)) < 0.6] = 0
        F = hankel._stacked_series(alpha, s, p, 2 * m)
        return F, 2 * m, [0] * s + [1] * s
    rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    sigma = int(rng.integers(1, 12))
    shape = (rows, cols, sigma + int(rng.integers(1, 3)))
    F = rng.integers(0, p, size=shape, dtype=np.int64)
    if kind == "low-rank":
        r = int(rng.integers(1, min(rows, cols) + 1))
        F = np.einsum("ir,rjk->ijk", rng.integers(0, p, size=(rows, r)),
                      rng.integers(0, p, size=(r, cols, shape[2]))) % p
    elif kind == "partly-zero":
        F[:, :, rng.random(shape[2]) < 0.4] = 0
        F[rng.random(rows) < 0.3] = 0
    return F, sigma, [int(d) for d in rng.integers(0, 3, size=rows)]


def _residual(M, F, p):
    """The residual series (basis) * F to F's length, from the naive
    convolution of the (rows x rows x sigma+1) basis with F."""
    conv = naive_polymat_convolution([M[:, :, j] for j in range(M.shape[2])],
                                     [F[:, :, t] for t in range(F.shape[2])], p)
    return np.stack(conv[:F.shape[2]], axis=2)


@pytest.mark.parametrize("p", [3, 5, 65537, 2147483629])
def test_mbasis_matches_reference(p):
    # the step that forms only the residual's coefficient k from the basis
    # gives the per-pivot reference's basis, degrees and snapshot bit for
    # bit (the snapshot keeps the residual's coefficient ``snap`` alone).
    # Pade series run tracking s and 2s columns; with every column tracked
    # the basis times F is the reference's residual
    rng = np.random.default_rng(p % 1009)
    kinds = ("random", "low-rank", "partly-zero") + PADE_KINDS
    for trial in range(42):
        kind = kinds[trial % len(kinds)]
        F, sigma, shifts = _order_basis_series(rng, p, kind)
        rows = F.shape[0]
        keeps = (rows // 2, rows) if kind in PADE_KINDS else (rows,)
        for snap in (None, int(rng.integers(0, sigma))):
            M0, deg0, E0, snapshot0 = mbasis_reference(F, sigma, shifts, p, snap)
            for keep in keeps:
                M, deg, snapshot = hankel._mbasis(F, sigma, shifts, p, snap, keep)
                assert deg == deg0, (kind, trial)
                assert M.shape == (rows, keep, sigma + 1), (kind, trial, keep)
                assert np.array_equal(M, M0[:, :keep]), (kind, trial, keep)
                assert (snapshot is None) == (snap is None)
                if snap is not None:
                    assert snapshot[1] == snapshot0[1]
                    assert np.array_equal(snapshot[0], snapshot0[0][:, :keep])
                    assert snapshot[2].shape == snapshot0[2].shape[:2]
                    assert np.array_equal(snapshot[2], snapshot0[2][:, :, snap])
                if keep == rows:
                    assert np.array_equal(_residual(M, F, p), E0), (kind, trial)


@pytest.mark.parametrize("p", [3, 65537, 2147483629])
def test_restricted_mbasis_matches_reference_columns(p):
    # tracking only the first c basis columns of a series whose rows past c
    # are constant gives the reference's first c columns, and its degrees
    # and snapshot, bit for bit; a small panel budget cuts every residual
    # product and window transform into several panels
    rng = np.random.default_rng(p % 1013)
    kinds = ("random", "low-rank", "partly-zero") + PADE_KINDS
    for trial in range(42):
        kind = kinds[trial % len(kinds)]
        F, sigma, shifts = _order_basis_series(rng, p, kind)
        rows, cols = F.shape[:2]
        snap = int(rng.integers(0, sigma))
        for c in sorted({1, min(cols, rows), rows}):
            Fc = F.copy()
            Fc[c:, :, 1:] = 0
            M0, deg0, _, snapshot0 = mbasis_reference(Fc, sigma, shifts, p, snap)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hankel, "PANEL_ELEMENTS", int(rng.integers(1, 120)))
                M, deg, snapshot = hankel._mbasis(Fc, sigma, shifts, p, snap, keep=c)
            assert deg == deg0, (kind, trial, c)
            assert M.shape == (rows, c, sigma + 1), (kind, trial, c)
            assert np.array_equal(M, M0[:, :c]), (kind, trial, c)
            assert snapshot[1] == snapshot0[1]
            assert np.array_equal(snapshot[0], snapshot0[0][:, :c])
            assert np.array_equal(snapshot[2], snapshot0[2][:, :, snap])


def test_mbasis_rejects_untracked_rows_that_are_not_constant():
    # the step reads only coefficient k of the untracked columns, which is
    # exact only while the rows of F past ``keep`` are constant
    rng = np.random.default_rng(66)
    F = rng.integers(1, P, size=(4, 2, 5), dtype=np.int64)
    F[2:, :, 1:] = 0
    hankel._mbasis(F, 4, [0, 0, 1, 1], P, keep=2)
    F[3, 1, 4] = 1
    with pytest.raises(ValueError, match="constant"):
        hankel._mbasis(F, 4, [0, 0, 1, 1], P, keep=2)
    hankel._mbasis(F, 4, [0, 0, 1, 1], P)  # tracking every column is exact


def test_restricted_mbasis_takes_any_shifts_of_constant_rows():
    # constant untracked rows suffice, whatever their shifts: the basis has
    # degree at most k after k steps, so only its coefficient k in those
    # columns meets them.  Rows past ``keep`` of smaller shift than the
    # kept ones (pivots before them) give the reference's columns too
    rng = np.random.default_rng(67)
    for trial in range(60):
        p = (3, 5, 65537)[trial % 3]
        rows, cols = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        keep, sigma = int(rng.integers(1, rows)), int(rng.integers(1, 10))
        F = rng.integers(0, p, size=(rows, cols, sigma + 1), dtype=np.int64)
        F[keep:, :, 1:] = 0
        shifts = [2] * keep + [0] * (rows - keep)
        snap = int(rng.integers(0, sigma))
        M0, deg0, _, snapshot0 = mbasis_reference(F, sigma, shifts, p, snap)
        M, deg, snapshot = hankel._mbasis(F, sigma, shifts, p, snap, keep=keep)
        assert deg == deg0 and np.array_equal(M, M0[:, :keep]), trial
        assert snapshot[1] == snapshot0[1]
        assert np.array_equal(snapshot[0], snapshot0[0][:, :keep])
        assert np.array_equal(snapshot[2], snapshot0[2][:, :, snap])


@pytest.mark.parametrize("s, m, bound", [(32, 32, 5848056), (10, 103, 1825848)])
def test_pade_side_memory_within_whole_residual_mbasis(s, m, bound):
    # the traced peak of one side's run and families, after a warm-up, is
    # at most the peak (in bytes) of the M-Basis that transformed the whole
    # residual window every step, measured on these inputs: the series'
    # limbs replace its residual, and the snapshot copies only the live
    # window of the basis
    rng = np.random.default_rng(7)
    p = 2147483629
    alpha = [rng.integers(0, p, size=(s, s), dtype=np.int64) for _ in range(2 * m)]
    hankel._pade_side(alpha, s, m, p)[1]()
    tracemalloc.start()
    try:
        hankel._pade_side(alpha, s, m, p)[1]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_hankel_certificate_rejects_a_perturbed_family():
    # the plain side's families of a nonsingular H pass the exact check; one
    # entry off in a coefficient of either family fails it (v_0 = I is not
    # read), since H is injective
    rng = np.random.default_rng(60)
    s, m = 3, 4
    H = random_nonsingular_hankel(rng, s, m)
    alpha = H.alpha + [rng.integers(0, P, size=(s, s), dtype=np.int64)]
    q_t, v_t = hankel._pade_side([a.T for a in alpha], s, m, P)[1]()
    hankel._hankel_certificate(alpha, q_t, v_t, P)
    for family, k in [(q_t, 0), (q_t, m - 1), (v_t, 1), (v_t, m)]:
        family[k, 1, 2] = (family[k, 1, 2] + 1) % P
        with pytest.raises(HankelSingular):
            hankel._hankel_certificate(alpha, q_t, v_t, P)
        family[k, 1, 2] = (family[k, 1, 2] - 1) % P


def test_rep_m1_single_block():
    # m = 1 runs the Pade path too: q_0 = q*_0 = alpha_0^{-1}, no T3 T4 term
    rng = np.random.default_rng(55)
    a0 = rng.integers(0, P, size=(3, 3), dtype=np.int64)
    while dense_rank(a0, P) < 3:
        a0 = rng.integers(0, P, size=(3, 3), dtype=np.int64)
    H = BlockHankel(s=3, m=1, alpha=[a0], p=P)
    rep = hankel_inverse_rep(H, rng)
    M = rng.integers(0, P, size=(3, 4), dtype=np.int64)
    assert np.array_equal(hankel_inverse_apply(rep, M),
                          matmul_mod(dense_inverse(a0, P), M, P))
    a0[2] = (a0[0] + a0[1]) % P  # dependent rows: alpha_0 singular
    with pytest.raises(HankelSingular):
        hankel_inverse_rep(BlockHankel(s=3, m=1, alpha=[a0], p=P), rng)


def test_rep_scalar_m2_frozen_example():
    # alpha = (1, 2, 5) over p = 7, random trailing block
    rng = np.random.default_rng(56)
    alpha = [np.array([[1]]), np.array([[2]]), np.array([[5]]),
             rng.integers(0, 7, size=(1, 1)).astype(np.int64),
             rng.integers(0, 7, size=(1, 1)).astype(np.int64)]
    H = BlockHankel(s=1, m=2, alpha=alpha, p=7)
    rep = hankel_inverse_rep(H, np.random.default_rng(1))
    got = hankel_inverse_apply(rep, np.eye(2, dtype=np.int64))
    assert np.array_equal(got, np.array([[5, 5], [5, 1]], dtype=np.int64))


def test_rep_reconstructs_random_s2_m3():
    rng = np.random.default_rng(57)
    H = random_nonsingular_hankel(rng, 2, 3)
    rep = hankel_inverse_rep(H, rng)
    got = hankel_inverse_apply(rep, np.eye(H.n, dtype=np.int64))
    assert np.array_equal(matmul_mod(got, hankel_to_dense(H), P),
                          np.eye(H.n, dtype=np.int64))


def test_apply_on_materialized_h_gives_identity():
    rng = np.random.default_rng(58)
    H = random_nonsingular_hankel(rng, 2, 4)
    rep = hankel_inverse_rep(H, rng)
    assert np.array_equal(hankel_inverse_apply(rep, hankel_to_dense(H)),
                          np.eye(H.n, dtype=np.int64))


def test_apply_random_rhs_vs_dense():
    rng = np.random.default_rng(59)
    H = random_nonsingular_hankel(rng, 2, 4)
    rep = hankel_inverse_rep(H, rng)
    M = rng.integers(0, P, size=(H.n, 5), dtype=np.int64)
    expect = matmul_mod(dense_inverse(hankel_to_dense(H), P), M, P)
    assert np.array_equal(hankel_inverse_apply(rep, M), expect)


def test_apply_equals_materialized_formula_times_m():
    rng = np.random.default_rng(60)
    H = random_nonsingular_hankel(rng, 3, 3)
    rep = hankel_inverse_rep(H, rng)
    Hinv = hankel_inverse_apply(rep, np.eye(H.n, dtype=np.int64))
    M = rng.integers(0, P, size=(H.n, 4), dtype=np.int64)
    assert np.array_equal(hankel_inverse_apply(rep, M), matmul_mod(Hinv, M, P))


def check_pade_constraints(H, rep):
    """Degree and residual constraints of the two Pade systems:
    A Q = P + x^{2m-2} I (mod x^{2m-1}), deg Q <= m-1, deg P <= m-2;
    A V = U (mod x^{2m}), V(0) = I, deg V <= m, deg U <= m-1;
    and the starred (left-multiplied) analogues."""
    s, m, p = H.s, H.m, H.p
    I = np.eye(s, dtype=np.int64)
    A = np.stack(H.alpha)
    assert rep.q.shape == rep.q_star.shape == (m, s, s)
    assert rep.v.shape == rep.v_star.shape == (m + 1, s, s)
    assert np.array_equal(rep.v[0], I)
    assert np.array_equal(rep.v_star[0], I)
    AQ = polymat_mul(A, rep.q, p, m - 1, 2 * m - 1)
    QA = polymat_mul(rep.q_star, A, p, m - 1, 2 * m - 1)
    for t in range(m - 1, 2 * m - 1):
        want = I if t == 2 * m - 2 else np.zeros((s, s), dtype=np.int64)
        assert np.array_equal(AQ[t - m + 1], want), f"AQ residual at {t}"
        assert np.array_equal(QA[t - m + 1], want), f"Q*A residual at {t}"
    AV = polymat_mul(A, rep.v, p, m, 2 * m)
    VA = polymat_mul(rep.v_star, A, p, m, 2 * m)
    assert not AV.any(), "AV residual in degrees m..2m-1"
    assert not VA.any(), "V*A residual in degrees m..2m-1"


def test_pade_residuals_and_degrees_sweep():
    rng = np.random.default_rng(61)
    for s in (1, 2, 3, 4):
        for m in (2, 3, 6):
            H = random_nonsingular_hankel(rng, s, m)
            rep = hankel_inverse_rep(H, rng)
            check_pade_constraints(H, rep)


def test_reconstruction_sweep_100_random():
    rng = np.random.default_rng(62)
    for trial in range(100):
        s = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        H = random_nonsingular_hankel(rng, s, m)
        rep = hankel_inverse_rep(H, rng)
        got = hankel_inverse_apply(rep, np.eye(H.n, dtype=np.int64))
        assert np.array_equal(got, dense_inverse(hankel_to_dense(H), P)), \
            f"trial {trial}: s={s} m={m}"


def test_singular_hankel_raises(monkeypatch):
    # the families are determined by H: the first degenerate order-basis
    # run is final, nothing is redrawn
    rng = np.random.default_rng(63)
    s, m = 2, 3
    a = rng.integers(0, P, size=(s, s), dtype=np.int64)
    alpha = [a.copy() for _ in range(2 * m - 1)]  # rank s < n
    H = BlockHankel(s=s, m=m, alpha=alpha, p=P)
    assert dense_rank(hankel_to_dense(H), P) < H.n
    runs = []
    real = hankel._mbasis

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hankel, "_mbasis", counted)
    with pytest.raises(HankelSingular):
        hankel_inverse_rep(H, rng)
    assert len(runs) == 1


def test_rep_ignores_trailing_block():
    # alpha_{2m-1} is not a block of H: any value gives the same inverse
    rng = np.random.default_rng(65)
    for s, m in ((1, 2), (2, 3), (3, 4)):
        H = random_nonsingular_hankel(rng, s, m)
        tail = rng.integers(0, P, size=(s, s), dtype=np.int64)
        H_tail = BlockHankel(s=s, m=m, alpha=H.alpha + [tail], p=P)
        I = np.eye(H.n, dtype=np.int64)
        got = hankel_inverse_apply(hankel_inverse_rep(H, rng), I)
        assert np.array_equal(
            hankel_inverse_apply(hankel_inverse_rep(H_tail, rng), I), got)
        assert np.array_equal(got, dense_inverse(hankel_to_dense(H), P))


def test_rep_handles_singular_leading_subblocks():
    # nonsingular H whose leading sub-Hankel blocks are singular: the
    # order-basis route must still reconstruct exactly (non-generic
    # degree profiles), never report a false singular
    rng = np.random.default_rng(64)
    done = 0
    while done < 20:
        s = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        alpha = [rng.integers(0, P, size=(s, s), dtype=np.int64)
                 for _ in range(2 * m - 1)]
        for i in range(int(rng.integers(1, 2 * m - 2))):
            alpha[i] = np.zeros((s, s), dtype=np.int64)
        H = BlockHankel(s=s, m=m, alpha=alpha, p=P)
        if dense_rank(hankel_to_dense(H), P) < H.n:
            continue
        rep = hankel_inverse_rep(H, rng)
        got = hankel_inverse_apply(rep, np.eye(H.n, dtype=np.int64))
        assert np.array_equal(got, dense_inverse(hankel_to_dense(H), P))
        done += 1


def _count_products(monkeypatch, s, m):
    """Count the limb products (one GEMM and one reduction each) made by
    ``polymat_mul``, with its panels cut to 2 columns of a right operand of
    m coefficients of s rows."""
    monkeypatch.setattr(polymat, "PANEL_ELEMENTS", 2 * (2 * m * s))
    calls = []
    real = polymat.limb_product

    def counted(L, R, p, out):
        calls.append(out.shape)
        return real(L, R, p, out)

    monkeypatch.setattr(polymat, "limb_product", counted)
    return calls


@pytest.mark.parametrize("s, m", [(2, 6), (3, 9)])
def test_inverse_apply_one_product_per_coefficient_and_panel(monkeypatch, s, m):
    # four windowed products with m, m, m and m-1 output coefficients, each
    # one limb product per column panel (coefficient pairs would be ~2m^2)
    rng = np.random.default_rng(66)
    H = random_nonsingular_hankel(rng, s, m)
    rep = hankel_inverse_rep(H, rng)
    M = rng.integers(0, P, size=(H.n, 5), dtype=np.int64)
    # every right operand is m coefficients of s rows
    calls = _count_products(monkeypatch, s, m)
    X = hankel_inverse_apply(rep, M)
    assert len(calls) == (4 * m - 1) * 3  # 5 columns: panels of 2, 2, 1
    assert sorted({shape[1] for shape in calls}) == [1, 2]
    assert np.array_equal(X, matmul_mod(dense_inverse(hankel_to_dense(H), P), M, P))


@pytest.mark.parametrize("s, m", [(2, 6), (3, 9)])
def test_block_hankel_apply_one_product_per_coefficient_and_panel(monkeypatch, s, m):
    # H V is the window [m-1, 2m-1): m limb products per column panel
    rng = np.random.default_rng(67)
    H = BlockHankel(s=s, m=m, p=P, alpha=[
        rng.integers(0, P, size=(s, s), dtype=np.int64) for _ in range(2 * m)])
    V = rng.integers(0, P, size=(H.n, 5), dtype=np.int64)
    calls = _count_products(monkeypatch, s, m)
    HV = H.apply(V)
    assert len(calls) == m * 3
    assert np.array_equal(HV, matmul_mod(hankel_to_dense(H), V, P))
