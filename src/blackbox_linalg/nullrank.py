"""Certified rank and nullspace basis of a black-box matrix.

Berlekamp-Massey on u^T A~^i v, i < 2n, gives the minimal generator f of
A~ = U A V^T D (butterflies U, V and a diagonal D, all invertible; Chen,
Eberly, Kaltofen, Saunders, Turner and Villard, LAA 2002).  As deg f <= n,
f divides the minimal polynomial mu of A~, so deg f = n makes f the
characteristic polynomial, and f(0) != 0 then certifies rank n.  As
deg mu <= rank + 1, rank A >= r = deg f - 1 always; for r < n a solve with
the leading r x r minor builds n - r independent columns N with A N = 0
(checked with n - r applications), so rank A <= r.  The right butterfly
enters transposed: a forward network there loses the generic rank profile
on inputs with structured dead columns.  Certificates are unconditional;
estimation failures retry with fresh randomness.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import RetriesExhausted, SingularMatrix
from .field import matmul_mod
from .inverse import InversionConfig, blackbox_inverse_apply, run_stats
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, LeadingMinorOperator)

# Iterates A^i v collected per projection in ``wiedemann_minpoly``: one
# 1 x n by n x PROJECTION_WIDTH product per block instead of one per iterate.
PROJECTION_WIDTH = 32


def berlekamp_massey(seq, p: int) -> np.ndarray:
    """Monic minimal polynomial of a linearly generated sequence.

    Returned ascending by degree: f[0] + f[1] x + ... + x^deg, satisfying
    sum_j f[j] a_{i+j} = 0 for all windows of the input.  The connection
    polynomials C and B are int64 arrays with room for degree len(seq);
    each discrepancy is one dot of C with the reversed window, every
    product reduced before the sum, and each update one slice."""
    a = np.array([int(x) % p for x in seq], dtype=np.int64)
    N = len(a)
    rev = a[::-1]  # a[i-1], ..., a[i-L] is rev[N-i:N-i+L]
    C = np.zeros(N + 1, dtype=np.int64)
    C[0] = 1
    B = C.copy()
    len_b = 1
    L = 0
    shift = 1
    b = 1
    for i in range(N):
        window = C[1:L + 1] * rev[N - i:N - i + L]
        window %= p
        d = (int(a[i]) + int(window.sum())) % p
        if d == 0:
            shift += 1
            continue
        coeff = d * pow(b, -1, p) % p
        grow = 2 * L <= i
        T = C.copy() if grow else None
        step = B[:len_b] * coeff
        step %= p
        seg = C[shift:shift + len_b]
        seg -= step
        seg %= p
        if grow:
            len_b = L + 1
            L = i + 1 - L
            B = T
            b = d
            shift = 1
        else:
            shift += 1
    # C has C[0] = 1 and degree L; the minimal polynomial is its reversal,
    # monic by construction
    return C[:L + 1][::-1].copy()


def wiedemann_minpoly(A: BlackBoxOperator, rng) -> np.ndarray:
    """Minimal generating polynomial of u^T A^i v for random u, v
    (i = 0..2n-1, Berlekamp-Massey); equals the minimal polynomial of A
    with high probability.  The iterates are projected in blocks of
    ``PROJECTION_WIDTH`` columns."""
    p = A.field.p
    n = A.n
    u = rng.integers(0, p, size=n, dtype=np.int64)
    v = rng.integers(0, p, size=n, dtype=np.int64)
    seq = []
    block = np.empty((n, PROJECTION_WIDTH), dtype=np.int64)
    w = v
    for i in range(2 * n):
        block[:, i % PROJECTION_WIDTH] = w
        if i % PROJECTION_WIDTH == PROJECTION_WIDTH - 1 or i + 1 == 2 * n:
            width = i % PROJECTION_WIDTH + 1
            seq.extend(matmul_mod(u[None, :], block[:, :width], p)[0].tolist())
        if i + 1 < 2 * n:
            w = A.apply(w)
    return berlekamp_massey(seq, p)


@dataclass
class RankCertificate:
    """Certified rank and nullspace basis: A @ nullspace = 0 exactly and the
    basis has full column rank n - rank by construction."""
    rank: int
    nullspace: np.ndarray
    seed: int
    stats: dict = dc_field(default_factory=dict)


def nullspace_rank(A: BlackBoxOperator, cfg: InversionConfig | None = None) -> RankCertificate:
    """Rank and nullspace basis of a black-box matrix (Las Vegas).

    Rank n needs only the estimate (2n - 1 applications) and no field-size
    bound; the minor solve of a rank deficiency raises FieldTooSmall below
    its bound.  Never returns an uncertified answer; raises RetriesExhausted
    when the rank estimate or the random conditioning keeps failing."""
    cfg = cfg or InversionConfig()
    field = A.field
    p = field.p
    n = A.n
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    base_count = A.total_applications
    sub_retries = max(2, cfg.max_retries // 2)
    for attempt in range(cfg.max_retries):
        U = ButterflyOperator(n, field, rng)
        Vt = ButterflyOperator(n, field, rng).transpose()
        D = DiagonalOperator.random(n, field, rng)
        A_tilde = ComposedOperator([U, A, Vt, D])
        f = wiedemann_minpoly(A_tilde, rng)
        sub_seed = int(rng.integers(0, 2**63 - 1))  # every attempt: fixed draw order
        if f[0] % p:
            if len(f) - 1 == n:
                # f is the characteristic polynomial and f(0) != 0
                return RankCertificate(
                    rank=n, nullspace=np.zeros((n, 0), dtype=np.int64),
                    seed=cfg.seed, stats=run_stats(A, base_count, t0, attempt))
            continue
        r = len(f) - 2
        if r == 0:
            N_tilde = (p - 1) * np.eye(n, dtype=np.int64) % p
        else:
            A0 = LeadingMinorOperator(A_tilde, r)
            tail = np.zeros((n, n - r), dtype=np.int64)
            tail[r:] = np.eye(n - r, dtype=np.int64)
            cols = A_tilde.apply_matrix(tail)
            A1 = cols[:r]
            try:
                W = blackbox_inverse_apply(A0, A1, InversionConfig(
                    seed=sub_seed, max_retries=sub_retries)).matrix
            except (RetriesExhausted, SingularMatrix):
                continue
            N_tilde = np.concatenate(
                [W, (p - 1) * np.eye(n - r, dtype=np.int64) % p], axis=0)
        # Schur complement certificate: the whole product must vanish
        if np.any(A_tilde.apply_matrix(N_tilde)):
            continue
        N = Vt.apply_matrix(D.apply_matrix(N_tilde))
        if np.any(A.apply_matrix(N)):
            # cannot happen for invertible U; kept as a hard assertion
            continue
        return RankCertificate(rank=r, nullspace=N, seed=cfg.seed,
                               stats=run_stats(A, base_count, t0, attempt))
    raise RetriesExhausted(
        f"rank/nullspace failed {cfg.max_retries} preconditioning attempts")


def rank_certificate(A: BlackBoxOperator, cfg: InversionConfig) -> RankCertificate:
    """``nullspace_rank`` of A on a seed derived from ``cfg.seed``: the
    certificate the inverse and determinant pipelines fall back on, its
    draws independent of their own."""
    return nullspace_rank(A, InversionConfig(
        seed=cfg.seed + 0x9E3779B9, max_retries=cfg.max_retries))

