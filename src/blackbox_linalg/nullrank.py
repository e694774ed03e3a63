"""Certified rank and nullspace basis of a singular black-box matrix.

The rank is estimated from the minimal polynomial of the butterfly/diagonal
preconditioning U A V^T D (degree r + 1 for singular input with high
probability; Chen, Eberly, Kaltofen, Saunders, Turner and Villard, LAA
2002), then certified: inverting the leading r x r minor witnesses
rank >= r, and a zero Schur complement (checked with n - r black-box
applications) witnesses rank <= r.  The right butterfly enters transposed:
a forward network there loses the generic rank profile on inputs with
structured dead columns.  When the estimate is r = n, a verified inverse
of A itself witnesses rank n: U, V and D are invertible, so A has full rank
exactly when U A V^T D has.  Certificates are unconditional; estimation
failures retry with fresh randomness.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import RetriesExhausted
from .field import matmul_mod
from .inverse import (InversionConfig, blackbox_inverse, blackbox_inverse_apply,
                      run_stats)
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, LeadingMinorOperator)

# Iterates A^i v collected per projection in ``wiedemann_minpoly``: one
# 1 x n by n x PROJECTION_WIDTH product per block instead of one per iterate.
PROJECTION_WIDTH = 32


def berlekamp_massey(seq, p: int) -> np.ndarray:
    """Monic minimal polynomial of a linearly generated sequence.

    Returned ascending by degree: f[0] + f[1] x + ... + x^deg, satisfying
    sum_j f[j] a_{i+j} = 0 for all windows of the input."""
    seq = [int(x) % p for x in seq]
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b = 1
    for i, a in enumerate(seq):
        d = a
        for j in range(1, L + 1):
            d = (d + C[j] * seq[i - j]) % p
        if d == 0:
            shift += 1
            continue
        coeff = d * pow(b, p - 2, p) % p
        T = list(C)
        while len(C) < len(B) + shift:
            C.append(0)
        for j, bj in enumerate(B):
            C[j + shift] = (C[j + shift] - coeff * bj) % p
        if 2 * L <= i:
            L = i + 1 - L
            B = T
            b = d
            shift = 1
        else:
            shift += 1
    # connection polynomial C has C[0] = 1 and degree L; the minimal
    # polynomial is its reversal, monic by construction
    C = C[:L + 1] + [0] * (L + 1 - len(C))
    f = np.array(C[::-1], dtype=np.int64) % p
    return f


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

    Never returns an uncertified answer; raises RetriesExhausted when the
    rank estimate or the random conditioning keeps failing."""
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
        r = n if f[0] % p else len(f) - 2
        sub_seed = int(rng.integers(0, 2**63 - 1))
        if r >= n:
            # estimated nonsingular: a verified inverse of A certifies rank n
            try:
                blackbox_inverse(A, InversionConfig(
                    seed=sub_seed, max_retries=sub_retries), _certify_singular=False)
            except RetriesExhausted:
                continue
            return RankCertificate(
                rank=n, nullspace=np.zeros((n, 0), dtype=np.int64), seed=cfg.seed,
                stats=run_stats(A, base_count, t0, attempt))
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
                    seed=sub_seed, max_retries=sub_retries),
                    _certify_singular=False).matrix
            except RetriesExhausted:
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

