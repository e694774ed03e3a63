"""Certified rank and nullspace basis of a black-box matrix.

Each attempt preconditions A~ = U A V^T D (butterflies U, V and a diagonal
D, all invertible; Chen, Eberly, Kaltofen, Saunders, Turner and Villard,
LAA 2002) and estimates its rank on the block projections of the inverse
and the determinant, as block Wiedemann does (Kaltofen, Math. Comp. 1995).
With s = ``cfg.block_size(n)``, N = m s >= n and B = diag(A~, I) of order
N, one ``hankel._block_wiedemann`` run on a dense random N x s block v
sweeps

    alpha_k = u^T B^{k+1} v,   k < 2m   (2 N applications of A),

and its one order-basis run gives the estimate and the rank-n certificate.
Its row degree sum (the minimal generator's) is the dimension of the
projected Krylov space of B v, which lies in the range of B, of dimension
rank A + N - n, and fills it with high probability: r = degree sum - (N - n)
estimates the rank.  The estimate certifies nothing; the certificates are
unconditional:

  * r >= n: the run's q- and v-families pass the Hankel certificate, which
    proves H = K_u^T B K_v, hence B and A, nonsingular: rank n, with no
    field-size bound.
  * r < n with nullity k = n - r <= s: the same run gives both bounds.
    Rank at least r: a kernel vector y of the (m+1) x m block-Hankel
    matrix [alpha_{i+j}] = K_u'^T B K_v (K_u' stacking u^T B^i, i <= m)
    is one approximant (y, z) of the v-run's order 2m with shifted degree
    at most m - 1, and back.  The run's basis is shift-reduced, so by the
    predictable-degree property its 2s row degrees d_i count those
    approximants exactly (``hankel._hankel_rank``): rho =
    N - sum_i max(0, m - d_i) is that matrix's rank, at most
    rank B = rank A + N - n, and rho - (N - n) >= r proves rank A >= r, at
    any p.  Rank at most r: where the run's minimal generator F also
    generates the unprojected B^{k+1} v, K = sum_j B^j v F_j C, for a
    random s x k block C drawn after v, spans ker B when k <= s
    (Kaltofen), formed by one Horner sweep of deg F * k applications
    (``projection.krylov_horner``).  K (-K_bot^{-1}), K_bot its rows
    r..n-1, is the unique basis N~ = [W; -I] of ker A~ with that bottom
    block, the same that the minor solve below gives; A N = 0 (checked
    with k applications) proves rank A <= r.
  * r < n with k > s: one inverse attempt (``inverse._inverse_attempt``)
    solves with the leading r x r minor A0 and builds the same N~, with
    W = A0^{-1} A1, checked by A N = 0, so rank A <= r.  The attempt
    answers only after ``hankel_inverse_rep`` has proved its own Hankel
    matrix of A0 (preconditioned and padded) nonsingular by the Hankel
    certificate, so A0 is nonsingular and rank A >= r, at any p.  That A0
    is nonsingular when r is the rank is the generic rank profile of A~
    (Chen et al.); the proof needs no field-size bound.

A wrong estimate, a degree count below r, a kernel read with nonzero
padding rows or a singular K_bot, or a minor attempt that degenerates,
fails its verification or certifies A0 singular, costs one retry with
fresh randomness (``inverse.run_attempts``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import dense_inverse
from .errors import Singular, SingularMatrix
from .field import matmul_mod
from .hankel import _block_wiedemann, _hankel_rank
from .inverse import InversionConfig, RunStats, _inverse_attempt, run_attempts
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, EmbeddedOperator, LeadingMinorOperator)
from .projection import krylov_horner


@dataclass
class RankCertificate:
    """Certified rank and nullspace basis: A @ nullspace = 0 exactly and the
    basis has full column rank n - rank by construction."""
    rank: int
    nullspace: np.ndarray
    stats: RunStats


def _rank_preconditioner(A: BlackBoxOperator, s: int, rng):
    """The rank's draws, in this order: A~ = U A V^T D (butterflies U and
    V, a random diagonal D) and a dense random N x s block v, N the
    multiple of s that n pads to.

    Returns (B, V^T, D, v) with B = diag(A~, I) of order N.  The right
    butterfly enters transposed: a forward network there loses the generic
    rank profile on inputs with structured dead columns."""
    n, field = A.n, A.field
    U = ButterflyOperator(n, field, rng)
    Vt = ButterflyOperator(n, field, rng).transpose()
    D = DiagonalOperator.random(n, field, rng)
    A_tilde = ComposedOperator([U, A, Vt, D])
    N = -(-n // s) * s
    v = rng.integers(0, field.p, size=(N, s), dtype=np.int64)
    return EmbeddedOperator(A_tilde, N) if N != n else A_tilde, Vt, D, v


def nullspace_rank(A: BlackBoxOperator, cfg: InversionConfig | None = None) -> RankCertificate:
    """Rank and nullspace basis of a black-box matrix (Las Vegas).

    Rank n costs the estimate's sweep (2N applications) and its Hankel
    certificate.  A rank r < n adds the A N = 0 check (n - r applications)
    to the kernel read of the same run (deg F (n - r) applications) when
    the nullity n - r is at most s, and to one inverse attempt on the
    r x r minor otherwise.  No certificate needs a field-size bound: a
    small field only makes retries likelier.  Never returns an uncertified
    answer: when the rank estimate or the random conditioning keeps
    failing, ``run_attempts`` raises once the attempts run out, with the
    run's stats as ``.stats``."""
    cfg = cfg or InversionConfig()
    p = A.field.p
    n = A.n
    s = cfg.block_size(n)
    m = (n + s - 1) // s

    def attempt(rng):
        B, Vt, D, v = _rank_preconditioner(A, s, rng)
        degrees, certified, F, row_degrees = _block_wiedemann(B, v)
        r = max(sum(degrees) - (m * s - n), 0)
        if r >= n:
            certified()  # raises HankelSingular unless B is nonsingular
            return n, np.zeros((n, 0), dtype=np.int64)
        k = n - r
        W = np.zeros((0, n), dtype=np.int64)  # rank 0: N~ = -I
        if r and k <= s:
            # the degree count proves rank A >= rho - (N - n)
            if _hankel_rank(row_degrees, m) - (m * s - n) < r:
                return None
            C = rng.integers(0, p, size=(s, k), dtype=np.int64)
            K = krylov_horner(B, v, matmul_mod(F.reshape(-1, s), C, p).reshape(len(F), s, k))
            if K[n:].any():
                return None
            try:  # N~ = K (-K_bot^{-1}), K_bot its rows r..n-1
                W = matmul_mod(K[:r], (-dense_inverse(K[r:n], p)) % p, p)
            except Singular:
                return None
        elif r:
            # A~'s leading minor and its columns r..n-1, read through B
            A0 = LeadingMinorOperator(B, r)
            A1 = B.apply_matrix(np.eye(m * s, k, -r, dtype=np.int64))[:r]
            try:
                W = _inverse_attempt(A0, A1, InversionConfig().block_size(r), rng)
            except SingularMatrix:
                return None
            if W is None:
                return None
        N_tilde = np.concatenate([W, (p - 1) * np.eye(k, dtype=np.int64) % p])
        N = Vt.apply_matrix(D.apply_matrix(N_tilde))
        # Schur complement certificate: A N (= U^-1 A~ N~) must vanish whole
        return None if np.any(A.apply_matrix(N)) else (r, N)

    (r, N), stats = run_attempts(A, cfg, attempt, s=s, m=m)
    return RankCertificate(rank=r, nullspace=N, stats=stats)
