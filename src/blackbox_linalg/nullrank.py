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
  * r < n: one inverse attempt (``inverse._inverse_attempt``) solves
    with the leading r x r minor A0 and builds n - r independent columns N
    with A N = 0 (checked with n - r applications), so rank A <= r.  The
    attempt answers only after ``hankel_inverse_rep`` has proved its own
    Hankel matrix of A0 (preconditioned and padded) nonsingular by the same
    certificate, so A0 is nonsingular and rank A >= r, at any p.  That A0
    is nonsingular when r is the rank is the generic rank profile of A~
    (Chen et al.); the proof needs no field-size bound.

A wrong estimate, or a minor attempt that degenerates, fails its
verification or certifies A0 singular, costs one retry with fresh
randomness (``inverse.run_attempts``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix
from .hankel import _block_wiedemann
from .inverse import InversionConfig, RunStats, _inverse_attempt, run_attempts
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, EmbeddedOperator, LeadingMinorOperator)


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
    certificate; a rank r < n adds one inverse attempt on the r x r minor
    and the A N = 0 check.  Neither needs a field-size bound: a small field
    only makes retries likelier.  Never returns an uncertified answer: when
    the rank estimate or the random conditioning keeps failing,
    ``run_attempts`` raises once the attempts run out, with the run's stats
    as ``.stats``."""
    cfg = cfg or InversionConfig()
    p = A.field.p
    n = A.n
    s = cfg.block_size(n)
    m = (n + s - 1) // s

    def attempt(rng):
        B, Vt, D, v = _rank_preconditioner(A, s, rng)
        degrees, certified, _ = _block_wiedemann(B, v)
        r = max(sum(degrees) - (m * s - n), 0)
        if r >= n:
            certified()  # raises HankelSingular unless B is nonsingular
            return n, np.zeros((n, 0), dtype=np.int64)
        W = np.zeros((0, n), dtype=np.int64)  # rank 0: N~ = -I
        if r:
            # A~'s leading minor and its columns r..n-1, read through B
            A0 = LeadingMinorOperator(B, r)
            A1 = B.apply_matrix(np.eye(m * s, n - r, -r, dtype=np.int64))[:r]
            try:
                W = _inverse_attempt(A0, A1, InversionConfig().block_size(r), rng)
            except SingularMatrix:
                return None
            if W is None:
                return None
        N_tilde = np.concatenate([W, (p - 1) * np.eye(n - r, dtype=np.int64) % p])
        N = Vt.apply_matrix(D.apply_matrix(N_tilde))
        # Schur complement certificate: A N (= U^-1 A~ N~) must vanish whole
        return None if np.any(A.apply_matrix(N)) else (r, N)

    (r, N), stats = run_attempts(A, cfg, attempt, s=s, m=m)
    return RankCertificate(rank=r, nullspace=N, stats=stats)
