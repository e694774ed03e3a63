"""Certified rank and nullspace basis of a black-box matrix.

Each attempt preconditions A~ = U A V^T D (butterflies U, V and a diagonal
D, all invertible; Chen, Eberly, Kaltofen, Saunders, Turner and Villard,
LAA 2002) and estimates its rank on the block projections of the inverse
and the determinant, as block Wiedemann does (Kaltofen, Math. Comp. 1995).
With s = ``cfg.block_size(n)``, N = m s >= n and B = diag(A~, I) of order
N, one ``krylov_apply_left`` sweep of a dense random N x s block v gives

    alpha_k = u^T B^{k+1} v,   k < 2m   (2 N applications of A),

and the degree sum of its minimal generator (``block_generator``) is the
dimension of the projected Krylov space of B v.  That space lies in the
range of B, of dimension rank A + N - n, and fills it with high
probability, so r = degree sum - (N - n) estimates the rank.  The estimate
certifies nothing; the certificates are unconditional:

  * r >= n: ``hankel_inverse_rep`` succeeds on H = K_u^T B K_v, the block
    Hankel matrix of the alpha_k.  Pade families with invertible
    normalizers exist only for a nonsingular block-Hankel matrix (Labahn,
    Choi and Cabay, SIAM J. Comput. 1990), so H, hence B and A, are
    nonsingular: rank n, with no field-size bound.
  * r < n: a solve with the leading r x r minor A0 builds n - r independent
    columns N with A~ N = 0 (checked with n - r applications), so
    rank A <= r.  The solve returns only after ``hankel_inverse_rep`` has
    succeeded on its own Hankel matrix of A0 (preconditioned and padded),
    so by the same argument A0 is nonsingular, and rank A >= r.

The right butterfly enters transposed: a forward network there loses the
generic rank profile on inputs with structured dead columns.  A wrong
estimate fails its certificate and retries with fresh randomness
(``inverse.run_attempts``, without the singularity certificate, which is
this function on a derived seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determinant import block_generator
from .errors import FieldTooSmall, RetriesExhausted, SingularMatrix
from .hankel import BlockHankel, hankel_inverse_rep
from .inverse import (InversionConfig, RunStats, blackbox_inverse_apply,
                      run_attempts)
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, EmbeddedOperator, LeadingMinorOperator)
from .projection import BlockProjection, krylov_apply_left


@dataclass
class RankCertificate:
    """Certified rank and nullspace basis: A @ nullspace = 0 exactly and the
    basis has full column rank n - rank by construction."""
    rank: int
    nullspace: np.ndarray
    stats: RunStats


def nullspace_rank(A: BlackBoxOperator, cfg: InversionConfig | None = None) -> RankCertificate:
    """Rank and nullspace basis of a black-box matrix (Las Vegas).

    Rank n costs the estimate's sweep (2N applications) and its Hankel
    certificate, and needs no field-size bound.  A rank deficiency needs
    the bound of its minor solve: below it the attempt retries, and when
    every attempt fails the minor solve's FieldTooSmall is raised.  Never
    returns an uncertified answer; raises RetriesExhausted when the rank
    estimate or the random conditioning keeps failing."""
    cfg = cfg or InversionConfig()
    field = A.field
    p = field.p
    n = A.n
    s = cfg.block_size(n)
    m = (n + s - 1) // s
    P = BlockProjection(m * s, s)
    sub_retries = max(2, cfg.max_retries // 2)
    too_small = []  # FieldTooSmall of the minor solves, raised if all fail

    def attempt(rng):
        U = ButterflyOperator(n, field, rng)
        Vt = ButterflyOperator(n, field, rng).transpose()
        D = DiagonalOperator.random(n, field, rng)
        A_tilde = ComposedOperator([U, A, Vt, D])
        v = rng.integers(0, p, size=(P.n, s), dtype=np.int64)
        sub_seed = int(rng.integers(0, 2**63 - 1))  # every attempt: fixed draw order
        work = EmbeddedOperator(A_tilde, P.n) if P.n != n else A_tilde
        # blocks 1..2m of the sweep: alpha_k = u^T B^{k+1} v
        alpha = krylov_apply_left(work, P, v, terms=2 * m + 1)[s:].reshape(2 * m, s, s)
        r = max(sum(block_generator(alpha, m, p).col_degrees) - (P.n - n), 0)
        if r >= n:
            # raises HankelSingular unless H, hence A~, is nonsingular
            hankel_inverse_rep(BlockHankel(s, m, alpha, p), rng)
            return n, np.zeros((n, 0), dtype=np.int64)
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
                return None
            except FieldTooSmall as exc:
                # in a small field the estimate of a full rank falls short
                # more often, and rank n needs no bound: retry
                too_small.append(exc)
                return None
            N_tilde = np.concatenate(
                [W, (p - 1) * np.eye(n - r, dtype=np.int64) % p], axis=0)
        # Schur complement certificate: the whole product must vanish
        if np.any(A_tilde.apply_matrix(N_tilde)):
            return None
        N = Vt.apply_matrix(D.apply_matrix(N_tilde))
        # A N != 0 cannot happen for invertible U; kept as a hard assertion
        return None if np.any(A.apply_matrix(N)) else (r, N)

    try:
        (r, N), stats = run_attempts(A, cfg, attempt, certify=False, s=s, m=m)
    except RetriesExhausted:
        if too_small:
            raise too_small[0] from None
        raise
    return RankCertificate(rank=r, nullspace=N, stats=stats)
