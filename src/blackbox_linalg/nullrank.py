"""Certified rank and nullspace basis of a black-box matrix.

Each attempt preconditions A~ = U A V^T D (butterflies U, V and a diagonal
D, all invertible; Chen, Eberly, Kaltofen, Saunders, Turner and Villard,
LAA 2002) and estimates its rank on the block projections of the inverse
and the determinant, as block Wiedemann does (Kaltofen, Math. Comp. 1995).
With s = ``cfg.block_size(n)``, N = m s >= n and B = diag(A~, I) of order
N, one ``krylov_apply_left`` sweep of a dense random N x s block v gives

    alpha_k = u^T B^{k+1} v,   k < 2m   (2 N applications of A),

and one order-basis run on its transposed blocks (``hankel._pade_side``)
gives the estimate and the rank-n certificate.  Its row degree sum (the
minimal generator's) is the dimension of the projected Krylov space of
B v, which lies in the range of B, of dimension rank A + N - n, and fills
it with high probability: r = degree sum - (N - n) estimates the rank.
The estimate certifies nothing; the certificates are unconditional:

  * r >= n: the run's q- and v-families (Labahn, Choi and Cabay, SIAM J.
    Comput. 1990) solve H [q_{m-1}; ...; q_0] = E_m, the last s columns of
    I_N, and H [v_m; ...; v_1] = -h = -[alpha_m; ...; alpha_{2m-1}] for the
    block Hankel H = K_u^T B K_v of the alpha_k (one exact check).  If
    y H = 0, then y E_m = 0 (its last block vanishes) and y h = 0, so y
    shifted down one block is in the left kernel too; after m shifts y = 0.
    So H, B and A are nonsingular: rank n, with no field-size bound.
  * r < n: a solve with the leading r x r minor A0 builds n - r independent
    columns N with A N = 0 (checked with n - r applications), so
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

from .errors import FieldTooSmall, HankelSingular, RetriesExhausted, SingularMatrix
from .hankel import BlockHankel, _pade_side
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


def _hankel_certificate(alpha, q_t, v_t, p: int) -> None:
    """HankelSingular unless q_t, v_t (families of alpha^T) solve both Hankel systems."""
    m, s = len(q_t), len(alpha[0])
    QV = np.concatenate([q_t[::-1], v_t[:0:-1]], axis=1).transpose(0, 2, 1)
    HQV = BlockHankel(s, m, alpha, p).apply(QV.reshape(m * s, 2 * s))
    want = np.concatenate([np.eye(m * s, s, s - m * s, dtype=np.int64),
                           (-np.concatenate(alpha[m:])) % p], axis=1)
    if not np.array_equal(HQV, want):
        raise HankelSingular("Pade families fail H Q = E_m, H V = -h")


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
        degrees, families = _pade_side([a.T for a in alpha], s, m, p)
        r = max(sum(degrees) - (P.n - n), 0)
        if r >= n:
            # raises HankelSingular unless H, hence A~, is nonsingular
            _hankel_certificate(alpha, *families(), p)
            return n, np.zeros((n, 0), dtype=np.int64)
        W = np.zeros((0, n), dtype=np.int64)  # rank 0: N~ = -I
        if r:
            A0 = LeadingMinorOperator(A_tilde, r)
            A1 = A_tilde.apply_matrix(np.eye(n, n - r, -r, dtype=np.int64))[:r]
            try:
                W = blackbox_inverse_apply(A0, A1, InversionConfig(
                    seed=sub_seed, max_retries=max(2, cfg.max_retries // 2))).matrix
            except (RetriesExhausted, SingularMatrix):
                return None
            except FieldTooSmall as exc:
                # in a small field the estimate of a full rank falls short
                # more often, and rank n needs no bound: retry
                too_small.append(exc)
                return None
        N_tilde = np.concatenate([W, (p - 1) * np.eye(n - r, dtype=np.int64) % p])
        N = Vt.apply_matrix(D.apply_matrix(N_tilde))
        # Schur complement certificate: A N (= U^-1 A~ N~) must vanish whole
        return None if np.any(A.apply_matrix(N)) else (r, N)

    try:
        (r, N), stats = run_attempts(A, cfg, attempt, certify=False, s=s, m=m)
    except RetriesExhausted:
        if too_small:
            raise too_small[0] from None
        raise
    return RankCertificate(rank=r, nullspace=N, stats=stats)
