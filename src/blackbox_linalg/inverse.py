"""Las Vegas black-box inversion: the dense inverse A^{-1} and A^{-1} M.

Both are one pipeline.  Each attempt preconditions B = D (U A) D with a
random butterfly U and a random block-constant diagonal D, so that

    A^{-1} M = D K_r H^{-1} K_l D U M,   H = K_l B K_r,

with K_r = [u, B u, ..., B^{m-1} u] and K_l its transposed analogue for the
stacked-identity projection u.  Per attempt:

  1. one transposed sweep of (2m-1) s applications gives the Hankel blocks
     of H (and, for the inverse, K_l itself),
  2. the order-basis representation of H^{-1} (no applications),
  3. the left product: for A^{-1} it is K_l from the sweep, for A^{-1} M
     it is K_l (D U M) by a Krylov sweep of (m-1) k applications,
  4. H^{-1} applied to it, then the Horner sweep for K_r ((m-1) k
     applications),
  5. the final map: D Z D U (one dense butterfly multiplication) for the
     inverse, D Z for A^{-1} M,
  6. verification A X = M (k applications) unless disabled.

Any internal degeneracy or a failed verification retries with completely
fresh randomness; accepted answers are always exact.  ``run_attempts`` holds
this Las Vegas policy for the determinant and the rank as well, with the
singularity certificate that a singular A needs.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSequence, FieldTooSmall, HankelSingular,
                     RetriesExhausted, SingularMatrix)
from .field import reduce_mod
from .hankel import build_hankel, hankel_inverse_apply, hankel_inverse_rep
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, EmbeddedOperator)
from .projection import BlockProjection, krylov_apply_left, krylov_apply_right


@dataclass
class InversionConfig:
    """Knobs for the randomized inversion; s = 0 picks round(sqrt(n))."""
    s: int = 0
    seed: int = 0
    max_retries: int = 8
    verify: bool = True

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("blocking factor s must be >= 0 (0 = auto)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    def block_size(self, n: int) -> int:
        if self.s:
            return min(self.s, n)
        return min(max(round(math.sqrt(n)), 1), n)


@dataclass(frozen=True)
class RunStats:
    """What one run cost: black-box applications of the input operator in
    all attempts and in the accepted one, the failed attempts before it,
    wall time in seconds, and the blocking factor s and block count m (both
    0 for a run without a block Krylov pipeline of its own)."""
    bb_apply_count: int
    wall_time: float
    retries: int = 0
    s: int = 0
    m: int = 0
    bb_applies_last_attempt: int = 0


@dataclass
class InversionResult:
    matrix: np.ndarray
    stats: RunStats


def field_size_bound(n: int, m: int) -> int:
    """Required field size 2 (m+1) n ceil(log2 n) for the success analysis."""
    return 2 * (m + 1) * n * math.ceil(math.log2(n)) if n > 1 else 2


def precondition(A: BlackBoxOperator, s: int, rng):
    """B = D (U A) D plus the recipe turning a B-pipeline result back into
    A^{-1} (two diagonal scalings and one dense butterfly multiplication,
    O(n^2 log n) field operations).

    Raises FieldTooSmall when p is below the 2 (m+1) n ceil(log2 n) bound."""
    n = A.n
    field = A.field
    if n % s:
        raise ValueError("blocking factor must divide n (pad first)")
    m = n // s
    bound = field_size_bound(n, m)
    if field.p <= bound:
        raise FieldTooSmall(field.p, bound)
    U = ButterflyOperator(n, field, rng)
    D = DiagonalOperator.block_constant(
        rng.integers(1, field.p, size=m, dtype=np.int64), s, field)
    B = ComposedOperator([D, U, A, D])

    def unwrap(Z: np.ndarray) -> np.ndarray:
        p = field.p
        W = D.d[:, None] * Z % p * D.d[None, :] % p
        return U.apply_transpose_matrix(W.T).T.copy()

    return B, D, U, unwrap


def verify_inverse(A: BlackBoxOperator, X: np.ndarray,
                   M: np.ndarray | None = None) -> bool:
    """True iff A X = M exactly (M defaults to the identity); costs one
    application per column of X."""
    X = reduce_mod(X, A.field.p)
    if M is None:
        M = np.eye(A.n, dtype=np.int64)
    if X.shape != M.shape:
        return False
    return bool(np.array_equal(A.apply_matrix(X), M))


def blackbox_inverse(A: BlackBoxOperator,
                     cfg: InversionConfig | None = None) -> InversionResult:
    """Dense inverse of a black-box matrix (Las Vegas: never wrong).

    Raises FieldTooSmall, SingularMatrix (with a certified kernel vector)
    or RetriesExhausted."""
    return _solve(A, None, cfg)


def blackbox_inverse_apply(A: BlackBoxOperator, M: np.ndarray,
                           cfg: InversionConfig | None = None) -> InversionResult:
    """A^{-1} M without materializing A^{-1} (M may be a vector); raises
    like blackbox_inverse."""
    M = reduce_mod(M, A.field.p)
    if M.shape[0] != A.n:
        raise ValueError(f"M has {M.shape[0]} rows, operator is {A.n}")
    res = _solve(A, M[:, None] if M.ndim == 1 else M, cfg)
    res.matrix = res.matrix.reshape(M.shape)
    return res


def _solve(A: BlackBoxOperator, M: np.ndarray | None, cfg):
    """Both entry points, one attempt body under ``run_attempts``: A^{-1}
    when M is None, else A^{-1} M for a reduced n x k block M."""
    cfg = cfg or InversionConfig()
    p = A.field.p
    n = A.n
    s = cfg.block_size(n)
    work = EmbeddedOperator(A, (n + s - 1) // s * s) if n % s else A
    P = BlockProjection(work.n, s)
    M_pad = None if M is None else np.pad(M, ((0, work.n - n), (0, 0)))

    def attempt(rng):
        B, D, U, unwrap = precondition(work, s, rng)
        H, Kl = build_hankel(B, P, keep_left=M is None)
        rep = hankel_inverse_rep(H, rng)
        left = Kl if M is None else krylov_apply_left(
            B, P, D.apply_matrix(U.apply_matrix(M_pad)))
        Z = krylov_apply_right(B, P, hankel_inverse_apply(rep, left))
        X = unwrap(Z)[:n, :n] if M is None else (D.d[:, None] * Z % p)[:n]
        return X if not cfg.verify or verify_inverse(A, X, M) else None

    X, stats = run_attempts(A, cfg, attempt, certify=True, s=s, m=P.m)
    return InversionResult(matrix=X, stats=stats)


def run_attempts(A: BlackBoxOperator, cfg: InversionConfig, attempt,
                 certify: bool, s: int = 0, m: int = 0):
    """The Las Vegas policy of every pipeline; returns (answer, RunStats).

    Up to ``cfg.max_retries`` calls ``attempt(rng)`` draw from one generator
    seeded with ``cfg.seed``.  An attempt returns its answer, returns None
    to retry, or raises HankelSingular or DegenerateSequence on a degenerate
    projection.  That most often means that A itself is singular, when every
    further attempt is doomed too; so with ``certify`` the first one runs
    ``_singular_certificate`` at once, and a certified rank deficiency
    propagates as SingularMatrix.  On a nonsingular A (an unlucky draw) the
    certificate is cheap, 2n - 1 applications when its first estimate
    succeeds, and the attempts go on; it never runs twice, and runs after
    the last attempt when no projection degenerated.  When the attempts run
    out, its FieldTooSmall is raised, else RetriesExhausted.  The stats
    count the applications of A and report s and m as given."""
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    base_count = A.total_applications
    failure = None  # a FieldTooSmall of the certificate
    for retry in range(cfg.max_retries):
        attempt_base = A.total_applications
        degenerate = False
        try:
            answer = attempt(rng)
        except (HankelSingular, DegenerateSequence):
            answer, degenerate = None, True
        if answer is not None:
            return answer, RunStats(
                bb_apply_count=A.total_applications - base_count,
                wall_time=time.perf_counter() - t0, retries=retry, s=s, m=m,
                bb_applies_last_attempt=A.total_applications - attempt_base)
        if certify and (degenerate or retry + 1 == cfg.max_retries):
            certify = False  # at most once
            try:
                _singular_certificate(A, cfg)
            except FieldTooSmall as exc:
                failure = exc
    raise failure or RetriesExhausted(
        f"{cfg.max_retries} attempts failed without a certified answer")


def _singular_certificate(A: BlackBoxOperator, cfg: InversionConfig) -> None:
    """Try to prove A singular with ``nullspace_rank`` on a seed derived
    from ``cfg.seed``, its draws independent of the caller's: a certified
    rank < n raises SingularMatrix with a kernel vector, and a FieldTooSmall
    of its minor solve propagates; any other outcome returns."""
    from .nullrank import nullspace_rank  # local import; nullrank uses inverse

    try:
        cert = nullspace_rank(A, InversionConfig(
            seed=cfg.seed + 0x9E3779B9, max_retries=cfg.max_retries))
    except RetriesExhausted:
        return
    if cert.rank < A.n:
        raise SingularMatrix(cert.nullspace[:, 0].copy())
