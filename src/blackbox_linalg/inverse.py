"""Las Vegas black-box inversion: the dense inverse A^{-1} and A^{-1} M.

Both are one pipeline.  Each attempt preconditions B = D (U A) D with a
random butterfly U and a random block-constant diagonal D, so that

    A^{-1} M = D K_r H^{-1} K_l D U M,   H = K_l B K_r,

with K_r = [u, B u, ..., B^{m-1} u] and K_l its transposed analogue for the
stacked-identity projection u.  Per attempt:

  1. one transposed sweep of (2m-1) s applications gives the Hankel blocks
     of H (and, for the inverse, K_l itself),
  2. the order-basis representation of H^{-1} (no applications),
  3. the left block: for A^{-1} it is K_l from the sweep, for A^{-1} M
     it is K_l (D U M) by a Krylov sweep of (m-1) k applications,
  4. Z = K_r H^{-1} (left block), one column panel of
     ``PANEL_ELEMENTS // n`` columns at a time: H^{-1} applied to the
     panel, then the Horner sweep for K_r ((m-1) k applications in all),
     the result written back over the panel, so the left block's buffer
     becomes Z,
  5. the final map, in place in Z: D Z D U (two diagonal scalings and one
     butterfly applied from the right) for the inverse, D Z for A^{-1} M,
  6. verification A X = M (k applications) unless disabled, one column
     panel at a time.

Every step treats columns independently, so the panels change neither the
answer nor the draws nor the application counts; the only n x n array of a
full inverse is the answer itself, plus panel-sized scratch.

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
from .field import PANEL_ELEMENTS, reduce_in_place, reduce_mod
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
    A^{-1}: ``unwrap(Z)`` overwrites the n x n residue block Z with D Z D U
    and returns it (two diagonal scalings and the transposed butterfly on
    the rows of Z, O(n^2 log n) field operations, panel-sized scratch).

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
        Z *= D.d[:, None]
        reduce_in_place(Z, field.p)
        Z *= D.d
        reduce_in_place(Z, field.p)
        # (D Z D) U = (U.T (D Z D).T).T
        U.apply_transpose_in_place(Z.T)
        return Z

    return B, D, U, unwrap


def verify_inverse(A: BlackBoxOperator, X: np.ndarray,
                   M: np.ndarray | None = None) -> bool:
    """True iff A X = M exactly (M defaults to the identity); costs one
    application per column of X, whatever the outcome.

    A X is formed and compared one column panel of ``PANEL_ELEMENTS // n``
    columns at a time, so nothing of the size of X is allocated."""
    X = np.asarray(X)
    n = A.n
    if X.shape != ((n, n) if M is None else np.shape(M)):
        return False
    width = max(1, PANEL_ELEMENTS // max(n, 1))
    ok = True
    for lo in range(0, X.shape[1], width):
        AX = A.apply_matrix(X[:, lo:lo + width])
        if M is None:
            # the identity's columns lo.. have their ones at rows lo..
            cols = np.arange(AX.shape[1])
            AX[lo + cols, cols] -= 1
            ok &= not AX.any()
        else:
            ok &= bool(np.array_equal(AX, M[:, lo:lo + width]))
    return ok


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
    width = max(1, PANEL_ELEMENTS // work.n)

    def attempt(rng):
        B, D, U, unwrap = precondition(work, s, rng)
        H, Kl = build_hankel(B, P, keep_left=M is None)
        rep = hankel_inverse_rep(H, rng)
        Z = Kl if M is None else krylov_apply_left(
            B, P, D.apply_matrix(U.apply_matrix(M_pad)))
        # each column panel of the left block is overwritten by its Z
        for lo in range(0, Z.shape[1], width):
            panel = Z[:, lo:lo + width]
            panel[...] = krylov_apply_right(B, P, hankel_inverse_apply(rep, panel))
        if M is None:
            X = unwrap(Z)[:n, :n]
        else:
            Z *= D.d[:, None]
            X = reduce_in_place(Z, p)[:n]
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
