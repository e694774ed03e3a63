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
fresh randomness; accepted answers are always exact.  A singular Hankel
matrix most often means that A itself is singular, when every further
attempt is doomed too; so the first HankelSingular runs the rank
certificate at once, and a certified rank deficiency turns into
SingularMatrix.  Otherwise (a nonsingular A met an unlucky draw) the
attempts go on, and the certificate never runs a second time.  When no
attempt raised HankelSingular, it runs once after the last attempt.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (FieldTooSmall, HankelSingular, RetriesExhausted,
                     SingularMatrix)
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


@dataclass
class InversionResult:
    matrix: np.ndarray
    stats: dict = dc_field(default_factory=dict)


def run_stats(A: BlackBoxOperator, base_count: int, t0: float, retries: int,
              **extra) -> dict:
    """The cost report of a Las Vegas result: black-box applications of A
    since ``base_count``, failed attempts before the accepted one, and wall
    time since ``t0``."""
    return {"bb_apply_count": A.total_applications - base_count,
            "retries": retries, "wall_time": time.perf_counter() - t0, **extra}


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


def blackbox_inverse(A: BlackBoxOperator, cfg: InversionConfig | None = None,
                     _certify_singular: bool = True) -> InversionResult:
    """Dense inverse of a black-box matrix (Las Vegas: never wrong).

    Raises FieldTooSmall, SingularMatrix (with a certified kernel vector)
    or RetriesExhausted."""
    return _solve(A, None, cfg, _certify_singular)


def blackbox_inverse_apply(A: BlackBoxOperator, M: np.ndarray,
                           cfg: InversionConfig | None = None,
                           _certify_singular: bool = True) -> InversionResult:
    """A^{-1} M without materializing A^{-1} (M may be a vector); raises
    like blackbox_inverse."""
    M = reduce_mod(M, A.field.p)
    if M.shape[0] != A.n:
        raise ValueError(f"M has {M.shape[0]} rows, operator is {A.n}")
    res = _solve(A, M[:, None] if M.ndim == 1 else M, cfg, _certify_singular)
    res.matrix = res.matrix.reshape(M.shape)
    return res


def _solve(A: BlackBoxOperator, M: np.ndarray | None, cfg, certify_singular):
    """The attempt loop of both entry points: A^{-1} when M is None, else
    A^{-1} M for a reduced n x k block M."""
    cfg = cfg or InversionConfig()
    p = A.field.p
    n = A.n
    s = cfg.block_size(n)
    work = EmbeddedOperator(A, (n + s - 1) // s * s) if n % s else A
    P = BlockProjection(work.n, s)
    M_pad = None if M is None else np.pad(M, ((0, work.n - n), (0, 0)))
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    base_count = A.total_applications
    certified = not certify_singular  # the certificate runs at most once
    for attempt in range(cfg.max_retries):
        attempt_base = A.total_applications
        B, D, U, unwrap = precondition(work, s, rng)
        H, Kl = build_hankel(B, P, keep_left=M is None)
        try:
            rep = hankel_inverse_rep(H, rng)
        except HankelSingular:
            if not certified:
                certified = True
                _singular_certificate(A, cfg)
            continue
        left = Kl if M is None else krylov_apply_left(
            B, P, D.apply_matrix(U.apply_matrix(M_pad)))
        Z = krylov_apply_right(B, P, hankel_inverse_apply(rep, left))
        X = unwrap(Z)[:n, :n] if M is None else (D.d[:, None] * Z % p)[:n]
        if cfg.verify and not verify_inverse(A, X, M):
            continue
        return InversionResult(matrix=X, stats=run_stats(
            A, base_count, t0, attempt,
            bb_applies_last_attempt=A.total_applications - attempt_base,
            seed=cfg.seed, s=s, m=P.m, verified=cfg.verify))
    if not certified:
        _singular_certificate(A, cfg)
    what = "inversion" if M is None else "apply-inverse"
    raise RetriesExhausted(
        f"{what} failed {cfg.max_retries} attempts without a singularity certificate")


def _singular_certificate(A: BlackBoxOperator, cfg: InversionConfig) -> None:
    """Try to prove A singular: a certified rank < n raises SingularMatrix
    with a kernel vector; any other outcome returns."""
    from .nullrank import rank_certificate  # local import; nullrank uses inverse

    try:
        cert = rank_certificate(A, cfg)
    except (RetriesExhausted, FieldTooSmall):
        return
    if cert.rank < A.n and cert.nullspace.shape[1]:
        raise SingularMatrix(cert.nullspace[:, 0].copy())
