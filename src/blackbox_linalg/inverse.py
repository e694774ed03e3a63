"""Las Vegas black-box inversion: the dense inverse A^{-1} and A^{-1} M.

Both are one pipeline.  Each attempt preconditions B = D (U A) D with a
random butterfly U and a random block-constant diagonal D, so that

    A^{-1} M = D K_r H^{-1} K_l D U M,   H = K_l B K_r,

with K_r = [u, B u, ..., B^{m-1} u] and K_l its transposed analogue for the
stacked-identity projection u.  Per attempt:

  1. one transposed sweep of (2m-1) s applications gives the Hankel blocks
     of H (and, for the inverse, K_l itself),
  2. the order-basis representation of H^{-1} (no applications),
  3. the left block, the one step where the two differ: for A^{-1}, K_l D U
     made in place from the sweep's K_l (a column scaling and a butterfly
     from the right); for A^{-1} M, the answer buffer starts as M padded to
     n rows, and each column panel of it gives its own K_l (D U panel) by a
     Krylov sweep ((m-1) k applications in all),
  4. Z = K_r H^{-1} (left block), one column panel of ``PANEL_ELEMENTS // n``
     columns at a time: H^{-1}, then the Horner sweep for K_r ((m-1) k
     applications in all), the result written back over the panel,
  5. the one final map of both, in place: D Z, then its leading n x k block,
  6. verification A X = M (k applications), one column panel at a time.

Every step treats columns independently, so the panels change neither the
answer nor the draws nor the application counts; the only n x k array of
either, besides M, is the answer itself, plus panel-sized scratch.

Any internal degeneracy or a failed verification retries with completely
fresh randomness; accepted answers are always exact.  A degenerate H first
reads a kernel vector off the generator its own order basis made
(``_kernel_certificate``, as the determinant does), which certifies a
singular A: a random probe of deg F + 1 transposed applications of a
vector (of a block of a few in a small field) rules out the generator
columns that cannot certify, and only the rest are formed, one column at a
time.  ``run_attempts`` holds this Las Vegas policy for the determinant and
the rank as well.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, FieldTooSmall, HankelSingular,
                     RetriesExhausted, SingularMatrix)
from .field import (PANEL_ELEMENTS, as_int64, matmul_mod, reduce_in_place,
                    reduce_mod)
from .hankel import build_hankel, hankel_inverse_apply, hankel_inverse_rep
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, EmbeddedOperator)
from .projection import BlockProjection, krylov_apply_left, krylov_apply_right


@dataclass
class InversionConfig:
    """Knobs of every pipeline; s = 0 is round(sqrt(n)), for det round(n^(1/3))."""
    s: int = 0
    seed: int = 0
    max_retries: int = 8

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
    wall time in seconds, and the blocking factor s and block count m of
    its block Krylov sweeps (inverse, det, rank and nullspace; both 0 when
    not given).  A run that raises counts the attempt that certified a
    singular A, or the last one when every attempt failed (then retries is
    the number of attempts), as its last."""
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
    """B = D (U A) D, its factors D and U, and the final map of both entry
    points: ``unwrap(Z)`` overwrites the n x k residue block
    Z = K_r H^{-1} K_l D U M with D Z = A^{-1} M and returns it (one row
    scaling in place; the left block carries D U already).

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
        return reduce_in_place(Z, field.p)

    return B, D, U, unwrap


def verify_inverse(A: BlackBoxOperator, X: np.ndarray,
                   M: np.ndarray | None = None) -> bool:
    """True iff A X = M mod p (M defaults to the identity); costs one
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
            ok &= bool(np.array_equal(AX, reduce_mod(M[:, lo:lo + width], A.field.p)))
    return ok


def blackbox_inverse(A: BlackBoxOperator,
                     cfg: InversionConfig | None = None) -> InversionResult:
    """Dense inverse of a black-box matrix (Las Vegas: never wrong).

    Raises FieldTooSmall, SingularMatrix (with a certified kernel vector)
    or RetriesExhausted."""
    return _solve(A, None, cfg)


def blackbox_inverse_apply(A: BlackBoxOperator, M: np.ndarray,
                           cfg: InversionConfig | None = None) -> InversionResult:
    """A^{-1} M without materializing A^{-1} (M may be a vector; its only
    whole copy is the answer buffer); raises like blackbox_inverse."""
    M = as_int64(M, A.field.p)
    if M.ndim not in (1, 2) or M.shape[0] != A.n:
        raise DimensionError(f"M has shape {M.shape}, operator is {A.n} x {A.n}")
    res = _solve(A, M[:, None] if M.ndim == 1 else M, cfg)
    res.matrix = res.matrix.reshape(M.shape)
    return res


def _solve(A: BlackBoxOperator, M: np.ndarray | None, cfg):
    """Both entry points, one attempt body under ``run_attempts``: A^{-1}
    when M is None, else A^{-1} M for an int64 n x k block M."""
    cfg = cfg or InversionConfig()
    n = A.n
    s = cfg.block_size(n)
    work = EmbeddedOperator(A, (n + s - 1) // s * s) if n % s else A
    P = BlockProjection(work.n, s)
    k = n if M is None else M.shape[1]
    width = max(1, PANEL_ELEMENTS // work.n)

    def attempt(rng):
        B, D, U, unwrap = precondition(work, s, rng)
        H, Kl = build_hankel(B, P, keep_left=M is None)
        try:
            rep = hankel_inverse_rep(H, rng)
        except HankelSingular as exc:
            _kernel_certificate(A, B, P.u_matrix(), exc.generator, D, rng)
            raise
        if M is None:
            # K_l D U in place: (K_l D) U = (U.T (K_l D).T).T
            Kl *= D.d
            Z = U.apply_transpose_in_place(reduce_in_place(Kl, A.field.p).T).T
            left = lambda V: V
        else:
            Z = reduce_in_place(np.pad(M, ((0, work.n - n), (0, 0))), A.field.p)
            left = lambda V: krylov_apply_left(B, P, D.apply_matrix(U.apply_matrix(V)))
        # each column panel of Z is overwritten by K_r H^{-1} (its left block)
        for lo in range(0, Z.shape[1], width):
            panel = Z[:, lo:lo + width]
            panel[...] = krylov_apply_right(B, P, hankel_inverse_apply(rep, left(panel)))
        X = unwrap(Z)[:n, :k]
        return X if verify_inverse(A, X, M) else None

    X, stats = run_attempts(A, cfg, attempt, s=s, m=P.m)
    return InversionResult(matrix=X, stats=stats)


def run_attempts(A: BlackBoxOperator, cfg: InversionConfig, attempt,
                 s: int = 0, m: int = 0):
    """The Las Vegas policy of every pipeline; returns (answer, RunStats).

    Up to ``cfg.max_retries`` calls ``attempt(rng)`` draw from one generator
    seeded with ``cfg.seed``.  An attempt returns its answer, returns None
    or raises HankelSingular to retry, or raises SingularMatrix, which
    propagates (an attempt certifies a singular A from its own run, by
    ``_kernel_certificate``).  When the attempts run out, RetriesExhausted
    is raised.  The stats count the applications of A and report s and m
    as given; the SingularMatrix and RetriesExhausted that leave carry the
    run's stats as ``.stats``."""
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    base_count = attempt_base = A.total_applications

    def stats(retries):
        return RunStats(
            bb_apply_count=A.total_applications - base_count,
            wall_time=time.perf_counter() - t0, retries=retries, s=s, m=m,
            bb_applies_last_attempt=A.total_applications - attempt_base)

    for retry in range(cfg.max_retries):
        attempt_base = A.total_applications
        try:
            answer = attempt(rng)
        except HankelSingular:
            continue
        except SingularMatrix as exc:
            exc.stats = stats(retry)
            raise
        if answer is not None:
            return answer, stats(retry)
    exc = RetriesExhausted(
        f"{cfg.max_retries} attempts failed without a certified answer")
    exc.stats = stats(cfg.max_retries)
    raise exc


def _kernel_certificate(A: BlackBoxOperator, B: BlackBoxOperator, v: np.ndarray,
                        F: np.ndarray, D: DiagonalOperator, rng) -> None:
    """SingularMatrix(k) for a kernel vector k of A read off the generator
    F of a failed attempt's alpha_k = u^T B^{k+1} v (B = ... A D, A padded
    to B's order N by diag(A, I), v of N x s).  Column c of F, of degree
    d_c, gives w_c = sum_j B^j v F_j e_c, with B w_c = 0 where F also
    generates the unprojected B^{k+1} v.  A column with D w_c zero on the
    padding rows, k = (D w_c)[:n] nonzero and A k = 0 (one application) is
    the certificate; it needs no field-size bound.  Otherwise returns, and
    the attempt retries.

    B's factors besides diag(A, I) are invertible, so that test holds
    exactly when B w_c = 0 and w_c != 0: B w_c = 0 says diag(A, I) D w_c = 0,
    that is A k = 0 with zero padding rows.  A column with y^T B w_c != 0
    for some y therefore cannot certify.  The probe draws a random N x b
    block y from ``rng``, after the attempt's own draws, and spends
    b (deg F + 1) transposed applications on y^T B^{j+1} v;
    t = sum_j (y^T B^{j+1} v) F_j rules out every column with a nonzero in
    t e_c.  The rest are formed in column order, each by a Horner sweep of
    d_c applications of one vector, and checked as above.  So the first
    column that certifies, and its kernel vector, are those of forming all
    s columns by one Horner sweep of deg F applications of the N x s block,
    whatever y is.  A column that cannot certify passes the probe with
    probability at most p^-b, and b is the least with p^b above the
    applications the probe can save, sum_{c < s-1} d_c (all but the last
    column), so false passes waste less than one application on average;
    b = 1 whenever p exceeds that sum.  The probe runs only when it costs
    less than those columns."""
    n, p, s = A.n, A.field.p, v.shape[1]
    degrees = [np.flatnonzero(F[:, :, c].any(axis=1))[-1] for c in range(s)]
    saved = int(sum(degrees[:-1]))
    b = 1
    while p ** b <= saved:
        b += 1
    t = np.zeros((b, s), dtype=np.int64)
    if saved > b * len(F):
        y = rng.integers(0, p, size=(B.n, b), dtype=np.int64)
        probes = np.empty((b, len(F), s), dtype=np.int64)
        for j in range(len(F)):
            y = B.apply_transpose_matrix(y)
            probes[:, j] = matmul_mod(y.T, v, p)
        t = matmul_mod(probes.reshape(b, -1), F.reshape(-1, s), p)
    for c in np.flatnonzero(~t.any(axis=0)):
        d = degrees[c]
        G = matmul_mod(v, F[d::-1, :, c].T, p)  # column i is v F_{d-i} e_c
        w = G[:, :1]
        for i in range(1, d + 1):
            w = reduce_in_place(B.apply_matrix(w) + G[:, i:i + 1], p)
        w = D.apply_matrix(w)[:, 0]
        k = w[:n].copy()
        if not w[n:].any() and k.any() and not A.apply(k).any():
            raise SingularMatrix(k)
