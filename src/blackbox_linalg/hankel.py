"""Block-Hankel matrices: the projected sweep that builds them, the order-basis
(M-Basis) algorithm, the off-diagonal inverse representation, and its
application to dense blocks.  Every block product (H V and the four of the
inversion formula) is one windowed ``polymat_mul`` on (coefficient, rows,
cols) arrays, which makes one exact limb GEMM and one reduction per output
coefficient and column panel; a block column of n rows is read as m
coefficients of s rows.

Conventions, fixed and verified against dense oracles:

  * H is m x m blocks with block (i, j) = alpha_{i+j}; the 2m-1 blocks
    alpha_0..alpha_{2m-2} define H.  The v-runs read one more block,
    alpha_{2m-1}, which H does not determine: it is taken as zero when
    absent.  For nonsingular H any choice works (a reduced order basis then
    has exactly s rows of degree m, with an invertible constant term), so a
    degenerate run means H is singular.  No block past alpha_{2m-1} is read.
  * q-family: A(x) Q(x) = P(x) + x^{2m-2} I  (mod x^{2m-1}),
    deg Q <= m-1, deg P <= m-2; starred version multiplies A from the left.
  * v-family: A(x) V(x) = U(x)  (mod x^{2m}), V(0) = I,
    deg V <= m, deg U <= m-1; starred version analogous.
  * H^{-1} = T1 T2 - T3 T4 with
      T1(i,j) = v_{m-1-i-j} (v_0 = I),  T2(i,j) = q*_{m-1-j+i} for j >= i,
      T3(i,j) = q_{m-2-i-j},            T4(i,j) = v*_{m-j+i} for j >= i.
    With M_rev(x) = sum_j M_{m-1-j} x^j, the block rows of T2 M are the
    coefficients m-1, ..., 0 of q*_rev(x) M_rev(x) (q*_rev = reversed q*),
    likewise T4 M with v*_1..v*_m reversed; T1 and T3 are then products
    with v_0..v_{m-1} and q_0..q_{m-2} read back in reverse.  H V is the
    window [m-1, 2m-1) of alpha(x) V_rev(x).

The families are computed by the quadratic M-Basis: an order basis of the
stacked series [A; -I] with initial row degrees (0,...,0, 1,...,1), raised
one order at a time by constant-term elimination (pivot = minimal current
row degree, ties by lowest row index).  Order step k forms the one
residual coefficient it eliminates on, E_k, by one limb product of the
live window of the basis (coefficients up to its largest row degree, at
most k after k steps) with the series, records its row operations in one
constant rows x rows transform T, and applies T by one limb product to
that window before the pivot rows are shifted by x.  The q-runs use
order 2m-2 and the v-runs order 2m.  Row selection takes the s rows of
smallest degree.

Each side of the families is one run (``_pade_side``): the stacked
series, the M-Basis run and the row selection.  It reads only the first s
columns of the 2s x 2s basis, so the run tracks only those; row operations
act on each column on its own, so they come out bit-identical to the full
basis's.

Block Wiedemann (Coppersmith, Math. Comp. 1994; Kaltofen, Math. Comp. 1995)
is one such run on the transposed blocks of alpha_k = u^T B^{k+1} v,
k < 2m, for B of order N = m s and a dense random N x s block v
(``_block_wiedemann``; its order-basis run, ``_generator``, is the
transposed side of ``hankel_inverse_rep`` too).  It serves the
determinant, the rank and the inverse:

  * its v-run's row degree sum, the degree of the minimal right generator
    F of the alpha_k, is the dimension of the projected Krylov space of
    B v: the rank estimate;
  * the row degrees d_i of all 2s rows of the v-run's basis give the rank
    of the (m+1) x m block-Hankel matrix [alpha_{i+j}], i <= m, j < m,
    exactly: m s - sum_i max(0, m - d_i) (``_hankel_rank``).  A y in its
    kernel maps one-to-one to an approximant (y, z) of order 2m with
    shifted degree at most m - 1, and the basis is shift-reduced, so by the
    predictable-degree property (Beckermann and Labahn) those
    approximants form a space of dimension sum_i max(0, m - d_i).  The
    matrix is K_u'^T B K_v (K_u' stacking u^T B^i, i <= m), so its rank
    bounds rank B from below, with no field-size bound;
  * ``_hankel_certificate``: if its q- and v-families solve H Q = E_m, the
    last s columns of I_N, and H V = -h = -[alpha_m; ...; alpha_{2m-1}]
    exactly for H = K_u^T B K_v, then H is nonsingular.  A y with y H = 0
    has y E_m = 0 (its last block vanishes) and y h = 0, so y shifted down
    one block is in the left kernel too; after m shifts y = 0.  So B is
    nonsingular, with no field-size bound (``hankel_inverse_rep`` proves
    its own H nonsingular so, before its star side runs).  Then K_u^T B is injective, and
    the v-family's relation sum_j alpha_{i-j} v_j = 0 (m <= i < 2m) lifts
    to sum_j B^{m-j} v v_j = 0: B K_v = K_v C for the block companion C of
    v, so det B = (-1)^N det v_m;
  * where F also generates the unprojected B^{k+1} v, each of its columns
    gives w_c = sum_j B^j v F_j e_c with B w_c = 0, a kernel vector of B
    unless it is zero, which one application checks: a failed run of a
    singular B reads its kernel vector off its own F
    (``inverse._kernel_certificate``).  A column with
    y^T B w_c = sum_j (y^T B^{j+1} v) F_j e_c != 0 cannot give one, so a
    random probe y (deg F + 1 transposed applications of one vector)
    spares the read forming such columns.  The rank reads a whole kernel
    basis sum_j B^j v F_j C off F, C a random s x k block, when the
    nullity k is at most s (both reads are ``projection.krylov_horner``).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .dense import dense_inverse
from .errors import DimensionError, HankelSingular, Singular
from .field import (PANEL_ELEMENTS, left_limbs, limb_product, reduce_mod,
                    right_limbs, thread_buffers)
from .operators import BlackBoxOperator
from .polymat import polymat_mul
from .projection import BlockProjection, krylov_apply_left, u_contract

_window_buffers = threading.local()  # right limbs of the M-Basis windows, per thread


@dataclass
class BlockHankel:
    """The blocks alpha_0..alpha_{2m-2} (optionally alpha_{2m-1}) of an
    n x n block-Hankel matrix, kept as given."""
    s: int
    m: int
    alpha: list
    p: int

    def __post_init__(self):
        if len(self.alpha) < 2 * self.m - 1:
            raise DimensionError(
                f"need at least {2 * self.m - 1} blocks, got {len(self.alpha)}")
        self.alpha = [reduce_mod(a, self.p) for a in self.alpha]
        for a in self.alpha:
            if a.shape != (self.s, self.s):
                raise DimensionError(f"block shape {a.shape} != ({self.s}, {self.s})")

    @property
    def n(self) -> int:
        return self.s * self.m

    def apply(self, V: np.ndarray) -> np.ndarray:
        """H @ V through the block structure (no materialization): the
        window [m-1, 2m-1) of alpha(x) V_rev(x), one limb GEMM per block
        row and column panel."""
        V = reduce_mod(V, self.p)
        if V.ndim == 1:
            return self.apply(V.reshape(-1, 1)).ravel()
        if V.shape[0] != self.n:
            raise DimensionError(f"expected {self.n} rows, got {V.shape[0]}")
        m, k = self.m, V.shape[1]
        HV = polymat_mul(np.stack(self.alpha), V.reshape(m, self.s, k)[::-1],
                         self.p, m - 1, 2 * m - 1)
        return HV.reshape(self.n, k)


def build_hankel(B: BlackBoxOperator, P: BlockProjection, keep_left: bool = False):
    """One transposed Krylov sweep ((2m-1) s vector applications plus O(n^2)
    contraction additions) giving the Hankel sequence alpha_k = u.T B^{k+1} u
    for k = 0..2m-2.

    Returns (H, K_l): with ``keep_left`` K_l is the n x n stacked left Krylov
    matrix [u.T; u.T B; ...; u.T B^{m-1}] the full inverse needs, otherwise
    None (A^{-1} M never holds it)."""
    p, s, m = B.field.p, P.s, P.m
    Kl = np.empty((P.n, P.n), dtype=np.int64) if keep_left else None
    alpha = []
    W = P.u_matrix()
    for k in range(2 * m - 1):
        if keep_left and k < m:
            Kl[k * s:(k + 1) * s] = W.T
        W = B.apply_transpose_matrix(W)
        alpha.append(u_contract(P, W, p).T)
    return BlockHankel(s=s, m=m, alpha=alpha, p=p), Kl


def _transform_window(L: np.ndarray, pivots, W: np.ndarray, p: int) -> None:
    """W <- T W mod p in place, one column panel at a time (W is a 2-D
    view; no copy of it is made).

    T differs from the identity only in its pivot columns Tp = T[:, pivots],
    so T W = Tp W[pivots] + (W with its pivot rows zeroed): one limb product
    with the pivot count as inner dimension, accumulated into the zeroed
    panel and reduced once.  ``L`` is ``left_limbs(Tp)``; the panels are cut
    as ``matmul_mod`` cuts its own, their limbs in per-thread scratch."""
    rows, k = W.shape[0], len(pivots)
    width = max(1, PANEL_ELEMENTS // (2 * k + 4 * rows + 1))
    (R,) = thread_buffers(_window_buffers, 2 * k * min(width, W.shape[1]), (np.float64,))
    for lo in range(0, W.shape[1], width):
        panel = W[:, lo:lo + width]
        limbs = right_limbs(panel[pivots], R[:2 * k * panel.shape[1]].reshape(2 * k, -1))
        panel[pivots] = 0
        limb_product(L, limbs, p, panel, accumulate=True)


def _mbasis(F: np.ndarray, sigma: int, shifts, p: int, snapshot_at: int | None = None,
            keep: int | None = None):
    """Iterative order basis on F (rows x cols x ncoeff int64 array).

    Returns (M, degrees, snapshot): M is the first ``keep`` columns
    (default all ``rows``) of the basis, as (rows x keep x sigma+1).
    ``snapshot_at`` (below ``sigma``) captures M, the degrees and the
    residual's coefficient ``snapshot_at`` (rows x cols, the one a caller
    reads there) after that many order steps: one run serves two orders.

    Step k reads only the residual's coefficient k, formed from the basis
    (Beckermann and Labahn, SIAM J. Matrix Anal. Appl. 1994) as
    E_k = sum_{j<=d} M_j F_{k-j}[:keep] + Q_k: one limb product of M's live
    window, in panels, with F's limbs made once.  The rows of F past
    ``keep`` must be constant (else ValueError): the basis has degree at
    most k after k steps, so in its untracked columns only coefficient k
    meets them.  Q_k is that coefficient times F[keep:, :, 0], carried as
    one more column block of the window and kept on the pivot rows, the
    only rows with a coefficient k+1 after the shift.  Row operations act
    on each column on its own, so the kept columns do not depend on
    ``keep``: the Pade front end keeps only the s columns it reads.

    The step eliminates on E_k in pivot order (least degree, ties by lowest
    row) on a contiguous copy of [E_k | T], T the row operations in that
    order, applies T to the window by one limb product and shifts the pivot
    rows by x.  Row i of M has degree at most deg_i - min(shifts) (row
    operations only add rows earlier in pivot order, of no larger degree)
    and at most k, so d = min(k, max(deg) - min(shifts)).  M is held
    coefficient-major (row x coeff x col), each window a strided 2-D view
    updated in place, and returned as a (row x col x coeff) view.
    """
    rows, cols, ncoeff = F.shape
    keep = rows if keep is None else keep
    if (F[keep:, :, 1:] % p).any():
        raise ValueError(f"rows of F past keep={keep} must be constant")
    # F[:keep]^T, coefficient-reversed (F_{ncoeff-1}, ..., F_0 side by side)
    LF = np.remainder(F[:keep, :, ::-1].transpose(1, 2, 0), p,
                      out=np.empty((cols, ncoeff, keep), dtype=np.int64))
    LF = left_limbs(LF.reshape(cols, -1), p)
    X = np.zeros((rows, cols + (sigma + 1) * keep), dtype=np.int64)
    Q = X[:, :cols]  # the window is [Q_k | M_0 | ... | M_d]
    Q[keep:] = F[keep:, :, 0] % p
    M = X[:, cols:].reshape(rows, sigma + 1, keep)
    M[:keep, 0, :] = np.eye(keep, dtype=np.int64)
    deg = list(shifts)
    low = min(deg, default=0)
    span = max(1, PANEL_ELEMENTS // (2 * keep * rows))
    snapshot = None
    for k in range(sigma):
        d = min(k, max(deg) - low)
        Et, u = Q.T.copy(), 2 * (ncoeff - 1 - k) * keep  # E_k^T; F_k's limbs from column u
        for j0 in range(0, d + 1, span):
            j1 = min(j0 + span, d + 1)
            size = 2 * (j1 - j0) * keep * rows
            (R,) = thread_buffers(_window_buffers, size, (np.float64,))
            limbs = right_limbs(M[:, j0:j1].transpose(1, 2, 0), R[:size].reshape(-1, rows))
            limb_product(LF[:, u + 2 * j0 * keep:u + 2 * j1 * keep], limbs, p, Et,
                         accumulate=True)
        if k == snapshot_at:
            snapshot = (M[:, :d + 1].copy(), list(deg), Et.T.copy())
        # row pos of T has entries only up to column pos, and row pos of
        # E_k none before its pivot: each update is one narrowed row slice
        order = np.argsort(deg, kind="stable")
        DT = np.concatenate([Et.T[order], np.eye(rows, dtype=np.int64)], axis=1)
        found = []
        for pos in range(rows):
            nz = DT[pos, :cols].nonzero()[0]
            if len(nz) == 0:
                continue
            found.append(pos)
            c = nz[0]
            f = DT[pos + 1:, c] * pow(int(DT[pos, c]), -1, p) % p
            below = DT[pos + 1:, c:cols + pos + 1]
            below -= f[:, None] * DT[pos, c:cols + pos + 1]
            below %= p
            if len(found) == cols:
                break  # the later rows of E_k are all zero now
        pivots = order[found]
        if found:
            Tp = DT[np.argsort(order)][:, cols + np.array(found)]  # T[:, pivots]
            _transform_window(left_limbs(Tp, p), pivots, X[:, :cols + (d + 1) * keep], p)
            M[pivots, 1:d + 2] = M[pivots, :d + 1]
            M[pivots, 0] = 0
        Q[np.delete(order, found)] = 0  # no coefficient k+1 off the pivot rows
        for i in pivots:
            deg[i] += 1
    del LF  # the snapshot kept its window alone: pad it now the limbs are freed
    if snapshot:
        pad = [(0, 0), (0, sigma + 1 - snapshot[0].shape[1]), (0, 0)]
        snapshot = (np.pad(snapshot[0], pad).transpose(0, 2, 1), *snapshot[1:])
    return M.transpose(0, 2, 1), deg, snapshot


@dataclass
class HankelInverseRep:
    """Coefficient families feeding the off-diagonal inversion formula, as
    (coefficient, s, s) arrays: q and q_star (m, s, s), v and v_star
    (m + 1, s, s) with v_0 = v*_0 = I.  For m = 1 this is
    q_0 = q*_0 = alpha_0^{-1}.  The n x n inverse is never stored.
    """
    s: int
    m: int
    p: int
    q: np.ndarray
    q_star: np.ndarray
    v: np.ndarray
    v_star: np.ndarray


def _stacked_series(alpha, s: int, p: int, ncoeff: int) -> np.ndarray:
    """[A; -I] as a (2s x s x ncoeff) coefficient array, A(x) the series of
    the s x s blocks ``alpha``; blocks of A past the given ones are zero."""
    F = np.zeros((2 * s, s, ncoeff), dtype=np.int64)
    for k in range(min(len(alpha), ncoeff)):
        F[:s, :, k] = alpha[k]
    F[s:, :, 0] = (p - 1) * np.eye(s, dtype=np.int64) % p
    return F


def _family(M, deg, top: int, normalizer, p: int, run: str):
    """Coefficients 0..top of the basis rows M times ``normalizer^{-1}``;
    HankelSingular when a row has degree above ``top`` or the normalizer is
    singular."""
    if max(deg) > top:
        raise HankelSingular(f"{run}-run degrees {deg} exceed {top}")
    try:
        N_inv = dense_inverse(normalizer, p)
    except Singular as exc:
        raise HankelSingular(f"{run}-run normalizer singular") from exc
    return polymat_mul(N_inv[None], M[:, :, :top + 1].transpose(2, 0, 1), p)


def _pade_side(alpha, s: int, m: int, p: int):
    """Both families of one side from one order-basis run: the M-Basis of
    the stacked series [A; -I] to order 2m with shifts (0,...,0, 1,...,1),
    whose state at order 2m-2 is the q-run's.  The -I rows are constant, as
    ``_mbasis`` needs to track only the s columns the families read: at
    step k, of the untracked columns only coefficient k (the basis has
    degree at most k) meets them.  Each run takes its s basis rows of least
    degree (ties by lowest index).

    Returns the row degrees of all 2s rows of the v-run's basis (in row
    order; its s selected rows have the s least, ascending), ``families()``,
    which gives (q, v) or raises HankelSingular, the signature of a
    singular H, and the v-run's selected rows (s x s x 2m+1)."""
    def pick(basis, degs, *resid):
        sel = sorted(range(2 * s), key=lambda i: (degs[i], i))[:s]
        return (basis[sel], [degs[i] for i in sel], *[r[sel] for r in resid])
    F = _stacked_series(alpha, s, p, 2 * m)
    M, deg, snapshot = _mbasis(F, 2 * m, [0] * s + [1] * s, p, 2 * m - 2, keep=s)
    (Mv, degv), (Mq, degq, Eq) = pick(M, deg), pick(*snapshot)

    def families():
        # q-family: order 2m-2, degree <= m-1, normalized by the residue
        # at x^{2m-2}; v-family: order 2m, degree <= m, by the constant term
        return (_family(Mq, degq, m - 1, Eq, p, "q"),
                _family(Mv, degv, m, Mv[:, :, 0], p, "v"))
    return deg, families, Mv


def _hankel_certificate(alpha, q_t, v_t, p: int) -> None:
    """HankelSingular unless q_t, v_t (families of alpha^T) solve both Hankel systems."""
    m, s = len(q_t), len(alpha[0])
    QV = np.concatenate([q_t[::-1], v_t[:0:-1]], axis=1).transpose(0, 2, 1)
    HQV = BlockHankel(s, m, alpha, p).apply(QV.reshape(m * s, 2 * s))
    want = np.concatenate([np.eye(m * s, s, s - m * s, dtype=np.int64),
                           (-np.concatenate(alpha[m:])) % p], axis=1)
    if not np.array_equal(HQV, want):
        raise HankelSingular("Pade families fail H Q = E_m, H V = -h")


def _generator(alpha, s: int, m: int, p: int):
    """``_pade_side`` on the transposed blocks of alpha: the row degrees of
    all 2s rows of its v-run, ``families()`` (q, v of alpha^T, or
    HankelSingular) and the minimal right generator F of the alpha_k, a
    (max degree + 1, s, s) array: column c has degree d_c, the c-th least
    row degree, and sum_j alpha_{i+j} F_j e_c = 0 for 0 <= i < 2m - d_c
    (absent blocks read as zero)."""
    row_degrees, families, rows = _pade_side([a.T for a in alpha], s, m, p)
    degrees = sorted(row_degrees)[:s]
    # column c of F_k is row c of the basis at position degrees[c] - k
    F = np.zeros((max(degrees) + 1, s, s), dtype=np.int64)
    for c, d in enumerate(degrees):
        F[:d + 1, :, c] = rows[c, :, d::-1].T
    return row_degrees, families, F


def _block_wiedemann(B: BlackBoxOperator, v: np.ndarray):
    """One block Wiedemann run: the sweep alpha_k = u^T B^{k+1} v, k < 2m
    (2N applications for B of order N = m s, v of N x s), and one
    order-basis run on its transposed blocks (``_generator``).

    Returns the row degrees of the minimal right generator F of the
    alpha_k, ``certified()``, which gives the families (q, v) of alpha^T
    once ``_hankel_certificate`` has proved B nonsingular (else raises
    HankelSingular), F, and the row degrees of all 2s rows of the v-run's
    basis (``_hankel_rank`` reads them)."""
    p, (N, s) = B.field.p, v.shape
    m = N // s
    alpha = krylov_apply_left(B, BlockProjection(N, s), v, terms=2 * m + 1)[s:]
    alpha = alpha.reshape(2 * m, s, s)
    row_degrees, families, F = _generator(alpha, s, m, p)

    def certified():
        q_t, v_t = families()
        _hankel_certificate(alpha, q_t, v_t, p)
        return q_t, v_t
    return sorted(row_degrees)[:s], certified, F, row_degrees


def _hankel_rank(row_degrees, m: int) -> int:
    """The rank of the (m+1) x m block-Hankel matrix [alpha_{i+j}],
    i <= m, j < m, read off a v-run to order 2m on alpha^T whose 2s basis
    rows have the (shifted) degrees ``row_degrees``: exactly
    m s - sum_i max(0, m - d_i).

    A column y = (y_0; ...; y_{m-1}) of its kernel is one approximant
    (Y, Z) of [A'; -I] to order 2m, A'(x) = sum_k alpha_k^T x^k, of shifted
    degree at most m - 1: Y(x) = sum_j y_{m-1-j}^T x^j, Z = Y A' mod
    x^{m-1}, the m + 1 block equations being the coefficients m-1..2m-1 of
    Y A'; and every such approximant comes from one y.  The basis is
    shift-reduced, so by the predictable-degree property (Beckermann and
    Labahn, SIAM J. Matrix Anal. Appl. 1994) those approximants are the
    sums of lambda_i times row i with deg lambda_i <= m - 1 - d_i, a space
    of dimension sum_i max(0, m - d_i)."""
    return m * (len(row_degrees) // 2) - sum(max(0, m - d) for d in row_degrees)


def hankel_inverse_rep(H: BlockHankel) -> HankelInverseRep:
    """The four coefficient families of the inversion formula, from one
    order-basis run per side, the transposed side (``_generator``) first.

    The families are determined by H, so there is nothing to retry here.
    The transposed side's families must pass ``_hankel_certificate``, which
    proves H nonsingular at any p, before the star side runs (alpha_{2m-1}
    is the given block, else zero, as its v-run read it).  A degenerate
    degree profile or normalizer, or a failed certificate, raises
    HankelSingular, the signature of a singular H, with the transposed
    side's generator F as its ``generator``."""
    s, m, p = H.s, H.m, H.p
    alpha = (H.alpha + [np.zeros((s, s), dtype=np.int64)])[:2 * m]
    _, families, F = _generator(alpha, s, m, p)
    try:
        q_t, v_t = families()
        del families  # frees the transposed side's basis before the star side runs
        _hankel_certificate(alpha, q_t, v_t, p)
        q_star, v_star = _pade_side(alpha, s, m, p)[1]()
    except HankelSingular as exc:
        exc.generator = F
        raise
    return HankelInverseRep(s=s, m=m, p=p, q=q_t.transpose(0, 2, 1), q_star=q_star,
                            v=v_t.transpose(0, 2, 1), v_star=v_star)


def hankel_inverse_apply(rep: HankelInverseRep, M: np.ndarray) -> np.ndarray:
    """H^{-1} @ M from the representation: four windowed s x s by s x k
    polynomial products on degree-O(m) operands (4m - 1 output
    coefficients, one limb GEMM each per column panel), no black-box
    applications."""
    s, m, p = rep.s, rep.m, rep.p
    M = reduce_mod(M, p)
    if M.ndim == 1:
        return hankel_inverse_apply(rep, M.reshape(-1, 1)).ravel()
    if M.shape[0] != s * m:
        raise DimensionError(f"expected {s * m} rows, got {M.shape[0]}")
    k = M.shape[1]
    M_rev = M.reshape(m, s, k)[::-1]
    X = polymat_mul(rep.q_star[::-1], M_rev, p, 0, m)[::-1]   # T2 M
    Y = polymat_mul(rep.v_star[:0:-1], M_rev, p, 0, m)[::-1]  # T4 M
    Z = polymat_mul(rep.v[:m], X, p, 0, m)[::-1]               # T1 T2 M
    # T3 T4 M has no block rows when m = 1 (q_0..q_{m-2} is empty)
    Z[:m - 1] -= polymat_mul(rep.q[:m - 1], Y, p, 0, m - 1)[::-1]
    return (Z % p).reshape(s * m, k)
