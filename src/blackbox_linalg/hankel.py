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
row degree, ties by lowest row index).  Each order step eliminates on the
constant term alone and records its row operations in one constant
rows x rows transform T, which is then applied by one limb product to
the live window of the basis (coefficients up to its largest row degree,
at most k after k steps) and of the residual (coefficients k..; the lower
ones are zero) before the pivot rows are shifted by x.  The q-runs use
order 2m-2 and the v-runs order 2m.  Row selection takes the s rows of
smallest degree.

The Pade families and the determinant's block generator share one front end
(``_pade_basis``): the stacked series, the M-Basis run and the row
selection.  Both read only the first s columns of the 2s x 2s basis, so the
run tracks only those; row operations act on each column on its own, so
they come out bit-identical to the full basis's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import dense_inverse
from .errors import DimensionError, HankelSingular, Singular
from .field import (PANEL_ELEMENTS, left_limbs, limb_product, reduce_mod,
                    right_limbs)
from .operators import BlackBoxOperator
from .polymat import polymat_mul
from .projection import BlockProjection, u_contract


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
    as ``matmul_mod`` cuts its own."""
    rows, k = W.shape[0], len(pivots)
    width = max(1, PANEL_ELEMENTS // (2 * k + 4 * rows + 1))
    R = np.empty((2 * k, min(width, W.shape[1])))
    for lo in range(0, W.shape[1], width):
        panel = W[:, lo:lo + width]
        limbs = right_limbs(panel[pivots], R[:, :panel.shape[1]])
        panel[pivots] = 0
        limb_product(L, limbs, p, panel, accumulate=True)


def _mbasis(F: np.ndarray, sigma: int, shifts, p: int, snapshot_at: int | None = None,
            keep: int | None = None):
    """Iterative order basis on F (rows x cols x ncoeff int64 array).

    Returns (M, degrees, E, snapshot): M is the first ``keep`` columns
    (default all ``rows``) of the basis, as (rows x keep x sigma+1), E the
    updated residual series (basis)*F (useful one coefficient past the order
    for residues).  ``snapshot_at`` (below ``sigma``) captures copies of M,
    the degrees and E's coefficient ``snapshot_at`` (rows x cols, the one
    coefficient a caller reads there) after that many order steps, letting
    one run serve two orders.

    Order step k eliminates on the constant term delta = E_k alone and
    records its row operations in a rows x rows transform T, then applies T
    by one limb product each to M's coefficients 0..d and to E's
    coefficients k.. (the lower ones are zero once order k is reached).
    Row operations act on each column on its own, and E is updated from its
    own coefficients, so the kept columns come out the same whatever
    ``keep`` is: the Pade front end keeps only the s columns it reads.
    Row i of M has degree at most deg_i - min(shifts) (row operations only
    add rows that come earlier in pivot order, of no larger degree), and at
    most k, so d = min(k, max(deg) - min(shifts)).  M and E are held
    coefficient-major (row x coeff x col), so each window is a strided 2-D
    view updated in place; they are returned as (row x col x coeff) views.
    """
    rows, cols, ncoeff = F.shape
    keep = rows if keep is None else keep
    E = np.ascontiguousarray(F.transpose(0, 2, 1)) % p
    M = np.zeros((rows, sigma + 1, keep), dtype=np.int64)
    M[:keep, 0, :] = np.eye(keep, dtype=np.int64)
    deg = list(shifts)
    low = min(deg, default=0)
    snapshot = None
    for k in range(sigma):
        if k == snapshot_at:
            snapshot = (M.transpose(0, 2, 1).copy(), list(deg), E[:, k, :].copy())
        # [delta | T]: the constant term and the row operations done on it
        DT = np.zeros((rows, cols + rows), dtype=np.int64)
        DT[:, :cols] = E[:, k, :]
        DT[:, cols:] = np.eye(rows, dtype=np.int64)
        order = np.array(sorted(range(rows), key=lambda r: (deg[r], r)))
        pivots = []
        for pos, i in enumerate(order):
            nz = DT[i, :cols].nonzero()[0]
            if len(nz) == 0:
                continue
            pivots.append(i)
            c = nz[0]
            later = order[pos + 1:]
            later = later[DT[later, c] != 0]
            if len(later):
                f = DT[later, c] * pow(int(DT[i, c]), -1, p) % p
                DT[later] = (DT[later] - f[:, None] * DT[i]) % p
        if not pivots:
            continue
        L = left_limbs(DT[:, cols:][:, pivots], p)
        d = min(k, max(deg) - low)
        _transform_window(L, pivots, M[:, :d + 1, :].reshape(rows, -1), p)
        _transform_window(L, pivots, E[:, k:, :].reshape(rows, -1), p)
        M[pivots, 1:d + 2] = M[pivots, :d + 1]
        M[pivots, 0] = 0
        E[pivots, k + 1:] = E[pivots, k:-1]
        E[pivots, k] = 0
        for i in pivots:
            deg[i] += 1
    return M.transpose(0, 2, 1), deg, E.transpose(0, 2, 1), snapshot


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


def _pade_basis(alpha, s: int, p: int, ncoeff: int, sigma: int,
                snapshot_at: int | None = None):
    """The order-basis front end of the Pade families and the block
    generator: the M-Basis of the stacked series [A; -I] (``ncoeff``
    coefficients) to order ``sigma`` with shifts (0,...,0, 1,...,1),
    tracking the s basis columns both read.

    Returns (M, degrees, E) of the s basis rows of least degree (ties by
    lowest index): M as (s x s x sigma+1), E as (s x s x ncoeff).  With
    ``snapshot_at`` a second triple follows, the same rows picked at that
    order, with E's coefficient ``snapshot_at`` alone (s x s)."""
    F = _stacked_series(alpha, s, p, ncoeff)
    M, deg, E, snap = _mbasis(F, sigma, [0] * s + [1] * s, p, snapshot_at, keep=s)
    picked = []
    for basis, degs, resid in [(M, deg, E)] + ([snap] if snap else []):
        sel = sorted(range(2 * s), key=lambda i: (degs[i], i))[:s]
        picked.append((basis[sel], [degs[i] for i in sel], resid[sel]))
    return picked


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


def _pade_families(alpha, s: int, m: int, p: int):
    """The four families as (coefficient, s, s) arrays, star side first.

    Raises HankelSingular at the first degree profile or normalizer that
    degenerates, the signature of a singular H."""
    out = {}
    for side, al in (("star", alpha), ("plain", [a.T for a in alpha])):
        # one run serves both orders: the q-state is the v-run's prefix
        (Mv, degv, _), (Mq, degq, Eq) = _pade_basis(al, s, p, 2 * m, 2 * m,
                                                    snapshot_at=2 * m - 2)
        # q-family: order 2m-2, degree <= m-1, normalized by the residue
        # at x^{2m-2}; v-family: order 2m, degree <= m, by the constant term
        q = _family(Mq, degq, m - 1, Eq, p, "q")
        v = _family(Mv, degv, m, Mv[:, :, 0], p, "v")
        out[side] = (q, v)
    (q_star, v_star), (q_t, v_t) = out["star"], out["plain"]
    return q_t.transpose(0, 2, 1), q_star, v_t.transpose(0, 2, 1), v_star


def hankel_inverse_rep(H: BlockHankel, rng) -> HankelInverseRep:
    """The four coefficient families of the inversion formula, from one
    order-basis run per side.

    The families are determined by H, so there is nothing to retry here: a
    degenerate degree profile or normalizer, or a representation that fails
    the check on one random vector drawn from ``rng``, raises HankelSingular,
    the signature of a singular H."""
    s, m, p = H.s, H.m, H.p
    q, q_star, v, v_star = _pade_families(H.alpha, s, m, p)
    rep = HankelInverseRep(s=s, m=m, p=p, q=q, q_star=q_star, v=v, v_star=v_star)
    # Las Vegas check: rep applied to H r must give back r
    r = rng.integers(0, p, size=(H.n, 1), dtype=np.int64)
    if not np.array_equal(hankel_inverse_apply(rep, H.apply(r)), r):
        raise HankelSingular("inverse representation failed verification")
    return rep


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
