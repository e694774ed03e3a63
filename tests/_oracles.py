"""Independent reference implementations the suite checks against.

These deliberately avoid the library's code paths: extended Euclid instead
of Fermat, naive convolution loops instead of the polynomial kernels,
fraction-free (Bareiss) elimination over big integers for determinants,
plain repeated application instead of the Horner Krylov products, one
row operation at a time on the whole series (``mbasis_reference``) instead
of one transform per order step, gather/scatter butterfly stages
(``butterfly_reference``) instead of the row plan.  Two exceptions:
``sigma_basis``, a test-facing wrapper that exposes the library's internal
order-basis routine for property checks, and ``dense_solve``, which
multiplies by the library's dense inverse.  ``annihilates`` checks a
matrix generator on its sample by plain big-int sums.  The dense rank, solve and nullspace routines, the identity
operator, the materializations of operators (``materialize``, and entry by
entry for sparse and block-Hankel ones) and the stage view of a butterfly's
row plan serve only the suite, so they live here and not in the library.
"""
from types import SimpleNamespace

import numpy as np

from blackbox_linalg import BlackBoxOperator, dense_inverse, matmul_mod
from blackbox_linalg.hankel import _mbasis


def ext_euclid_inverse(a: int, p: int) -> int:
    """Extended Euclid inverse of a mod p."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1, "not invertible"
    return old_s % p


def naive_polymat_convolution(F, G, p: int):
    """Coefficient lists of matrix blocks; plain triple loop convolution."""
    out = [np.zeros((F[0].shape[0], G[0].shape[1]), dtype=object)
           for _ in range(len(F) + len(G) - 1)]
    for i, fi in enumerate(F):
        for j, gj in enumerate(G):
            out[i + j] = out[i + j] + fi.astype(object) @ gj.astype(object)
    return [np.asarray(c % p, dtype=np.int64) for c in out]


def bareiss_det(M) -> int:
    """Fraction-free integer determinant (exact, big ints)."""
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k]:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def dense_mul_int(A, B, p: int):
    """Exact product mod p through Python big ints (overflow-proof oracle)."""
    A = np.asarray(A, dtype=object)
    B = np.asarray(B, dtype=object)
    return np.asarray((A @ B) % p, dtype=np.int64)


def dense_rank(M, p: int) -> int:
    """Rank over F_p by forward elimination."""
    A = np.asarray(M, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, col])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = ext_euclid_inverse(int(A[r, col]), p)
        below = np.nonzero(A[r + 1:, col])[0] + r + 1
        if len(below):
            f = A[below, col] * inv % p
            A[below] = (A[below] - f[:, None] * A[r]) % p
        r += 1
    return r


def dense_solve(M, B, p: int):
    """Solve M X = B exactly for nonsingular M."""
    B = np.asarray(B, dtype=np.int64) % p
    if B.ndim == 1:
        return dense_solve(M, B.reshape(-1, 1), p).ravel()
    return matmul_mod(dense_inverse(M, p), B, p)


def dense_nullspace(M, p: int):
    """Columns spanning the kernel of M over F_p (n x (n - rank))."""
    A = np.asarray(M, dtype=np.int64) % p
    rows, cols = A.shape
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, col])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * ext_euclid_inverse(int(A[r, col]), p) % p
        others = np.nonzero(A[:, col])[0]
        others = others[others != r]
        if len(others):
            A[others] = (A[others] - A[others, col, None] * A[r]) % p
        pivots.append(col)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    N = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        N[fc, j] = 1
        for i, pc in enumerate(pivots):
            N[pc, j] = (-A[i, fc]) % p
    return N


class IdentityOperator(BlackBoxOperator):
    """The n x n identity as a black box."""

    def _apply_block(self, V, transposed):
        return V.copy()


def materialize(op):
    """The n x n matrix of any operator, by applying it to the identity
    (counts n applications)."""
    return op.apply_matrix(np.eye(op.n, dtype=np.int64))


def sparse_to_dense(S):
    """Entry-level materialization of a SparseOperator (no counter)."""
    M = np.zeros((S.n, S.n), dtype=np.int64)
    M[S.rows, S.cols] = S.vals
    return M


def hankel_to_dense(H):
    """The n x n matrix of a BlockHankel, block (i, j) = alpha_{i+j}."""
    m = H.m
    return np.block([[H.alpha[i + j] for j in range(m)] for i in range(m)])


def write_matrix_market_coordinate(rows: int, cols: int, triples, f):
    """Sorted 1-based coordinate Matrix Market text of integer triples."""
    f.write("%%MatrixMarket matrix coordinate integer general\n")
    triples = sorted(triples)
    f.write(f"{rows} {cols} {len(triples)}\n")
    for i, j, v in triples:
        f.write(f"{i + 1} {j + 1} {int(v)}\n")


def krylov_sequence(B, P, count, side="right"):
    """First ``count`` block-Krylov iterates B^i u (right) or u.T B^i (left)
    of the stacked-identity projection, by plain repeated application
    ((count-1) s applications); ``assemble()`` stacks them into the n x ks
    (right) or ks x n (left) Krylov matrix."""
    W = P.u_matrix()
    blocks = []
    for i in range(count):
        blocks.append(W.T.copy() if side == "left" else W)
        if i + 1 < count:
            W = B.apply_transpose_matrix(W) if side == "left" else B.apply_matrix(W)
    axis = 1 if side == "right" else 0
    return SimpleNamespace(blocks=blocks,
                           assemble=lambda: np.concatenate(blocks, axis=axis))


def sigma_basis(F, sigma, p, shifts=None):
    """Order basis of the (ncoeff x rows x cols) series F to order ``sigma``
    through the library's M-Basis: every row r of ``basis`` (an
    (sigma+1 x rows x rows) coefficient array) has r F = 0 mod x^sigma, and
    ``row_degrees`` starts from ``shifts`` (default all zero)."""
    ncoeff, rows, cols = F.shape
    Farr = np.zeros((rows, cols, max(ncoeff, sigma + 1)), dtype=np.int64)
    Farr[:, :, :ncoeff] = np.moveaxis(F, 0, 2)
    M, deg, _ = _mbasis(Farr, sigma, shifts or [0] * rows, p)
    return SimpleNamespace(basis=np.moveaxis(M, 2, 0), row_degrees=deg)


def annihilates(alpha, F, degrees, p: int) -> bool:
    """True iff the right matrix generator F, a (coefficient, s, s) array
    whose column c has degree degrees[c], annihilates the sampled sequence
    column by column: sum_k alpha_{i+k} F_k e_c = 0 mod p for every window
    0 <= i < len(alpha) - degrees[c]."""
    for c, d in enumerate(degrees):
        for i in range(len(alpha) - d):
            acc = sum(np.asarray(alpha[i + k], dtype=object)
                      @ np.asarray(F[k, :, c], dtype=object) for k in range(d + 1))
            if any(x % p for x in acc):
                return False
    return True


def mbasis_reference(F, sigma, shifts, p, snapshot_at=None):
    """M-Basis by one rank-1 update of the whole (rows x rows x sigma+1)
    basis and (rows x cols x ncoeff) residual per pivot: the same pivot rule
    as ``hankel._mbasis`` (minimal row degree, ties by lowest index,
    elimination on the constant term) and the same return values."""
    rows, cols, ncoeff = F.shape
    E = F.copy() % p
    M = np.zeros((rows, rows, sigma + 1), dtype=np.int64)
    M[:, :, 0] = np.eye(rows, dtype=np.int64)
    deg = list(shifts)
    snapshot = None
    for k in range(sigma):
        if k == snapshot_at:
            snapshot = (M.copy(), list(deg), E.copy())
        delta = E[:, :, k] % p
        order = np.array(sorted(range(rows), key=lambda r: (deg[r], r)))
        pivots = []
        for pos, i in enumerate(order):
            nz = np.nonzero(delta[i])[0]
            if len(nz) == 0:
                continue
            pivots.append(i)
            c = int(nz[0])
            later = order[pos + 1:]
            later = later[delta[later, c] % p != 0]
            if len(later):
                f = delta[later, c] * pow(int(delta[i, c]), p - 2, p) % p
                delta[later] = (delta[later] - f[:, None] * delta[i]) % p
                M[later] = (M[later] - f[:, None, None] * M[i]) % p
                E[later] = (E[later] - f[:, None, None] * E[i]) % p
        for i in pivots:
            M[i, :, 1:] = M[i, :, :-1]
            M[i, :, 0] = 0
            E[i, :, 1:] = E[i, :, :-1]
            E[i, :, 0] = 0
            deg[i] += 1
    return M, deg, E, snapshot


def butterfly_stages(op):
    """Per stage of a ButterflyOperator in application order,
    ``(lo, hi, a, b, c, d)``: the paired rows (ascending) and the
    coefficients, read from its forward row plan."""
    out = []
    for partner, own, other in op._plans[False]:
        lo = np.flatnonzero(partner > np.arange(op.n))
        hi = partner[lo]
        out.append((lo, hi, own[lo, 0], other[lo, 0], other[hi, 0], own[hi, 0]))
    return out


def butterfly_reference(op, V, transposed):
    """A butterfly network applied stage by stage from ``butterfly_stages``:
    both halves gathered by fancy indexing, mixed, reduced with ``%`` and
    scattered back.  The transposed direction runs the stages in reverse
    with b and c swapped."""
    p = op.field.p
    V = np.array(V, dtype=np.int64)
    stages = butterfly_stages(op)
    if transposed:
        stages = [(lo, hi, a, c, b, d) for lo, hi, a, b, c, d in reversed(stages)]
    for idx_lo, idx_hi, a, b, c, d in stages:
        lo = V[idx_lo]
        hi = V[idx_hi]
        V[idx_lo] = (a[:, None] * lo + b[:, None] * hi) % p
        V[idx_hi] = (c[:, None] * lo + d[:, None] * hi) % p
    return V
