"""Exact dense matrix kernels over a prime field.

These serve double duty: small subproblems inside the block algorithms
(the Pade residue normalizations, s x s generator determinants) and the
independent oracles the test suite checks everything against.  Matrices
are plain row-major int64 numpy arrays with entries in [0, p).

Elimination pivots on the first nonzero entry (lowest row index); exact
arithmetic needs no magnitude-based pivoting.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, Singular
from .field import matmul_mod, reduce_mod


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def _inv_scalar(a: int, p: int) -> int:
    return pow(int(a), p - 2, p)


def dense_inverse(M: np.ndarray, p: int) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination; raises Singular with the index
    of the first dependent column."""
    M = reduce_mod(M, p)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected square matrix, got {M.shape}")
    n = M.shape[0]
    A = np.concatenate([M, identity(n)], axis=1)
    for col in range(n):
        sub = A[col:, col]
        nz = np.nonzero(sub)[0]
        if len(nz) == 0:
            raise Singular(col)
        piv = col + int(nz[0])
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
        A[col] = A[col] * _inv_scalar(A[col, col], p) % p
        rows = np.nonzero(A[:, col])[0]
        rows = rows[rows != col]
        if len(rows):
            A[rows] = (A[rows] - A[rows, col, None] * A[col]) % p
    return A[:, n:]


def dense_rank(M: np.ndarray, p: int) -> int:
    """Rank over F_p by forward elimination."""
    A = reduce_mod(M, p).copy()
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
        inv = _inv_scalar(A[r, col], p)
        below = np.nonzero(A[r + 1:, col])[0] + r + 1
        if len(below):
            f = A[below, col] * inv % p
            A[below] = (A[below] - f[:, None] * A[r]) % p
        r += 1
    return r


def dense_det(M: np.ndarray, p: int) -> int:
    """Determinant over F_p (0 for singular input)."""
    A = reduce_mod(M, p).copy()
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected square matrix, got {A.shape}")
    n = A.shape[0]
    det = 1
    for col in range(n):
        nz = np.nonzero(A[col:, col])[0]
        if len(nz) == 0:
            return 0
        piv = col + int(nz[0])
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            det = p - det
        det = det * int(A[col, col]) % p
        inv = _inv_scalar(A[col, col], p)
        below = np.nonzero(A[col + 1:, col])[0] + col + 1
        if len(below):
            f = A[below, col] * inv % p
            A[below] = (A[below] - f[:, None] * A[col]) % p
    return det % p


def dense_solve(M: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Solve M X = B exactly for nonsingular M."""
    B = reduce_mod(B, p)
    if B.ndim == 1:
        return matmul_mod(dense_inverse(M, p), B.reshape(-1, 1), p).ravel()
    return matmul_mod(dense_inverse(M, p), B, p)


def dense_nullspace(M: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning the kernel of M over F_p (n x (n - rank))."""
    A = reduce_mod(M, p).copy()
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
        A[r] = A[r] * _inv_scalar(A[r, col], p) % p
        others = np.nonzero(A[:, col])[0]
        others = others[others != r]
        if len(others):
            A[others] = (A[others] - A[others, col, None] * A[r]) % p
        pivots.append(col)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    N = zeros(cols, len(free))
    for j, fc in enumerate(free):
        N[fc, j] = 1
        for i, pc in enumerate(pivots):
            N[pc, j] = (-A[i, fc]) % p
    return N
