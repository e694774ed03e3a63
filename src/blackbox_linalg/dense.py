"""Exact dense matrix kernels over a prime field.

These solve the small subproblems inside the block algorithms (the Pade
residue normalizations, s x s generator determinants); the suite checks
results against them too.  Matrices are plain row-major int64 numpy arrays
with entries in [0, p).

Elimination pivots on the first nonzero entry (lowest row index); exact
arithmetic needs no magnitude-based pivoting.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, Singular
from .field import reduce_mod


def _inv_scalar(a: int, p: int) -> int:
    return pow(int(a), -1, p)


def dense_inverse(M: np.ndarray, p: int) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination; raises Singular with the index
    of the first dependent column."""
    M = reduce_mod(M, p)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected square matrix, got {M.shape}")
    n = M.shape[0]
    A = np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1)
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
