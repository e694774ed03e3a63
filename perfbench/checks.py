"""Answer checks that use neither the library's verification nor its
counters: products are formed from the generated triples, ranks and
determinants by plain Gaussian elimination over F_p."""
from __future__ import annotations

import numpy as np

CHUNK = 64   # columns per product step, to keep temporaries small


def sparse_times(inst, X: np.ndarray) -> np.ndarray:
    """(A @ X) mod p from the instance's triples, by scatter-add."""
    p = inst.op.field.p
    X = np.asarray(X, dtype=np.int64)
    out = np.zeros((inst.n, X.shape[1]), dtype=np.int64)
    for lo in range(0, X.shape[1], CHUNK):
        part = inst.vals[:, None] * X[inst.cols, lo:lo + CHUNK] % p
        acc = np.zeros((inst.n, part.shape[1]), dtype=np.int64)
        np.add.at(acc, inst.rows, part)
        out[:, lo:lo + CHUNK] = acc % p
    return out


def is_identity(M: np.ndarray) -> bool:
    return M.shape[0] == M.shape[1] and np.array_equal(M, np.eye(len(M), dtype=np.int64))


def _eliminate(A: np.ndarray, p: int):
    """Forward elimination in place; returns (rank, determinant if square)."""
    rows, cols = A.shape
    rank, det = 0, 1
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(A[rank:, c])
        if not len(nz):
            det = 0
            continue
        r = rank + int(nz[0])
        if r != rank:
            A[[rank, r]] = A[[r, rank]]
            det = -det
        piv = int(A[rank, c])
        det = det * piv % p
        below = rank + 1 + np.flatnonzero(A[rank + 1:, c])
        if len(below):
            f = A[below, c] * pow(piv, p - 2, p) % p
            A[below, c:] = (A[below, c:] - f[:, None] * A[rank, c:] % p) % p
        rank += 1
    return rank, det % p if rank == rows == cols else 0


def dense_matrix(inst) -> np.ndarray:
    M = np.zeros((inst.n, inst.n), dtype=np.int64)
    M[inst.rows, inst.cols] = inst.vals
    return M


def dense_rank_matrix(M: np.ndarray, p: int) -> int:
    return _eliminate(np.array(M, dtype=np.int64) % p, p)[0]


def dense_rank(inst, p: int) -> int:
    return _eliminate(dense_matrix(inst), p)[0]


def dense_det(inst, p: int) -> int:
    return _eliminate(dense_matrix(inst), p)[1]
