"""The structured block projection (m stacked s x s identities) and the fast
structure-exploiting products of block-Krylov matrices with dense blocks.

Products with u never multiply by it: contracting with u.T is a fold of m row
slices (additions only), expanding by u is a vertical tile, and
Krylov-matrix products run through Horner-style operator applies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .field import reduce_in_place, reduce_mod
from .operators import BlackBoxOperator


@dataclass(frozen=True)
class BlockProjection:
    """Blocking geometry n = m * s for the stacked-identity projection."""
    n: int
    s: int

    def __post_init__(self):
        if self.s < 1 or self.n % self.s:
            raise DimensionError(f"blocking factor {self.s} must divide n = {self.n}")

    @property
    def m(self) -> int:
        return self.n // self.s

    def u_matrix(self) -> np.ndarray:
        """Materialized u: m stacked copies of I_s (the start block of a sweep)."""
        return np.tile(np.eye(self.s, dtype=np.int64), (self.m, 1))


def u_contract(P: BlockProjection, W: np.ndarray, p: int) -> np.ndarray:
    """u.T @ W: fold the m s-row slices of W (additions only, O(nk)),
    reduced by floor division into [0, p)."""
    W = reduce_mod(W, p)
    if W.shape[0] != P.n:
        raise DimensionError(f"expected {P.n} rows, got {W.shape[0]}")
    return reduce_in_place(W.reshape(P.m, P.s, -1).sum(axis=0), p)


def u_expand(P: BlockProjection, M: np.ndarray, p: int) -> np.ndarray:
    """u @ M: m vertically stacked copies of M."""
    M = reduce_mod(M, p)
    if M.shape[0] != P.s:
        raise DimensionError(f"expected {P.s} rows, got {M.shape[0]}")
    return np.tile(M, (P.m, 1))


def krylov_apply_right(B: BlackBoxOperator, P: BlockProjection,
                       M: np.ndarray) -> np.ndarray:
    """[u, Bu, ..., B^{m-1}u] @ M by the Horner scheme
    u M_0 + B(u M_1 + B(... + B(u M_{m-1})...)): (m-1)*k applications.

    Each step adds u M_i in place, as M_i broadcast over the m row slices
    of the fresh product, and reduces it in place."""
    p = B.field.p
    M = reduce_mod(M, p)
    if M.shape[0] != P.n:
        raise DimensionError(f"expected {P.n} rows, got {M.shape[0]}")
    s, m = P.s, P.m
    R = u_expand(P, M[(m - 1) * s:], p)
    for i in range(m - 2, -1, -1):
        R = np.ascontiguousarray(B.apply_matrix(R))
        slices = R.reshape(m, s, -1)  # a view: R is contiguous
        slices += M[i * s:(i + 1) * s]
        reduce_in_place(R, p)
    return R


def krylov_apply_left(B: BlackBoxOperator, P: BlockProjection,
                      M: np.ndarray) -> np.ndarray:
    """Stacked [u.T; u.T B; ...; u.T B^{m-1}] @ M, processing M in blocks of
    s columns: per block, m-1 applications of B followed by u-contractions."""
    p = B.field.p
    M = reduce_mod(M, p)
    if M.shape[0] != P.n:
        raise DimensionError(f"expected {P.n} rows, got {M.shape[0]}")
    s, m = P.s, P.m
    k = M.shape[1]
    out = np.zeros((P.n, k), dtype=np.int64)
    for lo in range(0, k, s):
        W = M[:, lo:lo + s]
        out[:s, lo:lo + s] = u_contract(P, W, p)
        for i in range(1, m):
            W = B.apply_matrix(W)
            out[i * s:(i + 1) * s, lo:lo + s] = u_contract(P, W, p)
    return out
