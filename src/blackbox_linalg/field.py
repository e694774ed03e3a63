"""Word-size prime field arithmetic and the exact dense multiply kernel.

Residues are stored in int64 numpy arrays (or plain ints).  The modulus is
capped at 2**31 so that any single product of two residues fits in an int64;
accumulated dot products go through a 16-bit split (see ``matmul_mod``) which
keeps every partial sum exact for inner dimensions up to 2**15.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotInvertible

# Build constant: residues must satisfy 0 <= x < p < 2**31 so that a single
# double-width product fits an int64.  Larger moduli would need 128-bit
# intermediates.
MAX_MODULUS = 1 << 31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases (deterministic far beyond 2**64)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers modulo a word-size prime p (3 <= p < 2**31)."""

    def __init__(self, p: int):
        if not (3 <= p < MAX_MODULUS):
            raise ValueError(f"modulus must satisfy 3 <= p < 2**31, got {p}")
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def inv_vec(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse of a nonzero int64 array (Fermat ladder)."""
        a = np.asarray(a, dtype=np.int64) % self.p
        if np.any(a == 0):
            raise NotInvertible("array contains zero")
        result = np.ones_like(a)
        base = a.copy()
        e = self.p - 2
        while e:
            if e & 1:
                result = result * base % self.p
            base = base * base % self.p
            e >>= 1
        return result


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p for int64 residue matrices.

    Splits A into 16-bit halves so every accumulated partial sum stays below
    2**63 for inner dimensions up to 2**15.
    """
    A = np.ascontiguousarray(A, dtype=np.int64)
    B = np.ascontiguousarray(B, dtype=np.int64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise DimensionError(f"cannot multiply {A.shape} by {B.shape}")
    k = A.shape[1]
    if k == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    if k >= 1 << 15:
        # fall back to chunked accumulation; not hit at desk scale
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        step = (1 << 15) - 1
        for lo in range(0, k, step):
            out = (out + matmul_mod(A[:, lo:lo + step], B[lo:lo + step], p)) % p
        return out
    hi = A >> 16
    lo = A & 0xFFFF
    return (((hi @ B) % p << 16) + (lo @ B)) % p


def reduce_mod(A, p: int) -> np.ndarray:
    """Canonical residues in [0, p) as an int64 array."""
    return np.asarray(A, dtype=np.int64) % p
