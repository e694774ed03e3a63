"""Word-size prime field arithmetic and the exact dense multiply kernel.

Residues are stored in int64 numpy arrays (or plain ints).  The modulus is
capped at 2**31 so that any single product of two residues fits in an int64.

``matmul_mod`` multiplies residue matrices exactly on float64 BLAS, in the
style of FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 2008).  Operands are
split into 16-bit limbs, x = x_h 2**16 + x_l with x_h < 2**15 and
x_l < 2**16.  With A' = A 2**16 mod p,

    A B = A (B_h 2**16 + B_l) = A' B_h + A B_l              (mod p)
        = (A'_h B_h + A_h B_l) 2**16 + (A'_l B_h + A_l B_l)
        = X 2**16 + Y,

and one float64 GEMM of the limb matrices [[A'_h, A_h], [A'_l, A_l]]
(2r x 2k) by [B_h; B_l] (2k x w) gives [X; Y].  A float64 holds every
integer below 2**53 exactly.  One term of X is below 2**32 and one term of
Y below 2**32.6, so with inner dimension k < 2**20 (``MAX_INNER``) every
partial sum of the GEMM is an integer below 2**52.6: no rounding happens,
in whatever order the BLAS adds.  Longer inner dimensions are cut into
chunks below the bound.  The result is then reduced in int64:
(X mod p) 2**16 + Y < 2**53, mod p.

B is processed in column panels of w columns, with w chosen so that the
panel's limbs and products hold at most ``PANEL_ELEMENTS`` elements; the
temporaries are bounded by that budget and by the limbs of A, never by the
size of the output.
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


# Inner dimensions at or above this are cut into chunks: below it every
# partial sum of the limb GEMM stays below 2**53 (see the module docstring).
MAX_INNER = 1 << 20
# Element budget of one column panel of B: its limbs (2k x w) plus the
# panel's products, as float64 and as int64 (2r x w each).
PANEL_ELEMENTS = 1 << 16


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p for int64 residue matrices.

    One float64 GEMM on 16-bit limbs per column panel of B (see the module
    docstring), exact for inner dimension below ``MAX_INNER`` (longer ones
    are chunked), with at most ``PANEL_ELEMENTS`` limb and product elements
    per panel.  Entries must lie in (-2**31, 2**31); the result is in
    [0, p).
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise DimensionError(f"cannot multiply {A.shape} by {B.shape}")
    r, k = A.shape
    if k >= MAX_INNER:
        out = np.zeros((r, B.shape[1]), dtype=np.int64)
        step = MAX_INNER - 1
        for lo in range(0, k, step):
            out += matmul_mod(A[:, lo:lo + step], B[lo:lo + step], p)
            out %= p
        return out
    c = B.shape[1]
    # rows [A' >> 16, A >> 16] give X, rows [A' & 0xFFFF, A & 0xFFFF] give Y
    scaled = A << 16
    scaled -= scaled // p * p
    L = np.empty((2 * r, 2 * k))
    L[:r, :k] = scaled >> 16
    L[:r, k:] = A >> 16
    L[r:, :k] = scaled & 0xFFFF
    L[r:, k:] = A & 0xFFFF
    out = np.empty((r, c), dtype=np.int64)
    width = max(1, PANEL_ELEMENTS // (2 * k + 4 * r + 1))
    R = np.empty((2 * k, min(width, c)))
    for lo in range(0, c, width):
        panel = B[:, lo:lo + width]
        limbs = R[:, :panel.shape[1]]
        np.right_shift(panel, 16, out=limbs[:k], casting="unsafe")
        np.bitwise_and(panel, 0xFFFF, out=limbs[k:], casting="unsafe")
        XY = (L @ limbs).astype(np.int64)
        X, Y = XY[:r], XY[r:]
        X -= X // p * p
        X <<= 16
        X += Y
        # Y is spent: it takes the quotient (floor division by a scalar is
        # several times faster than numpy's remainder)
        np.floor_divide(X, p, out=Y)
        Y *= p
        np.subtract(X, Y, out=out[:, lo:lo + width])
    return out


def reduce_mod(A, p: int) -> np.ndarray:
    """Canonical residues in [0, p) as a new int64 array.

    Computed as ``A - A // p * p`` by floor division, which numpy does
    several times faster than its remainder.  It equals ``A % p`` for every
    int64, negatives included: the floor quotient makes the true result lie
    in [0, p), and the int64 product and difference wrap modulo 2**64, so
    the result is exact even where ``A // p * p`` itself wraps."""
    A = np.asarray(A, dtype=np.int64)
    R = np.floor_divide(A, p, out=np.empty_like(A))
    R *= p
    return np.subtract(A, R, out=R)


def reduce_in_place(X: np.ndarray, p: int) -> np.ndarray:
    """Reduce a 2-D int64 array to [0, p) in place and return it.

    Floor division as in ``reduce_mod``, one row panel of at most
    ``PANEL_ELEMENTS`` elements at a time: the panel's quotients are the
    only temporary, whatever the size of X."""
    rows = max(1, PANEL_ELEMENTS // max(1, X.shape[1]))
    q = np.empty((min(rows, X.shape[0]), X.shape[1]), dtype=np.int64)
    for lo in range(0, X.shape[0], rows):
        panel = X[lo:lo + rows]
        t = q[:panel.shape[0]]
        np.floor_divide(panel, p, out=t)
        t *= p
        panel -= t
    return X
