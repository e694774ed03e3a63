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

and one float64 GEMM of the limbs of A (2r x 2k) by the limbs of B
(2k x w) gives [X; Y].  The limbs of each inner index j sit next to each
other: columns 2j, 2j+1 of the left limbs hold (A'_h, A_h) in the top r rows
and (A'_l, A_l) in the bottom r rows, and rows 2j, 2j+1 of the right limbs
hold (B_h, B_l).  Any run of inner indices is then one column slice of the
left limbs and one row slice of the right limbs, so a sum of products
sum_i A_i B_i over a run (``polymat_mul``'s output coefficients) is one GEMM
and one reduction; ``matmul_mod`` is the case of a single run.

A float64 holds every integer below 2**53 exactly.  One term of X is below
2**32 and one term of Y below 2**32.6, so with a run of fewer than 2**20
inner indices (``MAX_INNER``) every partial sum of the GEMM is an integer
below 2**52.6: no rounding happens, in whatever order the BLAS adds.
Longer runs are cut into chunks below the bound.  One epilogue
(``limb_product``) then reduces in int64: (X mod p) 2**16 + Y < 2**53,
mod p.

``matmul_mod`` takes the rows of A in blocks and B in column panels of w
columns, with w chosen so that the panel's limbs and one block's products
hold at most ``PANEL_ELEMENTS`` elements; the temporaries are bounded by
that budget and by the limbs of one row block of A, never by the size of
the output.  The GEMM products of ``limb_product`` go into per-thread
scratch that outlives the call (``thread_buffers``), so a loop of products
allocates no panel.
"""
from __future__ import annotations

import math
import numbers
import threading

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
        return pow(a, -1, self.p)

    def inv_vec(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse of a nonzero int64 array (Fermat ladder)."""
        a = reduce_mod(a, self.p)
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
# Element budget of one column panel: its right limbs (2k x w) plus the
# products of a row block (2r x w), as float64 and as int64.
PANEL_ELEMENTS = 1 << 16


def left_limbs(A: np.ndarray, p: int) -> np.ndarray:
    """The (2r x 2k) float64 left limbs of an r x k residue matrix A.

    Columns 2j and 2j+1 hold inner index j: (A'_h, A_h) in the top r rows,
    (A'_l, A_l) in the bottom r rows, with A' = A 2**16 mod p."""
    r, k = A.shape
    scaled = A << 16
    scaled -= scaled // p * p
    L = np.empty((2, r, k, 2))
    np.right_shift(scaled, 16, out=L[0, :, :, 0], casting="unsafe")
    np.right_shift(A, 16, out=L[0, :, :, 1], casting="unsafe")
    np.bitwise_and(scaled, 0xFFFF, out=L[1, :, :, 0], casting="unsafe")
    np.bitwise_and(A, 0xFFFF, out=L[1, :, :, 1], casting="unsafe")
    return L.reshape(2 * r, 2 * k)


def right_limbs(B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the right limbs of B into ``out`` and return it.

    B is (..., w) and its leading axes, flattened, are the inner index j:
    rows 2j and 2j+1 of the (2k x w) float64 ``out`` get (B_h, B_l) of
    index j.  B may be any strided view; nothing of it is copied."""
    R = out.reshape(B.shape[:-1] + (2, B.shape[-1]))
    np.right_shift(B, 16, out=R[..., 0, :], casting="unsafe")
    np.bitwise_and(B, 0xFFFF, out=R[..., 1, :], casting="unsafe")
    return out


def thread_buffers(local: threading.local, size: int, dtypes) -> tuple:
    """Scratch for one hot loop: a 1-D array of at least ``size`` elements
    per dtype, private to the calling thread.

    While ``size`` fits ``PANEL_ELEMENTS`` the arrays are held in ``local``,
    grown on demand and handed out again on the thread's later calls; larger
    ones are fresh each time, so that held scratch stays bounded.  Fresh
    panel-sized blocks on every call can cost fresh zero-filled pages every
    time: glibc serves blocks above its dynamic mmap threshold with new
    mappings.  The caller overwrites what it reads."""
    if size > PANEL_ELEMENTS:
        return tuple(np.empty(size, dtype=d) for d in dtypes)
    bufs = getattr(local, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = local.bufs = tuple(np.empty(size, dtype=d) for d in dtypes)
    return bufs


# the GEMM products of ``limb_product``, as float64 and as int64
_gemm_buffers = threading.local()


def limb_product(L: np.ndarray, R: np.ndarray, p: int, out: np.ndarray,
                 accumulate: bool = False) -> np.ndarray:
    """out <- the r x w residues of the product whose left limbs are L
    (2r x 2k) and right limbs R (2k x w), and return ``out``.  With
    ``accumulate``, out <- out + the product: ``out`` must then hold
    residues, and the sum is reduced once.

    One GEMM gives [X; Y] and one epilogue reduces (X mod p) 2**16 + Y
    (plus out, which Y takes first: the sum stays below 2**63).  A run of
    k >= ``MAX_INNER`` inner indices is cut into chunks below the bound,
    each accumulated in turn."""
    if L.shape[1] >= 2 * MAX_INNER:
        step = 2 * (MAX_INNER - 1)
        limb_product(L[:, :step], R[:step], p, out, accumulate)
        return limb_product(L[:, step:], R[step:], p, out, True)
    r, w = out.shape
    size = 2 * r * w
    XYf, XY = thread_buffers(_gemm_buffers, size, (np.float64, np.int64))
    XY = XY[:size].reshape(2 * r, w)
    np.copyto(XY, np.matmul(L, R, out=XYf[:size].reshape(2 * r, w)), casting="unsafe")
    X, Y = XY[:r], XY[r:]
    if accumulate:
        Y += out
    # ``out`` takes X's quotients until it takes the result
    np.floor_divide(X, p, out=out)
    out *= p
    X -= out
    X <<= 16
    X += Y
    # Y is spent: it takes the quotient (floor division by a scalar is
    # several times faster than numpy's remainder)
    np.floor_divide(X, p, out=Y)
    Y *= p
    return np.subtract(X, Y, out=out)


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p for int64 residue matrices.

    A is taken in blocks of at most ``isqrt(PANEL_ELEMENTS) // 2`` rows and
    B in column panels; each block-panel pair is one ``limb_product`` (see
    the module docstring).  The panel width is chosen so that the panel's
    limbs and one block's products hold at most ``PANEL_ELEMENTS``
    elements; blocking the rows keeps the panels wide when A is tall.
    Entries must lie in (-2**31, 2**31); the result is in [0, p).
    """
    A = as_int64(A, p)
    B = as_int64(B, p)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise DimensionError(f"cannot multiply {A.shape} by {B.shape}")
    (r, k), c = A.shape, B.shape[1]
    rows = max(1, min(r, math.isqrt(PANEL_ELEMENTS) // 2))
    width = max(1, PANEL_ELEMENTS // (2 * k + 4 * rows + 1))
    out = np.empty((r, c), dtype=np.int64)
    R = np.empty((2 * k, min(width, c)))
    for top in range(0, r, rows):
        L = left_limbs(A[top:top + rows], p)
        for lo in range(0, c, width):
            panel = B[:, lo:lo + width]
            limbs = right_limbs(panel, R[:, :panel.shape[1]])
            limb_product(L, limbs, p, out[top:top + rows, lo:lo + width])
    return out


def as_int64(A, p: int) -> np.ndarray:
    """A as an int64 array congruent to it mod p, converted exactly.

    An int64 array is returned as it is: the only cost is a dtype test, so
    the hot loops pay nothing.  Other integer arrays are widened (uint64 is
    reduced first, so that nothing wraps).  Integral floats and Python
    integers of any size are reduced mod p exactly: a float array by
    ``np.fmod``, which is exact in floating point, and anything that numpy
    would hold as objects, or as floats it rounded from Python integers,
    one entry at a time.  A non-integral or non-finite entry, or one that
    is not a number at all, raises ValueError: nothing is truncated."""
    if isinstance(A, np.ndarray) and A.dtype == np.int64:
        return A
    arr = np.asarray(A)
    kind = arr.dtype.kind
    if kind == "u" and arr.dtype.itemsize == 8:
        return (arr % np.uint64(p)).astype(np.int64)
    if kind in "biu":
        return arr.astype(np.int64)
    if kind == "f" and arr is A and arr.dtype.itemsize <= 8:
        x = arr.astype(np.float64, copy=False)
        if not np.isfinite(x).all() or (x != np.trunc(x)).any():
            raise ValueError("entries must be integers; got a non-integral "
                             "or non-finite value")
        return np.fmod(x, p).astype(np.int64)
    if kind in "fO":
        obj = np.array(A, dtype=object)
        return np.array([_exact_int(x) % p for x in obj.flat],
                        dtype=np.int64).reshape(obj.shape)
    raise ValueError(f"entries must be integers, got dtype {arr.dtype}")


def _exact_int(x) -> int:
    """The Python integer equal to x; ValueError unless x is a finite
    integral number."""
    if isinstance(x, numbers.Integral):
        return int(x)
    try:
        v = math.floor(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v != x:
        raise ValueError(f"entry {x!r} is not an integer")
    return v


def reduce_mod(A, p: int) -> np.ndarray:
    """Canonical residues in [0, p) as a new int64 array.

    Any input goes through ``as_int64`` first, so non-integral entries
    raise instead of being truncated.  The residues are computed as
    ``A - A // p * p`` by floor division, which numpy does several times
    faster than its remainder.  It equals ``A % p`` for every int64,
    negatives included: the floor quotient makes the true result lie in
    [0, p), and the int64 product and difference wrap modulo 2**64, so the
    result is exact even where ``A // p * p`` itself wraps."""
    A = as_int64(A, p)
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
