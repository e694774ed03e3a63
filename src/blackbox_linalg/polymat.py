"""The windowed product of polynomials with matrix coefficients over a prime
field.

A polynomial matrix is an int64 coefficient array of shape
(coefficients, rows, cols); coefficient index = degree.  ``polymat_mul`` is
the one product every block-structured computation goes through (the
inversion formula, the block-Hankel product, the generator's annihilation
check); a faster method must stay bit-identical to it.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .field import matmul_mod


def polymat_mul(F: np.ndarray, G: np.ndarray, p: int, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
    """Coefficients lo..hi-1 of F(x) G(x) mod p, as an (hi-lo, r, k) array.

    F is (df, r, c) and G (dg, c, k); ``hi`` defaults to df + dg - 1 (the
    whole product), and coefficients past the product are zero.  G is laid
    side by side once (c x dg k) and each coefficient F_i is multiplied, with
    one ``matmul_mod``, by the run of G_j whose products F_i G_j land in the
    window, so a product costs at most df calls; the partial products are
    accumulated into the window in place and reduced once.
    """
    F = np.asarray(F, dtype=np.int64)
    G = np.asarray(G, dtype=np.int64)
    df, r, c = F.shape
    dg, c2, k = G.shape
    if c != c2:
        raise DimensionError(
            f"block dimensions incompatible: {r}x{c} by {c2}x{k}")
    hi = df + dg - 1 if hi is None else hi
    out = np.zeros((max(hi - lo, 0), r, k), dtype=np.int64)
    side = G.transpose(1, 0, 2).reshape(c, dg * k)
    for i in range(df):
        j0, j1 = max(lo - i, 0), min(hi - i, dg)
        if j0 < j1:
            prod = matmul_mod(F[i], side[:, j0 * k:j1 * k], p)
            out[i + j0 - lo:i + j1 - lo] += prod.reshape(r, j1 - j0, k).transpose(1, 0, 2)
    out %= p
    return out
