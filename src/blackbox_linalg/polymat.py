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
from .field import (PANEL_ELEMENTS, as_int64, left_limbs, limb_product,
                    right_limbs)


def polymat_mul(F: np.ndarray, G: np.ndarray, p: int, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
    """Coefficients lo..hi-1 of F(x) G(x) mod p, as an (hi-lo, r, k) array.

    F is (df, r, c) and G (dg, c, k); ``hi`` defaults to df + dg - 1 (the
    whole product), and coefficients past the product are zero.

    Coefficient t is sum_i F_i G_{t-i}, the product of the F_i side by side
    with the G_{t-i} stacked, so it is one exact limb GEMM and one
    reduction (``field.limb_product``).  F's limbs are prepared once,
    reversed and coefficient-major (F_{df-1}, ..., F_0 side by side), and
    G's limbs once per column panel of at most ``PANEL_ELEMENTS`` floats
    (G_0, ..., G_{dg-1} stacked), so the F_i that meet G_{t-i} are one
    column slice of the first and one row slice of the second.  Nothing of
    the size of G is copied.
    """
    F = as_int64(F, p)
    G = as_int64(G, p)
    df, r, c = F.shape
    dg, c2, k = G.shape
    if c != c2:
        raise DimensionError(
            f"block dimensions incompatible: {r}x{c} by {c2}x{k}")
    hi = df + dg - 1 if hi is None else hi
    out = np.zeros((max(hi - lo, 0), r, k), dtype=np.int64)
    coeffs = range(max(lo, 0), min(hi, df + dg - 1))
    if not coeffs:
        return out
    L = left_limbs(F[::-1].transpose(1, 0, 2).reshape(r, df * c), p)
    width = max(1, PANEL_ELEMENTS // max(1, 2 * dg * c))
    R = np.empty((2 * dg * c, min(width, k)))
    for a in range(0, k, width):
        panel = G[:, :, a:a + width]
        limbs = right_limbs(panel, R[:, :panel.shape[2]])
        for t in coeffs:
            # F_i for i in [i0, i1) sits at reversed columns df-i1..df-i0,
            # its partner G_{t-i} at rows t-i1+1..t-i0+1 of the panel
            i0, i1 = max(t - dg + 1, 0), min(t + 1, df)
            u0, j0, run = df - i1, t - i1 + 1, 2 * (i1 - i0) * c
            limb_product(L[:, 2 * u0 * c:2 * u0 * c + run],
                         limbs[2 * j0 * c:2 * j0 * c + run], p,
                         out[t - lo, :, a:a + width])
    return out
