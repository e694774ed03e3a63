"""Polynomials with dense matrix coefficients over a prime field.

Coefficient index = degree.  Multiplication is schoolbook convolution of the
coefficient blocks; any faster method must stay bit-identical to it.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .field import matmul_mod, reduce_mod


class MatrixPolynomial:
    """A polynomial whose coefficients are r x c residue matrices."""

    def __init__(self, coeffs, p: int):
        if not coeffs:
            raise ValueError("need at least one coefficient block")
        self.coeffs = [reduce_mod(c, p) for c in coeffs]
        shape = self.coeffs[0].shape
        if any(c.shape != shape for c in self.coeffs):
            raise DimensionError("coefficient blocks differ in shape")
        self.p = p

    @property
    def rows(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs[0].shape[1]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> np.ndarray:
        """Coefficient of x^k (zero block beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return np.zeros((self.rows, self.cols), dtype=np.int64)

    def trim(self) -> "MatrixPolynomial":
        """Drop trailing zero blocks (keeping at least the constant term)."""
        last = 0
        for k, c in enumerate(self.coeffs):
            if c.any():
                last = k
        return MatrixPolynomial(self.coeffs[:last + 1], self.p)

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        a, b = self.trim(), other.trim()
        return (a.p == b.p and len(a.coeffs) == len(b.coeffs)
                and all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs)))

    def __repr__(self):
        return (f"MatrixPolynomial({self.rows}x{self.cols}, "
                f"degree {self.degree}, p={self.p})")


def polymat_mul(F: MatrixPolynomial, G: MatrixPolynomial,
                max_degree: int | None = None) -> MatrixPolynomial:
    """Schoolbook convolution product F * G.

    ``max_degree`` truncates the result (coefficients above it are not
    computed), which the order-basis code uses for mod-x^k products.
    """
    if F.p != G.p:
        raise DimensionError("modulus mismatch")
    if F.cols != G.rows:
        raise DimensionError(
            f"block dimensions incompatible: {F.rows}x{F.cols} by {G.rows}x{G.cols}")
    p = F.p
    deg = F.degree + G.degree
    if max_degree is not None:
        deg = min(deg, max_degree)
    out = [np.zeros((F.rows, G.cols), dtype=np.int64) for _ in range(deg + 1)]
    for i, fi in enumerate(F.coeffs):
        if i > deg or not fi.any():
            continue
        for j, gj in enumerate(G.coeffs):
            k = i + j
            if k > deg:
                break
            if gj.any():
                out[k] = (out[k] + matmul_mod(fi, gj, p)) % p
    return MatrixPolynomial(out, p)
