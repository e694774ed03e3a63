"""Matrix Market ingestion and output.

Supports coordinate and array formats with integer, real (finite integral
values only, parsed exactly) or pattern fields, general or symmetric.  Duplicate coordinate
entries are summed; 1-based indices convert to 0-based.  Values are kept
as exact Python integers until a field reduction is requested.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

from .errors import (IndexOutOfRange, MalformedHeader, MatrixMarketError,
                     NonSquareWhereSquareRequired)
from .field import PrimeField
from .operators import SparseOperator


@dataclass
class MatrixMarketData:
    format: str          # "coordinate" | "array"
    rows: int
    cols: int
    triples: list        # summed, 0-based (row, col, int value); zeros dropped

    @property
    def square(self) -> bool:
        return self.rows == self.cols

    def require_square(self):
        """Self if the matrix is square and not empty; the operator commands
        need both."""
        if not self.square:
            raise NonSquareWhereSquareRequired(
                f"matrix is {self.rows} x {self.cols}")
        if self.rows == 0:
            raise MatrixMarketError("matrix is empty (0 x 0)")
        return self


def _parse_value(token: str, field_kind: str) -> int:
    """The exact integer a token denotes; a real token must be finite and
    integral, and its integer no longer than ``int()`` accepts as digits."""
    if field_kind == "pattern":
        return 1
    try:
        return int(token)
    except ValueError:
        pass
    try:
        x = Decimal(token)
    except InvalidOperation:
        raise MalformedHeader(f"value {token!r} is not a number") from None
    if not x.is_finite() or x != x.to_integral_value():
        raise MalformedHeader(f"non-integral value {token!r} not representable exactly")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and x.adjusted() >= limit:
        raise MalformedHeader(f"value {token!r} has more than {limit} digits")
    return int(x)


def read_matrix_market(path) -> MatrixMarketData:
    """Parse a Matrix Market file (coordinate or array, general/symmetric)."""
    with open(path, "rt", encoding="utf-8") as f:
        header = f.readline()
        parts = header.strip().split()
        if (len(parts) != 5 or parts[0] != "%%MatrixMarket"
                or parts[1].lower() != "matrix"):
            raise MalformedHeader(f"bad banner: {header.strip()!r}")
        fmt = parts[2].lower()
        field_kind = parts[3].lower()
        symmetry = parts[4].lower()
        if fmt not in ("coordinate", "array"):
            raise MalformedHeader(f"unsupported format {fmt!r}")
        if field_kind not in ("integer", "real", "pattern"):
            raise MalformedHeader(f"unsupported field {field_kind!r}")
        if symmetry not in ("general", "symmetric"):
            raise MalformedHeader(f"unsupported symmetry {symmetry!r}")
        if fmt == "array" and field_kind == "pattern":
            raise MalformedHeader("array format cannot be pattern")
        lines = (ln.strip() for ln in f)
        body = [ln for ln in lines if ln and not ln.startswith("%")]
    if not body:
        raise MalformedHeader("missing size line")
    size = body[0].split()
    entries = body[1:]
    want = 3 if fmt == "coordinate" else 2
    if len(size) != want:
        raise MalformedHeader(f"{fmt} size line needs {want} fields: {body[0]!r}")
    dims = [int(x) for x in size]
    if min(dims) < 0 or symmetry == "symmetric" and dims[0] != dims[1]:
        raise MalformedHeader(f"invalid {symmetry} size line {body[0]!r}")
    if fmt == "coordinate":
        rows, cols, nnz = dims
        if len(entries) != nnz:
            raise MalformedHeader(f"expected {nnz} entries, found {len(entries)}")
        acc: dict[tuple[int, int], int] = {}
        for ln in entries:
            toks = ln.split()
            want = 2 if field_kind == "pattern" else 3
            if len(toks) != want:
                raise MalformedHeader(f"bad entry line: {ln!r}")
            i, j = int(toks[0]) - 1, int(toks[1]) - 1
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexOutOfRange(f"entry ({i + 1}, {j + 1}) outside {rows} x {cols}")
            v = _parse_value(toks[-1], field_kind)
            acc[(i, j)] = acc.get((i, j), 0) + v
            if symmetry == "symmetric" and i != j:
                acc[(j, i)] = acc.get((j, i), 0) + v
        triples = [(i, j, v) for (i, j), v in sorted(acc.items()) if v]
        return MatrixMarketData("coordinate", rows, cols, triples)
    # array: column-major dense values
    rows, cols = dims
    expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
    if len(entries) != expected:
        raise MalformedHeader(f"expected {expected} values, found {len(entries)}")
    triples = []
    if symmetry == "general":
        it = iter(entries)
        for j in range(cols):
            for i in range(rows):
                v = _parse_value(next(it), "integer")
                if v:
                    triples.append((i, j, v))
    else:
        it = iter(entries)
        for j in range(cols):
            for i in range(j, rows):
                v = _parse_value(next(it), "integer")
                if v:
                    triples.append((i, j, v))
                    if i != j:
                        triples.append((j, i, v))
    triples.sort()
    return MatrixMarketData("array", rows, cols, triples)


def to_sparse_operator(data: MatrixMarketData, field: PrimeField) -> SparseOperator:
    """Reduce entries mod p (balanced input: negatives wrap) and build the
    black-box operator; entries divisible by p drop out."""
    data.require_square()
    reduced = [(i, j, v % field.p) for i, j, v in data.triples if v % field.p]
    return SparseOperator(data.rows, reduced, field)


def to_dense_residues(data: MatrixMarketData, field: PrimeField) -> np.ndarray:
    M = np.zeros((data.rows, data.cols), dtype=np.int64)
    for i, j, v in data.triples:
        M[i, j] = v % field.p
    return M


def write_matrix_market_array(M: np.ndarray, f):
    """Dense integer matrix in array format (column-major values)."""
    M = np.asarray(M)
    f.write("%%MatrixMarket matrix array integer general\n")
    f.write(f"{M.shape[0]} {M.shape[1]}\n")
    for j in range(M.shape[1]):
        for i in range(M.shape[0]):
            f.write(f"{int(M[i, j])}\n")
