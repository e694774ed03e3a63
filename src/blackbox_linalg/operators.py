"""Black-box operators: opaque linear maps exposing apply / transpose-apply
with application counters, plus the concrete preconditioning toolbox
(sparse, diagonal, butterfly network and its transpose, composition).

Counter accounting follows the matrix-times-vector convention: applying an
operator to an n x k block counts as k vector applications.  Counters are
lock-protected so concurrent applies lose no updates; everything else about
an operator is immutable after construction, apart from the butterfly's
transposed row plan, built on the first transposed apply.  The sparse apply
works in two panel buffers that belong to the applying thread, not to an
operator: made on the thread's first sparse apply, grown when a wider panel
needs it, reused by every later sparse apply of that thread (of any
operator), and freed when the thread ends.  Panels above
``PANEL_ELEMENTS`` products get fresh buffers (see
``field.thread_buffers``).

The hot loops reduce by floor division in place (``x - x // p * p``, as
``matmul_mod`` does), never by numpy's slower ``%``, and work in column or
row panels of at most ``PANEL_ELEMENTS`` elements, so that their temporaries
stay bounded whatever the width of the block.
"""
from __future__ import annotations

import threading

import numpy as np

from .errors import DimensionError
from .field import (PANEL_ELEMENTS, PrimeField, matmul_mod, reduce_in_place,
                    reduce_mod, thread_buffers)

# the sparse apply's products and quotients, shared by every SparseOperator
_sparse_buffers = threading.local()


class BlackBoxOperator:
    """An opaque n x n linear map over a prime field.

    Subclasses implement ``_apply_block(V, transposed)`` on n x k residue
    blocks; the public methods handle shape checks and counting.
    """

    def __init__(self, n: int, field: PrimeField):
        self.n = n
        self.field = field
        self._lock = threading.Lock()
        self._apply_count = 0
        self._transpose_apply_count = 0

    # -- counters ----------------------------------------------------------

    @property
    def apply_count(self) -> int:
        return self._apply_count

    @property
    def transpose_apply_count(self) -> int:
        return self._transpose_apply_count

    @property
    def total_applications(self) -> int:
        return self._apply_count + self._transpose_apply_count

    def _count(self, k: int, transposed: bool):
        with self._lock:
            if transposed:
                self._transpose_apply_count += k
            else:
                self._apply_count += k

    # -- application -------------------------------------------------------

    def _apply_block(self, V: np.ndarray, transposed: bool) -> np.ndarray:
        raise NotImplementedError

    def _check(self, V: np.ndarray) -> np.ndarray:
        V = reduce_mod(V, self.field.p)
        if V.shape[0] != self.n:
            raise DimensionError(f"operand has {V.shape[0]} rows, operator is {self.n}")
        return V

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A @ v for a length-n vector."""
        v = self._check(np.asarray(v).reshape(-1, 1))
        out = self._apply_block(v, False)
        self._count(1, False)
        return out.ravel()

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """A.T @ v for a length-n vector."""
        v = self._check(np.asarray(v).reshape(-1, 1))
        out = self._apply_block(v, True)
        self._count(1, True)
        return out.ravel()

    def apply_matrix(self, V: np.ndarray) -> np.ndarray:
        """A @ V for an n x k block (counts k applications)."""
        V = self._check(V)
        out = self._apply_block(V, False)
        self._count(V.shape[1], False)
        return out

    def apply_transpose_matrix(self, V: np.ndarray) -> np.ndarray:
        V = self._check(V)
        out = self._apply_block(V, True)
        self._count(V.shape[1], True)
        return out


class DenseOperator(BlackBoxOperator):
    """Wraps an explicit n x n matrix (tests, small oracles, dense inputs)."""

    def __init__(self, M: np.ndarray, field: PrimeField):
        M = reduce_mod(M, field.p)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionError(f"expected square matrix, got {M.shape}")
        super().__init__(M.shape[0], field)
        self.matrix = M

    def _apply_block(self, V, transposed):
        M = self.matrix.T if transposed else self.matrix
        return matmul_mod(M, V, self.field.p)


class SparseOperator(BlackBoxOperator):
    """Coordinate-format sparse matrix; apply cost proportional to nnz."""

    def __init__(self, n: int, triples, field: PrimeField):
        super().__init__(n, field)
        p = field.p
        rows = np.array([t[0] for t in triples], dtype=np.int64)
        cols = np.array([t[1] for t in triples], dtype=np.int64)
        vals = reduce_mod([t[2] for t in triples], p)
        if len(rows) and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise DimensionError("triple index out of range")
        if np.any(vals == 0):
            raise ValueError("explicit zero value in sparse triples")
        keys = rows * n + cols
        if len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate (row, col) in sparse triples")
        self.rows, self.cols, self.vals = rows, cols, vals
        # row-sorted and col-sorted orderings for segmented sums
        self._fw = self._plan(rows, cols, vals)
        self._bw = self._plan(cols, rows, vals)

    @staticmethod
    def _plan(outer, inner, vals):
        order = np.argsort(outer, kind="stable")
        uniq, starts = np.unique(outer[order], return_index=True)
        return inner[order], vals[order], uniq, starts

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def _apply_block(self, V, transposed):
        # column panels of at most PANEL_ELEMENTS products bound the
        # buffers, whatever the width of V
        p = self.field.p
        gather, vals, uniq, starts = self._bw if transposed else self._fw
        n, k = V.shape
        out = np.zeros((n, k), dtype=np.int64)
        if len(vals) == 0:
            return out
        width = max(1, min(k, PANEL_ELEMENTS // len(vals)))
        prods, spare = thread_buffers(_sparse_buffers, len(vals) * width,
                                      (np.int64, np.int64))
        for lo in range(0, k, width):
            w = min(width, k - lo)
            G = prods[:len(vals) * w].reshape(-1, w)
            Q = spare[:len(vals) * w].reshape(-1, w)
            # mode="raise" would make numpy buffer ``out``
            V[:, lo:lo + w].take(gather, axis=0, out=G, mode="clip")
            G *= vals[:, None]
            np.floor_divide(G, p, out=Q)
            Q *= p
            G -= Q
            # the segment sums go into the spent quotients, their own
            # quotients into the spent products
            S = np.add.reduceat(G, starts, axis=0, out=Q[:len(uniq)])
            R = G[:len(uniq)]
            np.floor_divide(S, p, out=R)
            R *= p
            S -= R
            out[uniq, lo:lo + w] = S
        return out


class DiagonalOperator(BlackBoxOperator):
    """Diagonal matrix with nonzero entries (hence always invertible)."""

    def __init__(self, d: np.ndarray, field: PrimeField):
        d = reduce_mod(d, field.p).ravel()
        if np.any(d == 0):
            raise ValueError("diagonal entries must be nonzero")
        super().__init__(len(d), field)
        self.d = d

    @classmethod
    def block_constant(cls, values, s: int, field: PrimeField) -> "DiagonalOperator":
        """diag(d_1,...,d_1,...,d_m,...,d_m): each value repeated s times."""
        return cls(np.repeat(reduce_mod(values, field.p), s), field)

    @classmethod
    def random(cls, n: int, field: PrimeField, rng) -> "DiagonalOperator":
        return cls(rng.integers(1, field.p, size=n, dtype=np.int64), field)

    def _apply_block(self, V, transposed):
        return reduce_in_place(np.multiply(V, self.d[:, None]), self.field.p)

    def determinant(self) -> int:
        det = 1
        for x in self.d.tolist():
            det = det * x % self.field.p
        return det


class ButterflyOperator(BlackBoxOperator):
    """Random butterfly network: log2(n) rounds of 2x2 mixing stages.

    Each pair is mixed by [[a, b], [c, d]] with random a != 0, b, c and
    d = (1 + b c) / a, so every stage has determinant exactly 1: the whole
    network is invertible by construction and det = 1 (the determinant
    pipeline divides preconditioner determinants back out relying on this).
    Pairs that would straddle n (when n is not a power of two) act as the
    identity, which keeps both properties.

    An apply runs a row plan: per stage, in application order, three
    length-n columns

    - ``partner``: j for row i and i for row j of each pair (i, j); a
      straddling row is its own partner;
    - ``own``: a on lo rows, d on hi rows, 1 on straddling rows;
    - ``other``: b on lo rows, c on hi rows, 0 on straddling rows,

    so that a stage is ``x = own * X + other * X[partner]`` on every row at
    once, with no scatter.  Residues are below p < 2**31, so each product is
    below 2**62 and the sum below 2**63: it is exact in int64 and reduced
    once, by floor division.  The transposed direction runs the stages in
    reverse with b and c swapped, that is with ``other[partner]`` (c on lo
    rows, b on hi rows); its plan shares ``partner`` and ``own`` with the
    forward one and is built on the first transposed apply, so a network
    applied one way never holds it.

    The block is processed in column panels of at most
    ``PANEL_ELEMENTS // n`` columns, each copied into a reused contiguous
    buffer and taken through every stage while it is in cache.  A panel is
    read whole before its result is written, so the output may be the input
    itself (``apply_transpose_in_place``).
    """

    def __init__(self, n: int, field: PrimeField, rng):
        super().__init__(n, field)
        p = field.p
        plan = []
        span = 1
        i = np.arange(n)
        while span < n:
            los = i[((i // span) % 2 == 0) & (i + span < n)]
            his = los + span
            k = len(los)
            a = rng.integers(1, p, size=k, dtype=np.int64)
            b = rng.integers(0, p, size=k, dtype=np.int64)
            c = rng.integers(0, p, size=k, dtype=np.int64)
            d = (1 + b * c % p) % p * field.inv_vec(a) % p
            partner = i.copy()
            partner[los], partner[his] = his, los
            own = np.ones((n, 1), dtype=np.int64)
            own[los, 0], own[his, 0] = a, d
            other = np.zeros((n, 1), dtype=np.int64)
            other[los, 0], other[his, 0] = b, c
            plan.append((partner, own, other))
            span *= 2
        self._plans = [plan, None]

    def transpose(self) -> "ButterflyOperator":
        """The transposed network as a butterfly of its own (fresh counters,
        no draws, the plans shared)."""
        T = ButterflyOperator.__new__(ButterflyOperator)
        BlackBoxOperator.__init__(T, self.n, self.field)
        T._plans = [self._plan(True), self._plans[False]]
        return T

    def _plan(self, transposed):
        """The row plan of one direction: (partner, own, other) per stage,
        own and other as n x 1 columns.  Two threads racing to build the
        transposed plan build equal ones."""
        if transposed and self._plans[True] is None:
            self._plans[True] = [(partner, own, other[partner])
                                 for partner, own, other in reversed(self._plans[False])]
        return self._plans[transposed]

    def apply_transpose_in_place(self, V: np.ndarray) -> np.ndarray:
        """V <- U.T V in place, and return V.

        V is an n x k block of residues of any strides, so
        ``apply_transpose_in_place(X.T)`` multiplies X by U from the right
        without a transposed copy.  Counts k transposed applications;
        allocates two panels, nothing of the size of V."""
        if V.shape[0] != self.n:
            raise DimensionError(f"operand has {V.shape[0]} rows, operator is {self.n}")
        self._apply_block(V, True, out=V)
        self._count(V.shape[1], True)
        return V

    def _apply_block(self, V, transposed, out=None):
        n, k = V.shape
        plan = self._plan(transposed)
        out = np.empty((n, k), dtype=np.int64) if out is None else out
        if not plan:
            out[...] = V
            return out
        p = self.field.p
        width = max(1, min(k, PANEL_ELEMENTS // n))
        work = np.empty(n * width, dtype=np.int64)
        gathered = np.empty(n * width, dtype=np.int64)
        for lo in range(0, k, width):
            w = min(width, k - lo)
            X = work[:n * w].reshape(n, w)
            T = gathered[:n * w].reshape(n, w)
            X[...] = V[:, lo:lo + w]
            for partner, own, other in plan:
                # mode="raise" would make numpy buffer ``out``
                X.take(partner, axis=0, out=T, mode="clip")
                T *= other
                X *= own
                X += T
                np.floor_divide(X, p, out=T)
                T *= p
                X -= T
            out[:, lo:lo + w] = X
        return out


class ComposedOperator(BlackBoxOperator):
    """Product of operators: apply = right-to-left application; counter
    attribution flows to every constituent."""

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise ValueError("empty composition")
        n = ops[0].n
        if any(op.n != n for op in ops):
            raise DimensionError("composed operators must share dimension")
        super().__init__(n, ops[0].field)
        self.ops = ops

    def _apply_block(self, V, transposed):
        if transposed:
            for op in self.ops:
                V = op._apply_block(V, True)
                op._count(V.shape[1], True)
        else:
            for op in reversed(self.ops):
                V = op._apply_block(V, False)
                op._count(V.shape[1], False)
        return V


class EmbeddedOperator(BlackBoxOperator):
    """diag(A, I): A embedded in the top-left corner of a larger identity.

    Used to extend n to the nearest multiple of the blocking factor."""

    def __init__(self, inner: BlackBoxOperator, n_big: int):
        if n_big < inner.n:
            raise DimensionError("embedding must not shrink the operator")
        super().__init__(n_big, inner.field)
        self.inner = inner

    def _apply_block(self, V, transposed):
        k = self.inner.n
        out = V.copy()
        out[:k] = self.inner._apply_block(V[:k], transposed)
        self.inner._count(V.shape[1], transposed)
        return out


class LeadingMinorOperator(BlackBoxOperator):
    """The leading r x r minor of an operator, realized as embed-truncate:
    pad the input with zeros, apply, truncate the output."""

    def __init__(self, inner: BlackBoxOperator, r: int):
        if r > inner.n:
            raise DimensionError("minor larger than the operator")
        super().__init__(r, inner.field)
        self.inner = inner

    def _apply_block(self, V, transposed):
        big = np.zeros((self.inner.n, V.shape[1]), dtype=np.int64)
        big[:self.n] = V
        out = self.inner._apply_block(big, transposed)
        self.inner._count(V.shape[1], transposed)
        return out[:self.n]
