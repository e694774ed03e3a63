"""Seeded inputs, the four workloads and their solve steps.

Inputs are made here, not by the library's CLI helpers, so that a change to
``blackbox_linalg.cli`` cannot silently change what the benchmark runs; the
digest of every generated instance is recorded with each run.

Every matrix is sparse over p = 2147483629 with exactly 5 nonzeros per row,
one of them on the diagonal.  Rank-deficient instances empty ``nullity``
rows of such a matrix, which leaves rank n - nullity (confirmed by dense
elimination when the instance's first answer is checked).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import blackbox_linalg as bbl

import checks

P = 2147483629
NNZ_PER_ROW = 5
THIN_COLUMNS = 4
# Nullities of the four rank-deficient instances in a rank-mix pool: fixed
# per slot, so that every seed runs the same mix of 1..8 and the workload's
# application count varies with the seed only through the library's retries.
NULLITIES = (1, 8, 3, 6)


@dataclass
class Instance:
    """One generated input with its operator, built through SparseOperator."""
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int
    nullity: int = 0
    rhs: np.ndarray | None = None
    op: bbl.SparseOperator | None = None

    def build(self, field):
        triples = list(zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()))
        self.op = bbl.SparseOperator(self.n, triples, field)
        return self


def sparse_instance(rng, n: int) -> Instance:
    """Nonzero diagonal plus NNZ_PER_ROW - 1 distinct off-diagonal entries in
    every row, all values uniform in [1, p)."""
    k = NNZ_PER_ROW - 1
    off = rng.integers(0, n - 1, size=(n, k))
    while True:
        srt = np.sort(off, axis=1)
        dup = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
        if not dup.any():
            break
        off[dup] = rng.integers(0, n - 1, size=(int(dup.sum()), k))
    diag = np.arange(n)
    off = off + (off >= diag[:, None])          # skip the diagonal column
    rows = np.concatenate([diag, np.repeat(diag, k)])
    cols = np.concatenate([diag, off.ravel()])
    vals = rng.integers(1, P, size=len(rows), dtype=np.int64)
    return Instance(rows=rows.astype(np.int64), cols=cols.astype(np.int64),
                    vals=vals, n=n)


def rank_deficient_instance(rng, n: int, nullity: int) -> Instance:
    """A sparse instance with ``nullity`` random rows emptied."""
    inst = sparse_instance(rng, n)
    dead = rng.choice(n, size=nullity, replace=False)
    keep = ~np.isin(inst.rows, dead)
    return Instance(rows=inst.rows[keep], cols=inst.cols[keep],
                    vals=inst.vals[keep], n=n, nullity=nullity)


def digest(pool) -> str:
    """sha256 over every instance's shape, triples and right-hand side."""
    h = hashlib.sha256()
    for inst in pool:
        h.update(np.array([inst.n, inst.nullity], dtype="<i8").tobytes())
        for arr in (inst.rows, inst.cols, inst.vals):
            h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        if inst.rhs is not None:
            h.update(np.ascontiguousarray(inst.rhs, dtype="<i8").tobytes())
    return h.hexdigest()


class Workload:
    """A pool of seeded instances and one solve step per instance.

    ``solve`` returns the outputs of the library calls for instance ``i`` of
    the pool; ``check`` compares them against the independent oracles in
    ``checks`` and returns a failure reason or None.  Solves run in rounds of
    ``round_size`` consecutive instances, so that every completed round keeps
    the mix of instance kinds.
    """
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.field = bbl.PrimeField(P)
        self.pool = []

    def make_pool(self, rng):
        raise NotImplementedError

    def setup(self):
        """Generate the pool from the seed and build its operators."""
        self.pool = [inst.build(self.field)
                     for inst in self.make_pool(np.random.default_rng(self.seed))]

    def round_size(self) -> int:
        return 1

    def config_seed(self, i: int) -> int:
        """The library's randomness for solve ``i`` of this run."""
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def solve(self, i: int, cfg_seed: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks deferred past the timed loop, as (solve index, reason)."""
        return []


class Invert(Workload):
    name = "invert-512"
    n = 512

    def make_pool(self, rng):
        return [sparse_instance(rng, self.n) for _ in range(4)]

    def solve(self, i, cfg_seed):
        A = self.pool[i % len(self.pool)].op
        return bbl.blackbox_inverse(A, bbl.InversionConfig(seed=cfg_seed)).matrix

    def check(self, i, X):
        inst = self.pool[i % len(self.pool)]
        if not checks.is_identity(checks.sparse_times(inst, X)):
            return "A X != I"
        return None


class SolveThin(Workload):
    name = "solve-thin-1024"
    n = 1024
    s = 32

    def make_pool(self, rng):
        pool = []
        for _ in range(2):
            inst = sparse_instance(rng, self.n)
            inst.rhs = rng.integers(0, P, size=(self.n, THIN_COLUMNS), dtype=np.int64)
            pool.append(inst)
        return pool

    def solve(self, i, cfg_seed):
        inst = self.pool[i % len(self.pool)]
        return bbl.blackbox_inverse_apply(
            inst.op, inst.rhs, bbl.InversionConfig(seed=cfg_seed, s=self.s)).matrix

    def check(self, i, X):
        inst = self.pool[i % len(self.pool)]
        if not np.array_equal(checks.sparse_times(inst, X), inst.rhs):
            return "A X != M"
        return None


class Det(Workload):
    """One instance per seed: its dense determinant is computed once, after
    the timed loop, so that neither timing nor peak memory includes it."""
    name = "det-1024"
    n = 1024

    def __init__(self, seed: int):
        super().__init__(seed)
        self.answers = []

    def make_pool(self, rng):
        return [sparse_instance(rng, self.n)]

    def solve(self, i, cfg_seed):
        return bbl.det_mod_p(self.pool[0].op, bbl.InversionConfig(seed=cfg_seed))

    def check(self, i, det):
        self.answers.append((i, int(det)))
        return None

    def finish(self):
        want = checks.dense_det(self.pool[0], P)
        return [(i, f"det {d} != dense det {want}")
                for i, d in self.answers if d != want]


class RankMix(Workload):
    """Rounds of two rank-deficient instances then one full-rank instance.

    A rank-deficient instance goes first to blackbox_inverse, which must
    raise SingularMatrix with a kernel vector, then to nullspace_rank; a
    full-rank instance goes to nullspace_rank only."""
    name = "rank-mix-256"
    n = 256

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ranks = {}

    def make_pool(self, rng):
        pool = []
        for k in range(0, len(NULLITIES), 2):
            pool.append(rank_deficient_instance(rng, self.n, NULLITIES[k]))
            pool.append(rank_deficient_instance(rng, self.n, NULLITIES[k + 1]))
            pool.append(sparse_instance(rng, self.n))
        return pool

    def round_size(self):
        return 3

    def solve(self, i, cfg_seed):
        inst = self.pool[i % len(self.pool)]
        cfg = bbl.InversionConfig(seed=cfg_seed)
        kernel = None
        if inst.nullity:
            try:
                bbl.blackbox_inverse(inst.op, cfg)
                kernel = "returned an inverse"
            except bbl.SingularMatrix as exc:
                kernel = exc.kernel_vector
        return kernel, bbl.nullspace_rank(inst.op, cfg)

    def _dense_rank(self, k):
        """Rank of pool instance k by elimination, computed once."""
        if k not in self.ranks:
            inst = self.pool[k]
            rank = checks.dense_rank(inst, P)
            if rank != inst.n - inst.nullity:
                raise RuntimeError(
                    f"generated instance has rank {rank}, expected {inst.n - inst.nullity}")
            self.ranks[k] = rank
        return self.ranks[k]

    def check(self, i, out):
        inst = self.pool[i % len(self.pool)]
        kernel, cert = out
        if inst.nullity:
            if isinstance(kernel, str):
                return f"singular input: {kernel}"
            v = np.asarray(kernel, dtype=np.int64).reshape(-1, 1)
            if not v.any() or checks.sparse_times(inst, v).any():
                return "SingularMatrix kernel vector is not a nonzero A v = 0"
        rank = self._dense_rank(i % len(self.pool))
        N = cert.nullspace
        if cert.rank != rank:
            return f"rank {cert.rank} != dense rank {rank}"
        if N.shape != (inst.n, inst.n - rank):
            return f"nullspace shape {N.shape} for rank {rank}"
        if N.shape[1] and (checks.sparse_times(inst, N).any()
                           or checks.dense_rank_matrix(N.T.copy(), P) != N.shape[1]):
            return "nullspace basis fails A N = 0 or is rank deficient"
        return None


WORKLOADS = {w.name: w for w in (Invert, SolveThin, Det, RankMix)}
