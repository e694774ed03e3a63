"""Cross-pipeline oracle sweep: det, rank/nullspace and the inverse of one
grid of structured inputs, each answer checked against the dense oracles.

Every call either answers exactly or raises a documented error under its
documented condition: FieldTooSmall only from the inverse and below its
bound (det and rank have none), RetriesExhausted only in the field of 3
elements, and the inverse's SingularMatrix exactly when det A = 0, with a
kernel vector.
Run with ``-s`` for the table of outcomes per pipeline and prime; their
rates are printed, not asserted.
"""
from collections import Counter

import numpy as np

from blackbox_linalg import (DenseOperator, InversionConfig, PrimeField,
                             blackbox_inverse, dense_det, det_mod_p, matmul_mod,
                             nullspace_rank)
from blackbox_linalg.errors import FieldTooSmall, RetriesExhausted, SingularMatrix

from _oracles import dense_rank

FAMILIES = ("sparse", "permutation", "diagonal, repeated values", "rank 1",
            "duplicated row", "zero", "nilpotent shift", "2 x 2 blocks")
PRIMES = (3, 5, 7, 101, 1009)
SIZES = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 17)
SEEDS = (0, 1)
PIPELINES = ("det", "rank", "inverse")


def family(name, n, p, rng):
    """An n x n matrix over GF(p) of one structured family."""
    nonzero = lambda size: rng.integers(1, p, size=size, dtype=np.int64)
    M = np.zeros((n, n), dtype=np.int64)
    if name == "sparse":  # up to 3 nonzeros a row
        for i in range(n):
            M[i, rng.choice(n, size=min(3, n), replace=False)] = nonzero(min(3, n))
    elif name == "permutation":
        M[np.arange(n), rng.permutation(n)] = 1
    elif name == "diagonal, repeated values":
        M = np.diag(rng.choice(nonzero(2), size=n))
    elif name == "rank 1":
        M = np.outer(nonzero(n), nonzero(n)) % p
    elif name == "duplicated row":
        M = rng.integers(0, p, size=(n, n), dtype=np.int64)
        M[-1] = M[0]
    elif name == "nilpotent shift":
        M = np.eye(n, k=1, dtype=np.int64)
    elif name == "2 x 2 blocks":  # one random block, repeated
        block = rng.integers(0, p, size=(2, 2), dtype=np.int64)
        for i in range(0, n - 1, 2):
            M[i:i + 2, i:i + 2] = block
        if n % 2:
            M[-1, -1] = 1
    return M  # "zero" stays the zero matrix


def _check_det(M, A, p, cfg, det):
    assert det_mod_p(A, cfg) == det


def _check_rank(M, A, p, cfg, det):
    cert = nullspace_rank(A, cfg)
    n = len(M)
    N = cert.nullspace
    assert cert.rank == dense_rank(M, p)
    assert N.shape == (n, n - cert.rank)
    assert not matmul_mod(M, N, p).any()
    assert dense_rank(N, p) == n - cert.rank


def _check_inverse(M, A, p, cfg, det):
    try:
        X = blackbox_inverse(A, cfg).matrix
    except SingularMatrix as exc:
        k = exc.kernel_vector
        assert det == 0
        assert k.any() and not matmul_mod(M, k.reshape(-1, 1), p).any()
        raise
    assert np.array_equal(matmul_mod(M, X, p), np.eye(len(M), dtype=np.int64))


CHECKS = {"det": _check_det, "rank": _check_rank, "inverse": _check_inverse}


def _run(pipeline, M, p, seed):
    """The outcome of one call, after its answer or its error is checked."""
    A = DenseOperator(M, PrimeField(p))
    where = (pipeline, p, len(M), seed)
    try:
        CHECKS[pipeline](M, A, p, InversionConfig(seed=seed), dense_det(M, p))
    except SingularMatrix:
        assert pipeline == "inverse", where
        return "singular"
    except FieldTooSmall as exc:  # det and rank certify at any p
        assert pipeline == "inverse" and exc.p == p <= exc.required, where
        return "FieldTooSmall"
    except RetriesExhausted:
        assert p == 3, where
        return "RetriesExhausted"
    return "answered"


def test_pipelines_agree_with_the_dense_oracles():
    outcomes = Counter()
    for f, name in enumerate(FAMILIES):
        for p in PRIMES:
            for n in SIZES:
                for seed in SEEDS:
                    M = family(name, n, p, np.random.default_rng([f, p, n, seed]))
                    for pipeline in PIPELINES:
                        outcomes[pipeline, p, _run(pipeline, M, p, seed)] += 1
    kinds = ("answered", "singular", "FieldTooSmall", "RetriesExhausted")
    print(f"\n{'pipeline':>8} {'p':>5} " + " ".join(f"{k:>16}" for k in kinds))
    for pipeline in PIPELINES:
        for p in PRIMES:
            print(f"{pipeline:>8} {p:>5} "
                  + " ".join(f"{outcomes[pipeline, p, k]:>16}" for k in kinds))
