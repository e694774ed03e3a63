"""Determinant of a black-box matrix modulo a word-size prime by block
Wiedemann, plus Chinese-remainder assembly of integer determinants over
several primes.

Per prime: precondition B = D1 (U A) D2 (butterfly U has determinant 1 by
construction; A padded with an identity to order n = m s), project
alpha_k = u^T B^{k+1} v, k < 2m, with the stacked-identity u on the left
and a dense random n x s block v on the right (2m applications of B to v),
and run one order basis on the transposed blocks (``hankel._block_wiedemann``).
When its Pade families pass the Hankel certificate, B is nonsingular and

    det B = (-1)^n det v_m

holds exactly for the degree-m coefficient v_m of the v-family.  The
diagonal determinants divide back out exactly.  A run that fails the
certificate reads a kernel vector of A off its own minimal generator
(``inverse._kernel_certificate``: it forms only the generator columns that
one random probe does not rule out), which proves det A = 0; otherwise it
retries under ``inverse.run_attempts``, the policy of every pipeline.
"""
from __future__ import annotations

import math

import numpy as np

from .dense import dense_det
from .errors import (DimensionError, HankelSingular, InsufficientPrimes,
                     SingularMatrix)
from .field import PrimeField, is_probable_prime
from .hankel import _block_wiedemann
from .inverse import InversionConfig, _kernel_certificate, run_attempts
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, EmbeddedOperator, SparseOperator)


def det_mod_p(A: BlackBoxOperator, cfg: InversionConfig | None = None) -> int:
    """Determinant of A modulo the operator's prime (Las Vegas: never wrong).

    Each attempt draws a fresh preconditioner and projection under
    ``run_attempts``; a nonzero determinant is accepted only with the Hankel
    certificate of its run.  An attempt whose certificate fails reads a
    kernel vector off the generator of the same run, and a certified one
    returns 0; otherwise it retries, and running out of attempts raises
    RetriesExhausted."""
    cfg = cfg or InversionConfig()
    field = A.field
    p = field.p
    n0 = A.n
    s = min(cfg.s, n0) if cfg.s else min(max(round(n0 ** (1 / 3)), 1), n0)
    m = (n0 + s - 1) // s
    n = m * s
    work = EmbeddedOperator(A, n) if n != n0 else A

    def attempt(rng):
        D1 = DiagonalOperator.random(n, field, rng)
        D2 = DiagonalOperator.random(n, field, rng)
        U = ButterflyOperator(n, field, rng)
        v = rng.integers(0, p, size=(n, s), dtype=np.int64)
        B = ComposedOperator([D1, U, work, D2])
        _, certified, F, _ = _block_wiedemann(B, v)
        try:
            v_t = certified()[1]
        except HankelSingular:
            _kernel_certificate(A, B, v, F, D2, rng)
            raise
        det_B = dense_det(v_t[m], p) * (-1) ** n % p
        # det U = 1 by construction; padding contributes det 1
        scale = D1.determinant() * D2.determinant() % p
        return det_B * field.inv(scale) % p

    try:
        return run_attempts(A, cfg, attempt, s=s, m=m)[0]
    except SingularMatrix:
        return 0


def hadamard_bound(n: int, triples) -> int:
    """Integer upper bound on |det| from row 2-norms (exact, big ints);
    DimensionError for an entry outside the n x n matrix."""
    row_sq = [0] * n
    for i, j, v in triples:
        if not (0 <= i < n and 0 <= j < n):
            raise DimensionError(f"entry ({i}, {j}) outside the {n} x {n} matrix")
        row_sq[int(i)] += int(v) * int(v)
    bound = 1
    for sq in row_sq:
        if sq:
            bound *= math.isqrt(sq - 1) + 1
    return bound


def crt_combine(residues, moduli) -> int:
    """Chinese remainder combination; result in [0, prod moduli)."""
    total = 0
    prod = 1
    for q in moduli:
        prod *= q
    for r, q in zip(residues, moduli):
        mq = prod // q
        total += r * pow(mq, -1, q) * mq
    return total % prod


def word_size_primes(count: int, below: int = (1 << 31)) -> list:
    """The largest ``count`` odd primes below the word bound, descending
    (the primes of the fields, which start at 3); ValueError when fewer
    lie below ``below``."""
    out = []
    candidate = below - 1 if below % 2 == 0 else below - 2
    while len(out) < count:
        if candidate < 3:
            raise ValueError(f"fewer than {count} odd primes below {below}")
        if is_probable_prime(candidate):
            out.append(candidate)
        candidate -= 2
    return out


def det_integer_crt(n: int, triples, primes, seed: int = 0,
                    max_retries: int = 8) -> int:
    """Signed integer determinant of a sparse integer matrix by Chinese
    remaindering det_mod_p over the given primes.

    ``triples`` are (row, col, value) with arbitrary-size integer values;
    requires prod(primes) > 2 * Hadamard bound."""
    bound = hadamard_bound(n, triples)
    prod = 1
    for q in primes:
        prod *= q
    if prod <= 2 * bound:
        raise InsufficientPrimes(
            f"prime product {prod} does not exceed twice the Hadamard bound {bound}")
    residues = []
    for q in primes:
        field = PrimeField(q)
        reduced = [(i, j, v % q) for i, j, v in triples if v % q]
        op = SparseOperator(n, reduced, field)
        residues.append(det_mod_p(op, InversionConfig(seed=seed, max_retries=max_retries)))
    x = crt_combine(residues, primes)
    if 2 * x > prod:
        x -= prod
    return x
