"""Determinant of a black-box matrix modulo a word-size prime via the
baby-steps/giant-steps block minimal matrix generator, plus Chinese-
remainder assembly of integer determinants over several primes.

Per prime: precondition B = D1 (U A) D2 (butterfly U has determinant 1 by
construction), project the power sequence alpha_i = u^T B^i v, i <= 2m,
with the stacked-identity u on the left and a dense random n x s block v
on the right (one ``krylov_apply_left`` sweep, 2m applications of B to v),
compute the minimal right matrix generator by the order-basis algorithm,
and read

    det B = (-1)^n det F(0) / lead(det F)

(the generator is row-reduced, so lead(det F) is the determinant of the
constant coefficients of the un-reversed basis rows).  The diagonal
determinants divide back out exactly.  Retries and the singularity
certificate are ``inverse.run_attempts``, the policy of every pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import dense_det
from .errors import (DegenerateSequence, DimensionError, InsufficientPrimes,
                     SingularMatrix)
from .field import PrimeField, is_probable_prime, reduce_mod
from .hankel import _pade_basis
from .inverse import InversionConfig, run_attempts
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DiagonalOperator, EmbeddedOperator, SparseOperator)
from .polymat import polymat_mul
from .projection import BlockProjection, krylov_apply_left


@dataclass
class GeneratorResult:
    """Minimal right matrix generator of a block sequence.

    ``F`` is its (degree + 1, s, s) coefficient array; it right-annihilates
    the sampled sequence: for every column c with degree d_c,
    sum_j alpha_{i+j} F_j e_c = 0 for 0 <= i < samples - d_c.
    """
    F: np.ndarray
    degree: int
    det_at_zero: int
    col_degrees: list
    det_lead: int


def block_generator(alpha, m: int, p: int,
                    expected_degree_sum: int | None = None) -> GeneratorResult:
    """Minimal right matrix generator from >= 2m sequence blocks.

    Raises DegenerateSequence when the degree profile falls short of
    ``expected_degree_sum`` (callers pass n = m s) or a normalizer is
    singular; callers retry with fresh projections."""
    alpha = reduce_mod(np.stack(alpha), p)
    s = alpha.shape[1]
    if len(alpha) < 2 * m:
        raise ValueError(f"need at least {2 * m} sequence blocks, got {len(alpha)}")
    tau = 2 * m
    alpha_t = alpha.transpose(0, 2, 1)
    # W: the row polynomials of the basis, transposed side
    [(W, degs, _)] = _pade_basis(alpha_t, s, p, tau + 1, tau)
    if expected_degree_sum is not None and sum(degs) != expected_degree_sum:
        raise DegenerateSequence(
            f"generator degrees {degs} sum to {sum(degs)}, need {expected_degree_sum}")
    det_lead = dense_det(W[:, :, 0], p)      # constant coefficients
    if det_lead == 0:
        raise DegenerateSequence("generator normalizer (constant term) singular")
    # Per-row reversal, transposed back: column c of coefficient F_k is
    # row c of W at position degs[c] - k.
    dmax = max(degs)
    gen = np.zeros((dmax + 1, s, s), dtype=np.int64)
    for c, d in enumerate(degs):
        gen[:d + 1, :, c] = W[c, :, d::-1].T
    # annihilation check over the sampled window, all windows i at once:
    # coefficient dmax + i of F_rev^T(x) alpha^T(x) is the transpose of
    # sum_k alpha_{i+k} F_k, so its row c is column c of that sum.  Column c
    # must vanish on windows i < len(alpha) - d_c (past them it reads
    # coefficients above d_c, which are zero in that column).
    windows = max(len(alpha) - min(degs), 0)
    acc = polymat_mul(gen[::-1].transpose(0, 2, 1), alpha_t, p, dmax, dmax + windows)
    for c, d in enumerate(degs):
        if acc[:max(len(alpha) - d, 0), c].any():
            raise DegenerateSequence("generator fails annihilation on the sample")
    return GeneratorResult(F=gen, degree=dmax, det_at_zero=dense_det(gen[0], p),
                           col_degrees=degs, det_lead=det_lead)


def det_mod_p(A: BlackBoxOperator, cfg: InversionConfig | None = None) -> int:
    """Determinant of A modulo the operator's prime (Monte Carlo: verified
    only by the degree checks; run twice with different seeds to confirm).

    Each attempt draws a fresh preconditioner and projection under
    ``run_attempts``: the first degenerate sequence runs the singularity
    certificate, and a certified rank < n returns 0.  When the attempts run
    out, a FieldTooSmall from the certificate is raised, else
    RetriesExhausted."""
    cfg = cfg or InversionConfig()
    field = A.field
    p = field.p
    n0 = A.n
    s = min(cfg.s, n0) if cfg.s else min(max(round(n0 ** (1 / 3)), 1), n0)
    m = (n0 + s - 1) // s
    n = m * s
    work = EmbeddedOperator(A, n) if n != n0 else A
    P = BlockProjection(n, s)

    def attempt(rng):
        D1 = DiagonalOperator.random(n, field, rng)
        D2 = DiagonalOperator.random(n, field, rng)
        U = ButterflyOperator(n, field, rng)
        B = ComposedOperator([D1, U, work, D2])
        v = rng.integers(0, p, size=(n, s), dtype=np.int64)
        alpha = krylov_apply_left(B, P, v, terms=2 * m + 1).reshape(2 * m + 1, s, s)
        gen = block_generator(alpha, m, p, expected_degree_sum=n)
        det_B = gen.det_at_zero * field.inv(gen.det_lead) % p
        if n % 2:
            det_B = (-det_B) % p
        # det U = 1 by construction; padding contributes det 1
        scale = D1.determinant() * D2.determinant() % p
        return det_B * field.inv(scale) % p

    try:
        return run_attempts(A, cfg, attempt, certify=True, s=s, m=m)[0]
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
