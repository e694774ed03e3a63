import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blackbox_linalg.field as field
import blackbox_linalg.polymat as polymat
from blackbox_linalg import polymat_mul
from blackbox_linalg.errors import DimensionError

from _oracles import naive_polymat_convolution


def rand_poly(rng, rows, cols, degree, p):
    return np.stack([rng.integers(0, p, size=(rows, cols), dtype=np.int64)
                     for _ in range(degree + 1)])


def test_mul_by_constant_identity():
    p = 10007
    rng = np.random.default_rng(10)
    F = rand_poly(rng, 3, 3, 4, p)
    I = np.eye(3, dtype=np.int64)[None]
    assert np.array_equal(polymat_mul(F, I, p), F)
    assert np.array_equal(polymat_mul(I, F, p), F)


def test_mul_scalar_known():
    # (2 + 3x)(4 + 5x) = 8 + 22x + 15x^2 = 1 + x + x^2 mod 7
    p = 7
    F = np.array([[[2]], [[3]]])
    G = np.array([[[4]], [[5]]])
    got = polymat_mul(F, G, p)
    assert [int(c[0, 0]) for c in got] == [1, 1, 1]


def test_mul_against_naive_convolution():
    p = 10007
    rng = np.random.default_rng(11)
    F = rand_poly(rng, 3, 3, 5, p)
    G = rand_poly(rng, 3, 3, 5, p)
    got = polymat_mul(F, G, p)
    expect = naive_polymat_convolution(F, G, p)
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)


def test_mul_rectangular_blocks():
    p = 10007
    rng = np.random.default_rng(12)
    F = rand_poly(rng, 2, 2, 3, p)
    G = rand_poly(rng, 2, 5, 2, p)
    got = polymat_mul(F, G, p)
    expect = naive_polymat_convolution(F, G, p)
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)


def test_dimension_mismatch():
    p = 10007
    F = np.zeros((1, 2, 3), dtype=np.int64)
    G = np.zeros((1, 2, 3), dtype=np.int64)
    with pytest.raises(DimensionError):
        polymat_mul(F, G, p)


def test_associative_and_distributive():
    p = 10007
    rng = np.random.default_rng(13)
    for _ in range(5):
        s = int(rng.integers(1, 5))
        d = int(rng.integers(0, 9))
        F = rand_poly(rng, s, s, d, p)
        G = rand_poly(rng, s, s, d, p)
        H = rand_poly(rng, s, s, d, p)
        assert np.array_equal(polymat_mul(polymat_mul(F, G, p), H, p),
                              polymat_mul(F, polymat_mul(G, H, p), p))
        FG, FH = polymat_mul(F, G, p), polymat_mul(F, H, p)
        assert np.array_equal(polymat_mul(F, (G + H) % p, p), (FG + FH) % p)


def test_truncated_product():
    p = 10007
    rng = np.random.default_rng(14)
    F = rand_poly(rng, 2, 2, 6, p)
    G = rand_poly(rng, 2, 2, 6, p)
    full = polymat_mul(F, G, p)
    part = polymat_mul(F, G, p, hi=5)
    assert part.shape == (5, 2, 2)
    assert np.array_equal(part, full[:5])


P_BIG = 2147483629


@st.composite
def _operands(draw):
    """F (df x r x c), G (dg x c x k) and a window [lo, hi) that may be
    empty, cover the product, or run past either end of it."""
    p = draw(st.sampled_from([3, 10007, P_BIG]))
    df, dg = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r, c, k = (draw(st.integers(1, 4)) for _ in range(3))
    fill = draw(st.sampled_from(["uniform", "zero", "max", "mixed"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def entries(shape):
        if fill == "zero":
            return np.zeros(shape, dtype=np.int64)
        if fill == "max":
            return np.full(shape, p - 1, dtype=np.int64)
        x = rng.integers(0, p, size=shape, dtype=np.int64)
        if fill == "mixed":
            x[rng.random(shape) < 0.5] = p - 1
            x[rng.random(shape) < 0.3] = 0
        return x

    lo = draw(st.integers(0, df + dg))
    hi = draw(st.integers(0, df + dg + 1))
    return entries((df, r, c)), entries((dg, c, k)), p, lo, hi


@settings(max_examples=150, deadline=None, database=None)
@given(_operands())
def test_windowed_product_matches_naive_convolution(case):
    F, G, p, lo, hi = case
    full = np.stack(naive_polymat_convolution(F, G, p))
    pad = np.zeros((max(hi, len(full)),) + full.shape[1:], dtype=np.int64)
    pad[:len(full)] = full
    got = polymat_mul(F, G, p, lo, hi)
    assert got.shape == (max(hi - lo, 0), F.shape[1], G.shape[2])
    assert np.array_equal(got, pad[lo:hi])


@settings(max_examples=100, deadline=None, database=None)
@given(_operands(), st.integers(2, 6), st.integers(1, 64))
def test_windowed_product_exact_across_runs_and_panels(case, max_inner, budget):
    # a small MAX_INNER cuts every run of inner indices into chunks, and a
    # small panel budget splits G into several column panels
    F, G, p, lo, hi = case
    full = np.stack(naive_polymat_convolution(F, G, p))
    pad = np.zeros((max(hi, len(full)),) + full.shape[1:], dtype=np.int64)
    pad[:len(full)] = full
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "MAX_INNER", max_inner)
        mp.setattr(polymat, "PANEL_ELEMENTS", budget)
        got = polymat_mul(F, G, p, lo, hi)
    assert np.array_equal(got, pad[lo:hi])


def test_windowed_product_temporaries_bounded():
    # the invert-512 shape (s = m = 23, 529 columns): besides the output,
    # only F's limbs and one panel of G's limbs, never a copy of G or a
    # product per coefficient of F
    s, m, k = 23, 23, 529
    rng = np.random.default_rng(15)
    F = rand_poly(rng, s, s, m - 1, P_BIG)
    G = rand_poly(rng, s, k, m - 1, P_BIG)
    tracemalloc.start()
    try:
        out = polymat_mul(F, G, P_BIG, 0, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2**21
