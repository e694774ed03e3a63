import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blackbox_linalg.field as field
from blackbox_linalg import PrimeField, matmul_mod
from blackbox_linalg.errors import DimensionError, NotInvertible
from blackbox_linalg.field import is_probable_prime, reduce_in_place, reduce_mod

from _oracles import dense_mul_int, ext_euclid_inverse


def test_ff_inv_identity():
    assert PrimeField(7).inv(1) == 1


def test_ff_inv_known():
    assert PrimeField(7).inv(2) == 4  # 2*4 = 8 = 1 mod 7


def test_ff_inv_random_against_euclid_oracle():
    F = PrimeField(10007)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = int(rng.integers(1, F.p))
        b = F.inv(a)
        assert a * b % F.p == 1
        assert b == ext_euclid_inverse(a, F.p)


def test_ff_inv_zero_raises():
    with pytest.raises(NotInvertible):
        PrimeField(7).inv(0)


def test_ff_inv_involution():
    F = PrimeField(10007)
    rng = np.random.default_rng(1)
    for a in rng.integers(1, F.p, size=50):
        assert F.inv(F.inv(int(a))) == a


def test_prime_field_rejects_composite_and_small():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(1 << 31)  # beyond the word-size build constant


def test_is_probable_prime():
    assert is_probable_prime(2147483629)
    assert not is_probable_prime(2147483629 - 2)  # odd composite
    assert is_probable_prime(10007)


def test_inv_vec_matches_scalar():
    F = PrimeField(10007)
    rng = np.random.default_rng(2)
    a = rng.integers(1, F.p, size=64, dtype=np.int64)
    got = F.inv_vec(a)
    for x, y in zip(a, got):
        assert int(x) * int(y) % F.p == 1


def test_matmul_mod_exact_near_word_bound():
    # entries close to 2**31: the 16-bit split must stay exact
    p = 2147483629
    rng = np.random.default_rng(3)
    A = rng.integers(p - 10**6, p, size=(40, 70), dtype=np.int64)
    B = rng.integers(p - 10**6, p, size=(70, 30), dtype=np.int64)
    assert np.array_equal(matmul_mod(A, B, p), dense_mul_int(A, B, p))


def test_matmul_mod_shapes():
    with pytest.raises(DimensionError):
        matmul_mod(np.ones((2, 3), dtype=np.int64),
                   np.ones((2, 3), dtype=np.int64), 7)
    out = matmul_mod(np.zeros((3, 0), dtype=np.int64),
                     np.zeros((0, 4), dtype=np.int64), 7)
    assert out.shape == (3, 4) and not out.any()


KINDS = ("0", "1", "p-1", "uniform", "mixed")


def _residues(rng, shape, p, kind):
    """Entries 0, 1, p-1 or uniform; ``mixed`` picks one of these per entry."""
    picks = {"0": np.zeros(shape, dtype=np.int64),
             "1": np.ones(shape, dtype=np.int64),
             "p-1": np.full(shape, p - 1, dtype=np.int64),
             "uniform": rng.integers(0, p, size=shape, dtype=np.int64)}
    if kind != "mixed":
        return picks[kind]
    return np.choose(rng.integers(0, 4, size=shape), [picks[k] for k in KINDS[:4]])


@st.composite
def _residue_operands(draw):
    p = draw(st.sampled_from((3, 10007, 2147483629)))
    r, k, c = (draw(st.integers(1, 6)), draw(st.integers(0, 40)),
               draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = _residues(rng, (r, k), p, draw(st.sampled_from(KINDS)))
    B = _residues(rng, (k, c), p, draw(st.sampled_from(KINDS)))
    return A, B, p


@settings(max_examples=100, deadline=None, database=None)
@given(_residue_operands())
def test_matmul_mod_exact_property(operands):
    A, B, p = operands
    assert np.array_equal(matmul_mod(A, B, p), dense_mul_int(A, B, p))


@settings(max_examples=100, deadline=None, database=None)
@given(_residue_operands(), st.sampled_from((None, 2, 3)), st.integers(0, 2**32 - 1))
def test_limb_product_accumulates_into_residues(operands, max_inner, seed):
    # out <- out + A B with one reduction, and the plain product next to it,
    # also when a small MAX_INNER cuts the inner indices into chunks that
    # are accumulated in turn
    A, B, p = operands
    C = _residues(np.random.default_rng(seed), (A.shape[0], B.shape[1]), p, "mixed")
    L = field.left_limbs(A, p)
    R = field.right_limbs(B, np.empty((2 * B.shape[0], B.shape[1])))
    with pytest.MonkeyPatch.context() as mp:
        if max_inner:
            mp.setattr(field, "MAX_INNER", max_inner)
        acc = field.limb_product(L, R, p, C.copy(), accumulate=True)
        plain = field.limb_product(L, R, p, np.empty_like(C))
    want = dense_mul_int(A, B, p)
    assert np.array_equal(plain, want)
    assert np.array_equal(acc, (C + want) % p)


def test_matmul_mod_exact_past_chunk_bound():
    # inner dimension past MAX_INNER = 2**20 takes the chunked path; all
    # (p-1) entries give near-largest limb sums, and (p-1)**2 = 1 mod p
    p = 2147483629
    k = 2**20 + 5
    assert k > field.MAX_INNER
    A = np.full((1, k), p - 1, dtype=np.int64)
    B = np.full((k, 2), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_mod(A, B, p), np.full((1, 2), k % p))


def test_matmul_mod_exact_across_column_panels():
    # more columns than several panels hold, with a ragged last panel
    p = 2147483629
    rng = np.random.default_rng(4)
    A = _residues(rng, (3, 4), p, "mixed")
    B = _residues(rng, (4, field.PANEL_ELEMENTS // 4 + 5), p, "mixed")
    assert np.array_equal(matmul_mod(A, B, p), dense_mul_int(A, B, p))


def test_matmul_mod_exact_across_row_blocks():
    # a tall A is taken in blocks of isqrt(PANEL_ELEMENTS) // 2 = 128 rows
    # (here 128, 128 and a ragged 44), so a square product keeps its column
    # panels wide: 300 x 300 by 300 x 300 gets panels of 65536 // 1113 = 58
    # columns, not 65536 // 1801 = 36
    p = 2147483629
    rng = np.random.default_rng(6)
    A = _residues(rng, (300, 300), p, "mixed")
    B = _residues(rng, (300, 300), p, "mixed")
    got = matmul_mod(A, B, p)
    assert np.array_equal(got[:, :70], dense_mul_int(A, B[:, :70], p))
    assert np.array_equal(got[120:140], dense_mul_int(A[120:140], B, p))
    assert np.array_equal(got[-50:, -70:], dense_mul_int(A[-50:], B[:, -70:], p))


def test_matmul_mod_temporaries_bounded_by_panel_budget():
    # a wide product holds the output plus panel-sized temporaries, not
    # several output-sized ones
    p = 2147483629
    rng = np.random.default_rng(5)
    A = rng.integers(0, p, size=(64, 64), dtype=np.int64)
    B = rng.integers(0, p, size=(64, 65536), dtype=np.int64)
    tracemalloc.start()
    try:
        out = matmul_mod(A, B, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20
    assert np.array_equal(out[:, :7], dense_mul_int(A, B[:, :7], p))


def test_reduce_mod_matches_python_remainder():
    # floor division wraps in int64 near the ends of the range, and the
    # result is still exact: every value equals Python's %
    edges = [0, 1, -1, 2**62, -2**62, 2**62 - 1, -2**62 + 1,
             2**63 - 1, -2**63, -2**63 + 1]
    rng = np.random.default_rng(5)
    values = np.concatenate([np.array(edges, dtype=np.int64),
                             rng.integers(-2**62, 2**62, size=500, dtype=np.int64),
                             rng.integers(-10**6, 10**6, size=200, dtype=np.int64)])
    for p in (3, 65537, 2147483629):
        expect = [v % p for v in values.tolist()]
        assert reduce_mod(values, p).tolist() == expect
        block = values.reshape(-1, 10).copy()
        assert reduce_in_place(block, p) is block
        assert block.ravel().tolist() == expect
