import io

import numpy as np
import pytest

from blackbox_linalg import (PrimeField, read_matrix_market, to_dense_residues,
                             to_sparse_operator, write_matrix_market_array)
from blackbox_linalg.errors import (IndexOutOfRange, MalformedHeader,
                                    MatrixMarketError,
                                    NonSquareWhereSquareRequired)

from _oracles import sparse_to_dense, write_matrix_market_coordinate

F7 = PrimeField(7)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_coordinate_identity(tmp_path):
    path = write(tmp_path, "id2.mtx", """%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 1
2 2 1
""")
    data = read_matrix_market(path)
    op = to_sparse_operator(data, F7)
    assert op.nnz == 2
    assert np.array_equal(sparse_to_dense(op), np.eye(2, dtype=np.int64))


def test_negative_entry_balanced_reduction(tmp_path):
    path = write(tmp_path, "neg.mtx", """%%MatrixMarket matrix coordinate integer general
2 2 1
1 2 -1
""")
    op = to_sparse_operator(read_matrix_market(path), F7)
    assert sparse_to_dense(op)[0, 1] == 6


def test_duplicates_summed_and_indices_converted(tmp_path):
    path = write(tmp_path, "dup.mtx", """%%MatrixMarket matrix coordinate integer general
2 2 3
1 1 2
1 1 3
2 1 4
""")
    data = read_matrix_market(path)
    assert data.triples == [(0, 0, 5), (1, 0, 4)]


def test_roundtrip_coordinate(tmp_path):
    rng = np.random.default_rng(100)
    n = 30
    seen = set()
    triples = []
    while len(triples) < 100:
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        triples.append((i, j, int(rng.integers(-50, 50)) or 1))
    path = tmp_path / "rt.mtx"
    with open(path, "wt") as f:
        write_matrix_market_coordinate(n, n, triples, f)
    first = path.read_bytes()
    data = read_matrix_market(path)
    assert sorted(data.triples) == sorted(triples)
    path2 = tmp_path / "rt2.mtx"
    with open(path2, "wt") as f:
        write_matrix_market_coordinate(n, n, data.triples, f)
    assert path2.read_bytes() == first


def test_array_format_column_major(tmp_path):
    path = write(tmp_path, "arr.mtx", """%%MatrixMarket matrix array integer general
2 3
1
2
3
4
5
6
""")
    data = read_matrix_market(path)
    M = to_dense_residues(data, PrimeField(10007))
    assert np.array_equal(M, np.array([[1, 3, 5], [2, 4, 6]]))


def test_array_roundtrip():
    M = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
    buf = io.StringIO()
    write_matrix_market_array(M, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "3 2"
    assert [int(x) for x in lines[2:]] == [1, 3, 5, 2, 4, 6]


def test_symmetric_coordinate(tmp_path):
    path = write(tmp_path, "sym.mtx", """%%MatrixMarket matrix coordinate integer symmetric
3 3 2
1 1 5
3 1 2
""")
    data = read_matrix_market(path)
    assert (2, 0, 2) in data.triples and (0, 2, 2) in data.triples


def test_pattern_coordinate(tmp_path):
    path = write(tmp_path, "pat.mtx", """%%MatrixMarket matrix coordinate pattern general
2 2 1
2 1
""")
    data = read_matrix_market(path)
    assert data.triples == [(1, 0, 1)]


def test_malformed_header(tmp_path):
    path = write(tmp_path, "bad.mtx", "%%NotMatrixMarket nonsense\n1 1 0\n")
    with pytest.raises(MalformedHeader):
        read_matrix_market(path)
    # size lines with a negative dimension
    for fmt, body in (("coordinate", "-2 -2 0\n"), ("coordinate", "2 -2 0\n"),
                      ("array", "-1 -1\n"), ("array", "-1 -1\n5\n")):
        path = write(tmp_path, "neg.mtx",
                     f"%%MatrixMarket matrix {fmt} integer general\n{body}")
        with pytest.raises(MalformedHeader):
            read_matrix_market(path)


def test_index_out_of_range(tmp_path):
    path = write(tmp_path, "oob.mtx", """%%MatrixMarket matrix coordinate integer general
2 2 1
3 1 9
""")
    with pytest.raises(IndexOutOfRange):
        read_matrix_market(path)


def test_nonsquare_rejected_for_operator(tmp_path):
    path = write(tmp_path, "rect.mtx", """%%MatrixMarket matrix coordinate integer general
2 3 1
1 1 1
""")
    with pytest.raises(NonSquareWhereSquareRequired):
        to_sparse_operator(read_matrix_market(path), F7)


def test_real_field_integral_values(tmp_path):
    path = write(tmp_path, "real.mtx", """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 3.0
2 2 -2e0
""")
    data = read_matrix_market(path)
    assert data.triples == [(0, 0, 3), (1, 1, -2)]
    path2 = write(tmp_path, "realbad.mtx", """%%MatrixMarket matrix coordinate real general
1 1 1
1 1 0.5
""")
    with pytest.raises(MalformedHeader):
        read_matrix_market(path2)


def test_real_values_parsed_exactly(tmp_path):
    # integral reals of any size keep every digit (2^53 + 1 is not a float);
    # inf, nan, overflowing and non-integral values are malformed input
    path = write(tmp_path, "exact.mtx", """%%MatrixMarket matrix array real general
2 1
9007199254740993.0
1e400
""")
    data = read_matrix_market(path)
    assert data.triples == [(0, 0, 9007199254740993), (1, 0, 10 ** 400)]
    for token in ("inf", "-inf", "nan", "1.5e-400", "1e99999", "0x10", "1/2"):
        bad = write(tmp_path, "bad.mtx",
                    f"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 {token}\n")
        with pytest.raises(MalformedHeader):
            read_matrix_market(bad)


def test_empty_matrix_rejected_for_operator(tmp_path):
    path = write(tmp_path, "empty.mtx",
                 "%%MatrixMarket matrix coordinate integer general\n0 0 0\n")
    with pytest.raises(MatrixMarketError):
        to_sparse_operator(read_matrix_market(path), F7)
