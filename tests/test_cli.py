import json

import numpy as np
import pytest

from blackbox_linalg import read_matrix_market, to_dense_residues, PrimeField
from blackbox_linalg import cli
from blackbox_linalg.cli import run_command
from blackbox_linalg.errors import SingularMatrix


def write_coordinate(path, n, triples):
    with open(path, "wt") as f:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write(f"{n} {n} {len(triples)}\n")
        for i, j, v in triples:
            f.write(f"{i + 1} {j + 1} {v}\n")
    return str(path)


def write_array(path, M):
    with open(path, "wt") as f:
        f.write("%%MatrixMarket matrix array integer general\n")
        f.write(f"{M.shape[0]} {M.shape[1]}\n")
        for j in range(M.shape[1]):
            for i in range(M.shape[0]):
                f.write(f"{int(M[i, j])}\n")
    return str(path)


@pytest.fixture
def identity_fixture(tmp_path):
    return write_coordinate(tmp_path / "id.mtx", 4, [(i, i, 1) for i in range(4)])


def read_result(path):
    return to_dense_residues(read_matrix_market(path), PrimeField(2147483629))


def test_invert_identity(identity_fixture, tmp_path):
    out = tmp_path / "out.mtx"
    code, report = run_command(["invert", identity_fixture, "--out", str(out)])
    assert code == 0
    assert report.outcome == "ok"
    assert np.array_equal(read_result(out), np.eye(4, dtype=np.int64))


def test_invert_random_and_determinism(tmp_path):
    rng = np.random.default_rng(110)
    n = 8
    triples = [(i, i, int(rng.integers(1, 1000))) for i in range(n)]
    triples += [(int(rng.integers(0, n - 1)), n - 1, 7)]
    triples = list({(i, j): (i, j, v) for i, j, v in triples}.values())
    src = write_coordinate(tmp_path / "a.mtx", n, triples)
    out1, out2 = tmp_path / "o1.mtx", tmp_path / "o2.mtx"
    code1, rep1 = run_command(["invert", src, "--seed", "3", "--out", str(out1), "--json"])
    code2, rep2 = run_command(["invert", src, "--seed", "3", "--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical outputs
    d1, d2 = json.loads(rep1.to_json()), json.loads(rep2.to_json())
    d1.pop("wall_time"), d2.pop("wall_time")
    assert d1 == d2


def test_apply_inverse_cli(tmp_path):
    n = 6
    src = write_coordinate(tmp_path / "a.mtx", n,
                           [(i, i, i + 2) for i in range(n)])
    rhs = write_array(tmp_path / "m.mtx", np.eye(n, dtype=np.int64))
    out = tmp_path / "x.mtx"
    code, report = run_command(["apply-inverse", src, rhs, "--out", str(out)])
    assert code == 0
    X = read_result(out)
    p = 2147483629
    expect = np.diag([pow(i + 2, p - 2, p) for i in range(n)]).astype(np.int64)
    assert np.array_equal(X, expect)


def test_rank_command(tmp_path):
    src = write_coordinate(tmp_path / "r.mtx", 4, [(0, 0, 1), (1, 1, 1)])
    code, report = run_command(["rank", src, "--json"])
    assert code == 0
    assert report.extra["rank"] == 2


def test_nullspace_command(tmp_path):
    src = write_coordinate(tmp_path / "n.mtx", 4, [(0, 0, 1), (1, 1, 1)])
    out = tmp_path / "null.mtx"
    code, report = run_command(["nullspace", src, "--out", str(out)])
    assert code == 0
    N = read_result(out)
    assert N.shape == (4, 2)
    assert not N[:2].any()


def test_det_command(tmp_path):
    src = write_coordinate(tmp_path / "d.mtx", 3,
                           [(0, 0, 2), (1, 1, 3), (2, 2, 5)])
    code, report = run_command(["det", src, "--json"])
    assert code == 0
    assert report.extra["det"] == "30"


def test_det_crt_command(tmp_path):
    src = write_coordinate(tmp_path / "dc.mtx", 2,
                           [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    code, report = run_command(["det", src, "--crt"])
    assert code == 0
    assert report.extra["det"] == "1"


def test_det_confirm(tmp_path):
    src = write_coordinate(tmp_path / "d2.mtx", 4,
                           [(i, i, 2) for i in range(4)])
    code, report = run_command(["det", src, "--confirm", "2", "--json"])
    assert code == 0
    assert report.extra["det"] == "16"
    assert report.extra["confirm"] == 2


def test_det_negative_confirm_is_usage_error(tmp_path):
    src = write_coordinate(tmp_path / "d3.mtx", 2, [(0, 0, 2), (1, 1, 3)])
    code, report = run_command(["det", src, "--confirm", "-3"])
    assert (code, report) == (3, None)


def test_singular_exit_code(tmp_path):
    src = write_coordinate(tmp_path / "s.mtx", 3,
                           [(0, 0, 1), (1, 0, 1)])  # rank 1
    code, report = run_command(["invert", src, "--retries", "2"])
    assert code == 1
    assert report.outcome == "singular"


def test_usage_and_input_errors(tmp_path):
    code, _ = run_command(["invert"])  # missing input
    assert code == 3
    code, _ = run_command(["invert", str(tmp_path / "missing.mtx")])
    assert code == 3
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix market file\n")
    code, _ = run_command(["invert", str(bad)])
    assert code == 3


def test_no_verify_echoed(tmp_path, identity_fixture):
    code, report = run_command(["invert", identity_fixture, "--no-verify",
                                "--out", str(tmp_path / "o.mtx")])
    assert code == 0
    assert report.extra["verified"] is False


def test_bench_small_grid():
    code, report = run_command(["bench", "invert", "--sizes", "16,32", "--json"])
    assert code == 0
    assert len(report.extra["counts"]) == 2
    assert report.extra["slope"] > 0.5


@pytest.mark.parametrize("flag,value", [("--retries", "0"), ("--prime", "4"),
                                        ("--block-size", "-3")])
def test_invalid_flag_values_are_usage_errors(identity_fixture, flag, value):
    code, report = run_command(["invert", identity_fixture, flag, value])
    assert code == 3
    assert report is None


def test_bench_invalid_flag_values_are_usage_errors():
    code, _ = run_command(["bench", "invert", "--sizes", "16", "--retries", "0"])
    assert code == 3
    code, _ = run_command(["bench", "invert", "--sizes", "16,x"])
    assert code == 3


def test_bench_density_that_cannot_be_placed_exits_3():
    # a 4 x 4 matrix has 12 off-diagonal slots; density 5 asks for 16
    code, report = run_command(["bench", "invert", "--sizes", "4"])
    assert code == 3
    assert report is None


def test_bench_field_too_small_exits_2():
    code, report = run_command(["bench", "invert", "--sizes", "16", "--prime", "5"])
    assert code == 2
    assert report.outcome.startswith("failed: field size 5")


def test_bench_gives_up_after_retries(monkeypatch):
    calls = []

    def always_singular(A, cfg):
        calls.append(cfg.seed)
        raise SingularMatrix(np.ones(A.n, dtype=np.int64))

    monkeypatch.setattr(cli, "blackbox_inverse", always_singular)
    code, report = run_command(["bench", "invert", "--sizes", "16",
                                "--retries", "3", "--json"])
    assert code == 2
    assert report.outcome.startswith("failed: no invertible")
    assert len(calls) == 3


def test_real_entries_exact_and_unrepresentable_ones_exit_3(tmp_path):
    src = tmp_path / "real.mtx"
    src.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 9007199254740993.0\n2 2 1\n")
    code, report = run_command(["det", str(src), "--json"])
    assert code == 0
    assert report.extra["det"] == str(9007199254740993 % 2147483629)
    for token in ("inf", "1e400000", "nan", "0.5"):
        src.write_text("%%MatrixMarket matrix coordinate real general\n"
                       f"1 1 1\n1 1 {token}\n")
        code, report = run_command(["det", str(src)])
        assert (code, report) == (3, None), token


@pytest.mark.parametrize("command", ["invert", "nullspace", "rank", "det"])
def test_empty_matrix_exits_3(tmp_path, command):
    # an empty matrix and size lines with negative dimensions
    for fmt, body in (("coordinate", "0 0 0\n"), ("coordinate", "-2 -2 0\n"),
                      ("array", "-1 -1\n"), ("array", "-1 -1\n5\n")):
        src = tmp_path / "empty.mtx"
        src.write_text(f"%%MatrixMarket matrix {fmt} integer general\n{body}")
        code, report = run_command([command, str(src)])
        assert (code, report) == (3, None), (fmt, body)
