import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blackbox_linalg import (RunStats, read_matrix_market, to_dense_residues,
                             to_sparse_operator, PrimeField)
from blackbox_linalg import cli, hankel, nullrank
from blackbox_linalg.cli import run_command
from blackbox_linalg.errors import HankelSingular, Singular, SingularMatrix

from _oracles import bareiss_det


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
    d1["stats"].pop("wall_time"), d2["stats"].pop("wall_time")
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


def test_rank_below_field_bound(tmp_path):
    # rank n is certified by the Hankel certificate of the rank estimate's
    # own run, and a rank deficiency by one inverse attempt on the minor,
    # proved by the same certificate: neither has a field bound
    full = [(0, 0, 1), (1, 1, 2), (2, 2, 3), (0, 2, 1)]
    out = tmp_path / "n5.mtx"
    for triples, rank in ((full, 3), (full[:2] + full[3:], 2)):
        src = write_coordinate(tmp_path / f"r{rank}.mtx", 3, triples)
        for argv in (["rank"], ["nullspace", "--out", str(out)]):
            code, report = run_command(argv + [src, "--prime", "5"])
            assert code == 0, argv
            assert report.extra == {"rank": rank, "nullity": 3 - rank}
        A = np.zeros((3, 3), dtype=np.int64)
        for i, j, v in triples:
            A[i, j] = v
        N = to_dense_residues(read_matrix_market(out), PrimeField(5))
        assert N.shape == (3, 3 - rank)
        assert not (A @ N % 5).any()


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


def test_det_crt_takes_as_many_primes_as_large_entries_need(tmp_path):
    # 300-bit entries need about 80 word-size primes; a fixed supply of 64
    # once ended in an uncaught InsufficientPrimes
    rng = np.random.default_rng(17)
    M = [[int.from_bytes(rng.bytes(38), "big") >> 4 for _ in range(8)]
         for _ in range(8)]
    for i in range(8):
        M[i][(3 * i) % 8] *= -1
    src = write_coordinate(tmp_path / "big.mtx", 8,
                           [(i, j, M[i][j]) for i in range(8) for j in range(8)])
    code, report = run_command(["det", src, "--crt", "--json"])
    assert code == 0
    assert int(report.extra["det"]) == bareiss_det(M) != 0
    assert len(report.extra["crt_primes"]) > 64


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


def test_symmetric_nonsquare_rhs_exits_3(tmp_path):
    # a symmetric size line must be square; before, its entries were
    # mirrored outside the 3 x 1 shape
    src = write_coordinate(tmp_path / "id3.mtx", 3, [(i, i, 1) for i in range(3)])
    rhs = tmp_path / "sym.mtx"
    rhs.write_text("%%MatrixMarket matrix array integer symmetric\n"
                   "3 1\n1\n2\n3\n4\n5\n6\n")
    code, report = run_command(["apply-inverse", src, str(rhs)])
    assert (code, report) == (3, None)


def test_bench_small_grid():
    code, report = run_command(["bench", "invert", "--sizes", "16,32", "--json"])
    assert code == 0
    assert len(report.extra["counts"]) == 2
    assert report.extra["slope"] > 0.5


@pytest.mark.parametrize("sizes", ["16", "16,16"])
def test_bench_single_distinct_size_has_no_slope(sizes, capsys):
    # a fit through one point warned (a RuntimeWarning, an error here) and
    # reported a meaningless slope
    code, report = run_command(["bench", "invert", "--sizes", sizes])
    assert code == 0
    assert report.extra["slope"] is None
    assert len(report.extra["counts"]) == len(sizes.split(","))
    assert "slope=undefined" in capsys.readouterr().out


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


@pytest.mark.parametrize("argv", [["rank", "--out", "r.mtx"],
                                  ["nullspace", "--no-verify"],
                                  ["rank", "--no-verify"],
                                  ["det", "--out", "d.mtx"],
                                  ["det", "--out", "d.mtx", "--no-verify"],
                                  ["det", "--crt", "--no-verify"],
                                  ["rank", "--block-size", "2"],
                                  ["nullspace", "--block-size", "2"],
                                  ["det", "--crt", "--block-size", "2"],
                                  ["det", "--crt", "--confirm", "1"],
                                  ["invert", "--no-verify"],
                                  ["apply-inverse", "diag.mtx", "--no-verify"],
                                  ["det", "--confirm", "1"],
                                  ["invert", "--confirm", "1"]])
def test_flags_are_accepted_only_where_read(tmp_path, monkeypatch, argv):
    # --out is read by invert, apply-inverse and nullspace, --block-size by
    # invert, apply-inverse and det without --crt; anywhere else they are
    # usage errors, as are the flags of schema 2 that no command reads any
    # more, --no-verify and --confirm
    monkeypatch.chdir(tmp_path)
    src = write_coordinate(tmp_path / "diag.mtx", 3, [(i, i, i + 2) for i in range(3)])
    code, report = run_command(argv[:1] + [src] + argv[1:])
    assert (code, report) == (3, None)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diag.mtx"]


def test_json_reports_carry_schema_3_and_run_stats(tmp_path, monkeypatch, capsys):
    # every command reports one RunStats; the counts are those of the
    # operators the command made (det --crt makes its own, so it reports 0)
    n = 6
    src = write_coordinate(tmp_path / "a.mtx", n,
                           [(i, i, i + 2) for i in range(n)] + [(0, n - 1, 5)])
    rhs = write_array(tmp_path / "m.mtx", np.arange(2 * n).reshape(n, 2))
    made = []

    def counted_operator(data, field):
        made.append(to_sparse_operator(data, field))
        return made[-1]

    monkeypatch.setattr(cli, "to_sparse_operator", counted_operator)
    out = str(tmp_path / "out.mtx")
    runs = {"invert": ["invert", src, "--out", out],
            "apply-inverse": ["apply-inverse", src, rhs, "--out", out],
            "nullspace": ["nullspace", src, "--out", out],
            "rank": ["rank", src],
            "det": ["det", src],
            "det --crt": ["det", src, "--crt"]}
    # s = round(sqrt(6)) = 2 and m = 3 for the inverse and for the block
    # sweep of rank and nullspace; det reports no attempts, so no blocking
    blocking = {name: (2, 3) for name in ("invert", "apply-inverse", "nullspace", "rank")}
    extras = {"invert": [], "apply-inverse": [], "nullspace": ["nullity", "rank"],
              "rank": ["nullity", "rank"], "det": ["det"],
              "det --crt": ["crt_primes", "det"]}
    for name, argv in runs.items():
        made.clear()
        code, report = run_command(argv + ["--json"])
        assert code == 0, name
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert printed["schema_version"] == report.schema_version == 3
        assert sorted(printed["extra"]) == extras[name], name
        stats = report.stats
        assert isinstance(stats, RunStats)
        assert printed["stats"] == dataclasses.asdict(stats)
        assert sorted(printed["stats"]) == sorted(
            ["bb_apply_count", "bb_applies_last_attempt", "m", "retries", "s",
             "wall_time"])
        assert stats.bb_apply_count == sum(op.total_applications for op in made)
        assert (stats.bb_apply_count > 0) == (name != "det --crt"), name
        assert stats.retries == 0
        assert (stats.s, stats.m) == blocking.get(name, (0, 0)), name
        last = stats.bb_apply_count if name in ("invert", "apply-inverse",
                                                "nullspace", "rank") else 0
        assert stats.bb_applies_last_attempt == last, name
        assert stats.wall_time > 0
    assert made == []  # det --crt built no operator through the CLI


def test_failed_runs_report_their_stats(tmp_path, monkeypatch, capsys):
    # a run that applied A reports what it spent, whatever its exit code:
    # a certified singular input (1), and attempts that all degenerate (2:
    # for det every projection, for rank and nullspace every kernel read of
    # the nullity-1 input, whose bottom block is made singular); stats are
    # null only where A was never applied, the inverse's up-front field
    # bound and bench
    n = 6
    triples = [(i, i, i + 2) for i in range(n)] + [(0, n - 1, 5)]
    src = write_coordinate(tmp_path / "a.mtx", n, triples)
    singular = write_coordinate(tmp_path / "s.mtx", n,
                                [t for t in triples if t[0] != 2])
    rhs = write_array(tmp_path / "m.mtx", np.arange(2 * n).reshape(n, 2))
    made = []

    def counted_operator(data, field):
        made.append(to_sparse_operator(data, field))
        return made[-1]

    def degenerate(*args):
        raise HankelSingular("forced")

    def singular_bottom(*args):
        raise Singular(0)

    monkeypatch.setattr(cli, "to_sparse_operator", counted_operator)
    too_small = "failed: field size 5"
    # (argv, exit code, outcome, whether A is applied)
    runs = [(["invert", singular], 1, "singular", True),
            (["apply-inverse", singular, rhs], 1, "singular", True),
            (["nullspace", singular, "--retries", "2"], 2, "failed: 2 attempts", True),
            (["rank", singular, "--retries", "2"], 2, "failed: 2 attempts", True),
            (["det", src, "--retries", "2"], 2, "failed: 2 attempts", True),
            (["invert", src, "--prime", "5"], 2, too_small, False),
            (["bench", "invert", "--sizes", "16", "--prime", "5"], 2, too_small, False)]
    for argv, want_code, want_outcome, applies in runs:
        made.clear()
        with monkeypatch.context() as m:
            if argv[0] == "det":  # every projection degenerates
                m.setattr(hankel, "_family", degenerate)
            if argv[0] in ("nullspace", "rank"):  # every K_bot is singular
                m.setattr(nullrank, "dense_inverse", singular_bottom)
            code, report = run_command(argv + ["--json"])
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert (code, report.outcome) == (want_code, printed["outcome"]), argv
        assert report.outcome.startswith(want_outcome), argv
        applied = sum(op.total_applications for op in made)
        assert (applied > 0) == applies, argv
        if not applies:
            assert report.stats is None and printed["stats"] is None, argv
        else:
            assert report.stats.bb_apply_count == applied, argv
            assert 0 < report.stats.bb_applies_last_attempt <= applied, argv
            assert printed["stats"]["bb_apply_count"] == applied, argv


BANNER_WORDS = ("%%MatrixMarket", "%MatrixMarket", "matrix", "vector",
                "coordinate", "array", "integer", "real", "pattern", "complex",
                "general", "symmetric", "skew-symmetric", "hermitian", "", "x")
# size tokens stay small: a mutated size line must not ask for a huge matrix
SIZE_TOKENS = st.one_of(st.integers(-2, 5).map(str),
                        st.sampled_from(("", "x", "1.5", "3e0", "+2", "0x3")))
ENTRY_TOKENS = st.one_of(st.integers(-3, 9).map(str),
                         st.sampled_from(("", "x", "0.5", "2.0", "-0", "1e400000",
                                          "inf", "nan", "2147483629",
                                          "99999999999999999999999")))
FUZZ_COMMANDS = (["invert"], ["apply-inverse"], ["nullspace"], ["rank"],
                 ["det"], ["det", "--crt"])


@st.composite
def mutated_matrix_market(draw):
    """A valid n x n coordinate file with up to three tokens replaced in its
    banner, its size line or its entries; returns (n, text)."""
    n = draw(st.integers(1, 4))
    banner = "%%MatrixMarket matrix coordinate integer general".split()
    size = [str(n), str(n), str(n)]
    entries = [[str(i + 1), str(i + 1), str(draw(st.integers(1, 9)))]
               for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(("banner", "size", "entry")))
        if part == "banner":
            banner[draw(st.integers(0, 4))] = draw(st.sampled_from(BANNER_WORDS))
        elif part == "size":
            size[draw(st.integers(0, 2))] = draw(SIZE_TOKENS)
        else:
            entries[draw(st.integers(0, n - 1))][draw(st.integers(0, 2))] = \
                draw(ENTRY_TOKENS)
    lines = [" ".join(banner), " ".join(size)] + [" ".join(e) for e in entries]
    return n, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, database=None)
@given(mutated_matrix_market())
def test_mutated_matrix_market_keeps_exit_codes_and_report(case):
    n, text = case
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "a.mtx")
        src.write_text(text)
        rhs = write_array(Path(tmp, "m.mtx"), np.ones((n, 1), dtype=np.int64))
        for command in FUZZ_COMMANDS:
            argv = command[:1] + [str(src)] + ([rhs] if command[0] == "apply-inverse"
                                               else []) + command[1:] + ["--json"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, report = run_command(argv)
            assert code in (0, 1, 2, 3), argv
            if code == 3:
                assert report is None
                continue
            printed = json.loads(stdout.getvalue().splitlines()[-1])
            assert printed["schema_version"] == 3, argv
            # the default prime meets every field bound, so every run that
            # gets this far applies A and reports its stats, failed or not
            stats = printed["stats"]
            assert stats is not None, argv
            assert code == 0 or stats["bb_apply_count"] > 0, argv
