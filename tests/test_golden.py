"""Golden outputs: exact CLI output bytes and determinant values for one
fixed input and seed.

The digests were recorded once and must not move when the implementation is
restructured; a legitimate change of the randomized pipeline (a different
draw order, a different preconditioner) has to re-record them on purpose.
The input is 24 x 24 with blocking factor 5, so the padded embedding runs.
"""
import hashlib

import pytest

from blackbox_linalg.cli import run_command

N = 24
SEED = ["--seed", "11"]
COMMON = ["--block-size", "5"] + SEED  # nullspace and det --crt take SEED only
DEAD_ROWS = (3, 17)  # emptied in the singular variant

GOLDEN = {
    "invert": "de233ae6a7f4e231bbf1fa4980a00e1998be2aa70b7a8819b5ad68491d279640",
    "apply-inverse": "c4d329d43c960c3f834d700340c9858923dcbe71f99a5a77f939af493cea0f13",
    "nullspace": "1ad0a5c78056bdf3e609ef40452984db6ece0b9b666c3421af81e5c6e2f7d35f",
}
# black-box applications spent, as reported (the work must not move either)
GOLDEN_APPLIES = {"invert": 169, "apply-inverse": 72, "nullspace": 117}
GOLDEN_DET = {"det": "1306490667", "det-singular": "0",
              "det-crt": "-70113048840660053410436921285599785713664000"}


def _triples(singular=False):
    """Nonzero diagonal plus two off-diagonal entries per row, by formula."""
    out = {}
    for i in range(N):
        if singular and i in DEAD_ROWS:
            continue
        out[(i, i)] = 3 * i + 2
        out.setdefault((i, (5 * i + 7) % N), 11 * i + 5)
        out.setdefault((i, (7 * i + 3) % N), (-1) ** i * (13 * i + 1))
    return [(i, j, v) for (i, j), v in sorted(out.items()) if v]


def _write_coordinate(path, triples):
    with open(path, "wt") as f:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write(f"{N} {N} {len(triples)}\n")
        for i, j, v in triples:
            f.write(f"{i + 1} {j + 1} {v}\n")
    return str(path)


def _write_rhs(path, k=3):
    with open(path, "wt") as f:
        f.write("%%MatrixMarket matrix array integer general\n")
        f.write(f"{N} {k}\n")
        for j in range(k):
            for i in range(N):
                f.write(f"{(i * 31 + j * 17) % 97 - 40}\n")
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    return {"A": _write_coordinate(tmp_path / "a.mtx", _triples()),
            "S": _write_coordinate(tmp_path / "s.mtx", _triples(singular=True)),
            "M": _write_rhs(tmp_path / "m.mtx")}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_output_files(inputs, tmp_path):
    runs = {"invert": ["invert", inputs["A"]],
            "apply-inverse": ["apply-inverse", inputs["A"], inputs["M"]],
            "nullspace": ["nullspace", inputs["S"]]}
    got, applies = {}, {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.mtx"
        flags = SEED if name == "nullspace" else COMMON
        code, report = run_command(argv + flags + ["--out", str(out)])
        assert code == 0, name
        got[name] = _sha(out)
        applies[name] = report.stats.bb_apply_count
    assert got == GOLDEN
    assert applies == GOLDEN_APPLIES


def test_golden_determinants(inputs):
    got = {}
    for name, argv in (("det", ["det", inputs["A"]] + COMMON),
                       ("det-singular", ["det", inputs["S"]] + COMMON),
                       ("det-crt", ["det", inputs["A"], "--crt"] + SEED)):
        code, report = run_command(argv)
        assert code == 0, name
        got[name] = report.extra["det"]
    assert got == GOLDEN_DET


def test_golden_singular_invert_exit(inputs):
    code, report = run_command(["invert", inputs["S"]] + COMMON)
    assert code == 1
    assert report.outcome == "singular"
