"""Command-line surface: invert, apply-inverse, nullspace, rank, det, bench.

Exit codes: 0 success, 1 verified-negative (singular with certificate),
2 retries exhausted or a field too small for the size, 3 usage or input
errors, invalid flag values included.  Reports serialize
deterministically (sorted keys); given the same input and seed every
output matrix is byte-identical and every report field except
stats.wall_time is identical.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .determinant import det_integer_crt, det_mod_p, hadamard_bound, word_size_primes
from .errors import (FieldTooSmall, MatrixMarketError, RetriesExhausted,
                     SingularMatrix)
from .field import PrimeField
from .inverse import (InversionConfig, RunStats, blackbox_inverse,
                      blackbox_inverse_apply)
from .mmio import (read_matrix_market, to_dense_residues, to_sparse_operator,
                   write_matrix_market_array)
from .nullrank import nullspace_rank
from .operators import SparseOperator

DEFAULT_PRIME = 2147483629  # word-size prime just below 2**31
SCHEMA_VERSION = 2


@dataclass
class RunReport:
    command: str
    input_digest: str
    prime: int
    seed: int
    outcome: str
    stats: RunStats | None  # None when the run ended without a result
    schema_version: int = SCHEMA_VERSION
    extra: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _size_list(text: str) -> list:
    sizes = [int(x) for x in text.split(",") if x]
    if not sizes:
        raise ValueError("no sizes")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bbla", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, block=True, out=False, verify=False):
        p.add_argument("input", help="Matrix Market file")
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        if block:
            p.add_argument("--block-size", type=int, default=0,
                           help="blocking factor s (0 = auto)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--retries", type=int, default=8)
        if verify:
            p.add_argument("--no-verify", action="store_true")
        if out:
            p.add_argument("--out", help="write the result matrix here")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="print the run report as JSON")

    common(sub.add_parser("invert", help="dense inverse of a black-box matrix"),
           out=True, verify=True)
    p = sub.add_parser("apply-inverse", help="A^-1 M without materializing A^-1")
    common(p, out=True, verify=True)
    p.add_argument("rhs", help="Matrix Market file for M")
    common(sub.add_parser("nullspace", help="certified nullspace basis and rank"),
           block=False, out=True)
    common(sub.add_parser("rank", help="certified rank"), block=False)
    p = sub.add_parser("det", help="determinant mod p (or exact integer with --crt)")
    common(p)
    p.add_argument("--crt", action="store_true",
                   help="exact integer determinant via Chinese remaindering")
    p.add_argument("--confirm", type=int, default=0, metavar="K",
                   help="re-check the certified determinant with K extra independent runs")
    p = sub.add_parser("bench", help="operation-count sweep over a size grid")
    p.add_argument("what", choices=["invert"])
    p.add_argument("--sizes", type=_size_list, default="64,128,256,512")
    p.add_argument("--density", type=int, default=5, help="nonzeros per row")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=8)
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _settings(args):
    """The field and inversion config the flags ask for; invalid values are
    usage errors (exit 3), not failures of the run."""
    if args.command == "bench" and not 1 <= args.density <= min(args.sizes):
        raise _UsageError(f"--density must be in 1..{min(args.sizes)} "
                          "(at most the smallest size)")
    if args.command == "det" and args.confirm < 0:
        raise _UsageError("--confirm must be >= 0")
    if args.command == "det" and args.crt and (args.block_size or args.confirm):
        raise _UsageError("det --crt reads neither --block-size nor --confirm")
    try:
        field = PrimeField(args.prime)
        cfg = InversionConfig(s=getattr(args, "block_size", 0), seed=args.seed,
                              max_retries=args.retries,
                              verify=not getattr(args, "no_verify", False))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return field, cfg


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _write_matrix(M, out):
    if out:
        with open(out, "wt", encoding="utf-8") as f:
            write_matrix_market_array(M, f)
    else:
        write_matrix_market_array(M, sys.stdout)


def _report(args, command, digest, outcome, stats=None, extra=None) -> RunReport:
    return RunReport(command=command, input_digest=digest, prime=args.prime,
                     seed=args.seed, outcome=outcome, stats=stats,
                     extra=extra or {})


def random_sparse_operator(n: int, density: int, field: PrimeField, rng) -> SparseOperator:
    """Random sparse test matrix: nonzero diagonal plus ~(density-1) random
    off-diagonal entries per row (so density <= n)."""
    if density > n:
        raise ValueError(f"density {density} does not fit an {n} x {n} matrix")
    triples = {(i, i): int(rng.integers(1, field.p)) for i in range(n)}
    extra = (density - 1) * n
    while extra > 0:
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if (i, j) in triples:
            continue
        triples[(i, j)] = int(rng.integers(1, field.p))
        extra -= 1
    return SparseOperator(n, [(i, j, v) for (i, j), v in triples.items()], field)


def _cmd_bench(args, field, cfg):
    """Per-size application counts on random invertible instances; each size
    draws at most ``--retries`` instances."""
    sizes = args.sizes
    counts = []
    t0 = time.perf_counter()
    for idx, n in enumerate(sizes):
        per_size_seed = args.seed + 1000003 * idx
        rng = np.random.default_rng(per_size_seed)
        for _ in range(cfg.max_retries):
            A = random_sparse_operator(n, args.density, field, rng)
            try:
                res = blackbox_inverse(A, replace(cfg, seed=per_size_seed))
                break
            except (SingularMatrix, RetriesExhausted):
                continue
        else:
            raise RetriesExhausted(
                f"no invertible size-{n} instance in {cfg.max_retries} draws")
        counts.append(res.stats.bb_applies_last_attempt)
    slope, shown = None, "undefined (fewer than two distinct sizes)"
    if len(set(sizes)) > 1:
        slope = float(np.polyfit(np.log(sizes), np.log(counts), 1)[0])
        shown = f"{slope:.3f}"
    report = _report(
        args, "bench invert", "", "ok",
        RunStats(bb_apply_count=sum(counts), wall_time=time.perf_counter() - t0),
        {"sizes": sizes, "counts": counts, "slope": slope, "density": args.density})
    print(report.to_json() if args.as_json
          else f"sizes={sizes} per-attempt counts={counts} slope={shown}")
    return 0, report


def _outcome(args, command, digest, code, outcome, message=None):
    """Exit code and report of a run that ended without a result."""
    report = _report(args, command, digest, outcome)
    if args.as_json:
        print(report.to_json())
    else:
        print(message or outcome, file=sys.stderr)
    return code, report


def run_command(argv):
    """Parse and execute; returns (exit_code, RunReport or None)."""
    try:
        args = build_parser().parse_args(argv)
        field, cfg = _settings(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3, None
    if args.command == "bench":
        try:
            return _cmd_bench(args, field, cfg)
        except (RetriesExhausted, FieldTooSmall) as exc:
            return _outcome(args, "bench invert", "", 2, f"failed: {exc}")
    try:
        data = read_matrix_market(args.input)
    except (OSError, MatrixMarketError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3, None
    digest_paths = [args.input]
    if args.command == "apply-inverse":
        digest_paths.append(args.rhs)
    try:
        digest = _digest(*digest_paths)
        if args.command in ("invert", "apply-inverse", "nullspace", "rank"):
            A = to_sparse_operator(data, field)
        if args.command == "invert":
            res = blackbox_inverse(A, cfg)
            _write_matrix(res.matrix, args.out)
            report = _report(args, "invert", digest, "ok", res.stats,
                             {"verified": not args.no_verify})
        elif args.command == "apply-inverse":
            rhs = read_matrix_market(args.rhs)
            if rhs.rows != data.rows:
                print("input error: RHS row count mismatch", file=sys.stderr)
                return 3, None
            M = to_dense_residues(rhs, field)
            res = blackbox_inverse_apply(A, M, cfg)
            _write_matrix(res.matrix, args.out)
            report = _report(args, "apply-inverse", digest, "ok", res.stats,
                             {"verified": not args.no_verify})
        elif args.command in ("nullspace", "rank"):
            cert = nullspace_rank(A, cfg)
            if args.command == "nullspace":
                _write_matrix(cert.nullspace, args.out)
            report = _report(args, args.command, digest, "ok", cert.stats,
                             {"rank": cert.rank, "nullity": A.n - cert.rank})
        elif args.command == "det":
            report = _cmd_det(args, data, field, cfg, digest)
        if args.as_json:
            print(report.to_json())
        return 0, report
    except SingularMatrix:
        return _outcome(args, args.command, digest, 1, "singular",
                        "matrix is singular (certified)")
    except (RetriesExhausted, FieldTooSmall) as exc:
        return _outcome(args, args.command, digest, 2, f"failed: {exc}")
    except MatrixMarketError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3, None


def _cmd_det(args, data, field, cfg, digest):
    data.require_square()
    t0 = time.perf_counter()
    if args.crt:
        bound = hadamard_bound(data.rows, data.triples)
        # each prime exceeds 2**30, so this many always reach 2 * bound
        primes = []
        prod = 1
        for q in word_size_primes((2 * bound).bit_length() // 30 + 1):
            primes.append(q)
            prod *= q
            if prod > 2 * bound:
                break
        value = det_integer_crt(data.rows, data.triples, primes,
                                seed=args.seed, max_retries=args.retries)
        extra = {"det": str(value), "crt_primes": primes, "monte_carlo": True}
        applies = 0  # the operators of each prime are made inside det_integer_crt
    else:
        A = to_sparse_operator(data, field)
        value = det_mod_p(A, cfg)
        for k in range(args.confirm):
            if det_mod_p(A, replace(cfg, seed=args.seed + 7919 * (k + 1))) != value:
                raise RetriesExhausted("independent determinant runs disagree")
        extra = {"det": str(value), "monte_carlo": True, "confirm": args.confirm}
        applies = A.total_applications
    if not args.as_json:
        print(value)
    return _report(args, "det", digest, "ok", RunStats(
        bb_apply_count=applies, wall_time=time.perf_counter() - t0), extra)


def main(argv=None) -> int:
    code, _ = run_command(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
