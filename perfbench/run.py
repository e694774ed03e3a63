"""Solve benchmark for blackbox_linalg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs one workload against the library's public API in a closed loop with one
client: one process, one solve at a time, BLAS/OpenMP threads pinned to
THREADS.  Every answer is checked against independent oracles.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--out`` appends the full record
(environment, input digest, every metric) as one JSON line, the input of
``compare.py``.  Exits 1 when an answer is wrong, 2 when the library cannot
be imported from the checkout's ``src``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import numpy; "
                "sys.path.insert(0, sys.argv[1]); import blackbox_linalg; "
                "print(time.perf_counter() - t)")
WORKLOAD_NAMES = ("invert-512", "solve-thin-1024", "det-1024", "rank-mix-256")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append the full record as a JSON line")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_library():
    """Import numpy and the checkout's blackbox_linalg after pinning threads."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import blackbox_linalg
    except ImportError as exc:
        print(f"cannot import blackbox_linalg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    pkg = Path(blackbox_linalg.__file__).resolve()
    if (ROOT / "src") not in pkg.parents:
        print(f"blackbox_linalg imported from {pkg}, not from this checkout", file=sys.stderr)
        sys.exit(2)


def import_seconds():
    """Median time to import numpy and blackbox_linalg in fresh interpreters.

    The import is the one part of set-up a process cannot repeat, so it is
    timed in SETUP_REPEATS child interpreters, each run to completion."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def environment():
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "load": "closed loop, 1 client, 1 solve at a time",
    }


def run_solve(w, i):
    """Solve instance i once; returns (seconds, applications of A, failure)."""
    A = w.pool[i % len(w.pool)].op
    before = A.total_applications
    t0 = time.perf_counter()
    try:
        out = w.solve(i, w.config_seed(i))
    except Exception as exc:  # any unexpected error is a failed solve
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, A.total_applications - before, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, A.total_applications - before, w.check(i, out)


def measure(w, args, tracer):
    """Closed loop over whole rounds for at most ``seconds``.

    A round starts only while the previous round's duration still fits in
    the time left, so a run ends close to ``seconds`` instead of overrunning
    by a round; the first round always runs.  With a tracer every instance
    is solved twice, untraced then traced with the same randomness, so the
    pair gives the tracing overhead."""
    untraced, traced, failures = [], [], []
    i = 0
    start = time.perf_counter()
    last_round = 0.0
    while not untraced or time.perf_counter() - start + last_round <= args.seconds:
        round_start = time.perf_counter()
        for _ in range(w.round_size()):
            rec = run_solve(w, i)
            untraced.append(rec)
            if tracer is not None:
                tracer.install()
                try:
                    with tracer.root(i):
                        traced_rec = run_solve(w, i)
                finally:
                    tracer.uninstall()
                traced.append(traced_rec)
                if traced_rec[2]:
                    failures.append((i, f"traced: {traced_rec[2]}"))
            if rec[2]:
                failures.append((i, rec[2]))
            i += 1
        last_round = time.perf_counter() - round_start
    return untraced, traced, failures


def end_to_end(untraced, failed, setup_s, peak_rss_mb):
    times = [t for t, _, _ in untraced]
    ok = len(untraced) - failed
    return {
        "solves_per_s": (ok / sum(times), "1/s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "bb_applies_per_solve": (statistics.median(a for _, a, _ in untraced), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import tracing
    import workloads

    import_s = import_seconds()

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w = workloads.WORKLOADS[args.workload](args.seed)
        w.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    env = environment()
    digest = workloads.digest(w.pool)

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, failures = measure(w, args, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failures += w.finish()
    attempted = len(untraced)
    failed = len({i for i, _ in failures})

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": digest, "env": env,
              "import_s": import_s, "setup_repeats_s": setups,
              "attempted": attempted, "failed": failed,
              "failures": [f"solve {i}: {reason}" for i, reason in failures]}
    e2e = end_to_end(untraced, failed, setup_s, peak_rss_mb)
    record["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
    record["failed_frac"] = failed / attempted
    record["solve_s"] = [t for t, _, _ in untraced]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  solves {attempted}")
    print(f"inputs sha256 {digest}")
    print("solve seconds " + " ".join(f"{t:.4f}" for t, _, _ in untraced))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.6g} frac")
    if args.trace:
        layers, seconds = tracing.layer_metrics(
            tracer.spans, sum(t for t, _, _ in traced) / sum(t for t, _, _ in untraced) - 1)
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        record["layer_busy_s_per_solve"] = seconds
        record["untraced_targets"] = tracer.missing
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_file)
        print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
        if tracer.missing:
            print("not traced (target missing): " + ", ".join(tracer.missing))
        for name, (value, unit) in layers.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
        print("busy seconds per solve (inclusive, outermost spans):")
        for name, value in seconds.items():
            print(f"  {name:<40} {value:>14.6g} s")
    metrics = layers if args.trace else e2e
    for i, reason in failures:
        print(f"FAILED solve {i}: {reason}", file=sys.stderr)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
