"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Prints one row per (metric, workload): each side's run count, median and
quartiles, and for every end-to-end metric a verdict under the bound fixed
in BENCHMARK.json:

* unresolved - the base runs spread (interquartile range over median) wider
  than the bound, and not every new run reads better than every base run;
* worse      - the new median is worse than the base median by more than the
  bound;
* better     - the new side wins at least 9 in 10 runs paired by seed (in run
  order when the seeds differ) and the medians differ by more than the base
  interquartile range, or every new run beats every base run;
* unchanged  - otherwise.

Per-layer rows (from ``--trace 1`` runs) carry no bound and no verdict.
Exits 1 when any verdict is ``worse``.  Results from different machines are
not comparable; the recorded ``env`` says where each run was made.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(trace, workload): [record, ...]} in file order."""
    out = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["trace"], rec["workload"])].append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(base, new):
    """Values paired by seed when both sides ran the same seeds."""
    b = {r["seed"]: v for r, v in base}
    n = {r["seed"]: v for r, v in new}
    if set(b) == set(n):
        return [(b[s], n[s]) for s in sorted(b)]
    return list(zip((v for _, v in base), (v for _, v in new)))


def verdict(base, new, bound, better):
    """Verdict for one metric; ``base``/``new`` are [(record, value), ...]."""
    sign = 1 if better == "higher" else -1
    bv, nv = [v for _, v in base], [v for _, v in new]
    q1, mb, q3 = quartiles(bv)
    mn = statistics.median(nv)
    all_better = all(sign * (x - y) > 0 for x in nv for y in bv)
    if (q3 - q1) / mb > bound:
        return "better" if all_better else "unresolved"
    if sign * (mn - mb) / mb < -bound:
        return "worse"
    pairs = _pairs(base, new)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if all_better or (wins >= 0.9 * len(pairs) and sign * (mn - mb) > q3 - q1):
        return "better"
    return "unchanged"


def _row(metric, workload, base, new, unit, result):
    cells = [f"{metric:<40}", f"{workload:<16}"]
    for side in (base, new):
        q1, med, q3 = quartiles([v for _, v in side])
        cells.append(f"n={len(side):<3} {med:>12.6g} [{q1:.6g}, {q3:.6g}]")
    cells += [f"{unit:<6}", result]
    return "  ".join(cells)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, new = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]
    worse = False
    print(f"{'metric':<40}  {'workload':<16}  {'base: runs median [q1, q3]':<38}"
          f"  {'new: runs median [q1, q3]':<38}  unit    verdict")
    for trace, section, field in ((0, "end_to_end", "end_to_end"),
                                  (1, "per_layer", "per_layer")):
        for m in spec[section]:
            for wl in workloads:
                b = [(r, r[field][m["name"]]) for r in base.get((trace, wl), [])]
                n = [(r, r[field][m["name"]]) for r in new.get((trace, wl), [])]
                if not b or not n:
                    continue
                result = verdict(b, n, m["bound"], m["better"]) if "bound" in m else "-"
                worse |= result == "worse"
                print(_row(m["name"], wl, b, n, m["unit"], result))
    for wl in workloads:
        digests = defaultdict(set)
        for side in (base, new):
            for trace in (0, 1):
                for r in side.get((trace, wl), []):
                    digests[r["seed"]].add(r["inputs_sha256"])
        for seed, ds in sorted(digests.items()):
            if len(ds) > 1:
                print(f"WARNING {wl} seed {seed}: the two sides ran different inputs")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
