"""Traced mode: spans around the library's layer boundaries.

The wrappers are installed at run time from the benchmark's own files and
removed after each traced solve; the library itself is not changed.

Modules bind imported names at import time (``inverse`` holds its own
reference to ``hankel_inverse_apply``, ``hankel`` one to ``polymat_mul``),
so each wrapper is written into every module namespace of the package that
holds the original function, not only into the module that defines it.

Operator spans go around ``_apply_block`` of each leaf operator class as well
as around the public apply methods: ComposedOperator calls its factors'
``_apply_block`` directly, so wrapping only the public methods would hide the
butterfly, diagonal and Toeplitz work inside every preconditioned apply.

A span is ``[name, start, end, parent, solve, work, failed]``: ``parent`` is
the index of the enclosing span (-1 for none), ``work`` the columns applied
(operators) or the multiply-accumulates computed from operand shapes
(``matmul_mod``), and ``failed`` marks a call that raised.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import blackbox_linalg as bbl


def _columns(args):
    shape = np.shape(args[1])
    return shape[1] if len(shape) == 2 else 1


def _mac(args):
    a, b = np.shape(args[0]), np.shape(args[1])
    return a[0] * a[1] * b[1] if len(a) == 2 and len(b) == 2 else 0


# (defining module, function, span name, work from the call's arguments)
FUNCTIONS = [
    ("inverse", "blackbox_inverse", "inverse.blackbox_inverse", None),
    ("inverse", "blackbox_inverse_apply", "inverse.blackbox_inverse_apply", None),
    ("inverse", "precondition", "inverse.precondition", None),
    ("inverse", "verify_inverse", "inverse.verify", None),
    ("nullrank", "nullspace_rank", "nullrank.nullspace_rank", None),
    ("nullrank", "wiedemann_minpoly", "nullrank.minpoly", None),
    ("nullrank", "berlekamp_massey", "nullrank.berlekamp_massey", None),
    ("determinant", "det_mod_p", "determinant.det_mod_p", None),
    ("determinant", "block_generator", "determinant.block_generator", None),
    ("hankel", "hankel_inverse_rep", "hankel.inverse_rep", None),
    ("hankel", "hankel_inverse_apply", "hankel.inverse_apply", None),
    ("hankel", "_mbasis", "hankel.mbasis", None),
    ("polymat", "polymat_mul", "polymat.mul", None),
    ("field", "matmul_mod", "field.matmul_mod", _mac),
    ("dense", "dense_inverse", "dense.inverse", None),
    ("dense", "dense_det", "dense.det", None),
    ("projection", "krylov_apply_right", "projection.krylov_right", None),
    ("projection", "krylov_apply_left", "projection.krylov_left", None),
    ("projection", "u_contract", "projection.u_contract", None),
]

OPERATOR_FAMILIES = {
    "SparseOperator": "operators.sparse",
    "ButterflyOperator": "operators.butterfly",
    "DiagonalOperator": "operators.diagonal",
    "ToeplitzLowerUnit": "operators.toeplitz",
    "ToeplitzUpperUnit": "operators.toeplitz",
}
PUBLIC_APPLY = ("apply", "apply_transpose", "apply_matrix", "apply_transpose_matrix")
CALL = "operators.call"
ROOT = "solve"


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solve_id = -1
        self.missing = []
        self._undo = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   tracer.solve_id, work(args) if work else 0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    @contextmanager
    def root(self, solve_id: int):
        """The span of one whole solve; every library span nests in it."""
        self.solve_id = solve_id
        rec = [ROOT, time.perf_counter(), 0.0, -1, solve_id, 0, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "blackbox_linalg" or k.startswith("blackbox_linalg.")]
        for modname, fname, span, work in FUNCTIONS:
            orig = getattr(sys.modules.get(f"blackbox_linalg.{modname}"), fname, None)
            if orig is None:
                self._note_missing(f"{modname}.{fname}")
                continue
            new = self.wrap(span, orig, work)
            if fname == "precondition":
                new = self._with_traced_unwrap(new)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, new)
        base = bbl.BlackBoxOperator
        for meth in PUBLIC_APPLY:
            self._patch(base, meth, self.wrap(CALL, base.__dict__[meth]))
        for clsname, family in OPERATOR_FAMILIES.items():
            cls = getattr(bbl.operators, clsname, None)
            if cls is None or "_apply_block" not in cls.__dict__:
                self._note_missing(f"operators.{clsname}._apply_block")
                continue
            self._patch(cls, "_apply_block",
                        self.wrap(family, cls.__dict__["_apply_block"], _columns))
            if "apply_inverse_matrix" in cls.__dict__:
                inner = self.wrap(family, cls.__dict__["apply_inverse_matrix"], _columns)
                self._patch(cls, "apply_inverse_matrix", self.wrap(CALL, inner))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _note_missing(self, target):
        if target not in self.missing:
            self.missing.append(target)

    def _with_traced_unwrap(self, precondition):
        """precondition returns an ``unwrap`` closure; trace that as well."""
        unwrap_span = functools.partial(self.wrap, "inverse.unwrap")

        @functools.wraps(precondition)
        def traced(*args, **kwargs):
            B, D, U, unwrap = precondition(*args, **kwargs)
            return B, D, U, unwrap_span(unwrap)
        return traced

    def write(self, path):
        """Write every span as gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve",
                                  "work", "failed"], "spans": self.spans}, fh)


def _group(name: str) -> str:
    """The layer a span is charged to; the dense kernels form one layer."""
    return "dense" if name.startswith("dense.") else name


def summarize(spans):
    """Per-layer totals over all traced solves.

    Returns (solves, wall_s, busy_s, self_s, work, calls, failed, coverage):
    busy time counts only outermost spans of a layer, so a layer calling
    itself is not counted twice, and self time is a span's duration minus
    that of its direct children.
    """
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    open_groups = [frozenset()] * n
    busy, self_s, work = defaultdict(float), defaultdict(float), defaultdict(int)
    calls, failed = defaultdict(int), defaultdict(int)
    wall = covered = api = 0.0
    solves = 0
    for i, (name, start, end, parent, _solve, w, fail) in enumerate(spans):
        dur = end - start
        group = _group(name)
        outer = open_groups[parent] if parent >= 0 else frozenset()
        open_groups[i] = outer | {group}
        self_s[name] += dur - child_time[i]
        calls[name] += 1
        failed[name] += fail
        if group not in outer:
            busy[group] += dur
            work[group] += w
        if name == ROOT:
            solves += 1
            wall += dur
        elif parent >= 0 and spans[parent][0] == ROOT:
            api += dur
            covered += child_time[i]
    coverage = covered / api if api else 0.0
    return solves, wall, busy, self_s, work, calls, failed, coverage


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, overhead_frac: float):
    """The per-layer metrics of BENCHMARK.json, as (value, unit), from the
    recorded spans.

    Times are shares of the traced solve wall time (``*_frac``), so they
    compare across workloads of different length; counts are per solve.
    Also returns each layer's busy seconds per solve for the report.
    """
    solves, wall, busy, self_s, work, calls, failed, coverage = summarize(spans)
    frac = functools.partial(_ratio, den=wall)
    per = functools.partial(_ratio, den=solves)
    inverse_calls = ("inverse.blackbox_inverse", "inverse.blackbox_inverse_apply")
    accepted = sum(calls[k] - failed[k] for k in inverse_calls)
    gen = "determinant.block_generator"
    m = {}
    for fam in ("sparse", "butterfly", "diagonal", "toeplitz"):
        m[f"operators.{fam}.applies"] = per(work[f"operators.{fam}"])
        m[f"operators.{fam}.busy_frac"] = frac(busy[f"operators.{fam}"])
    m["operators.calls"] = per(calls[CALL])
    m["projection.krylov_right.busy_frac"] = frac(busy["projection.krylov_right"])
    m["projection.krylov_right.self_frac"] = frac(self_s["projection.krylov_right"])
    m["projection.krylov_left.busy_frac"] = frac(busy["projection.krylov_left"])
    m["projection.u_contract.busy_frac"] = frac(busy["projection.u_contract"])
    m["hankel.inverse_rep.busy_frac"] = frac(busy["hankel.inverse_rep"])
    m["hankel.inverse_rep.calls"] = per(calls["hankel.inverse_rep"])
    m["hankel.inverse_rep.failed"] = per(failed["hankel.inverse_rep"])
    m["hankel.inverse_apply.busy_frac"] = frac(busy["hankel.inverse_apply"])
    m["hankel.mbasis.busy_frac"] = frac(busy["hankel.mbasis"])
    m["polymat.mul.busy_frac"] = frac(busy["polymat.mul"])
    m["polymat.mul.calls"] = per(calls["polymat.mul"])
    m["field.matmul_mod.busy_frac"] = frac(busy["field.matmul_mod"])
    m["field.matmul_mod.calls"] = per(calls["field.matmul_mod"])
    m["field.matmul_mod.mac"] = per(work["field.matmul_mod"])
    m["dense.busy_frac"] = frac(busy["dense"])
    m["inverse.attempts"] = per(calls["inverse.precondition"])
    m["inverse.attempt_yield"] = _ratio(accepted, calls["inverse.precondition"])
    m["inverse.precondition.busy_frac"] = frac(busy["inverse.precondition"])
    m["inverse.unwrap.busy_frac"] = frac(busy["inverse.unwrap"])
    m["inverse.verify.busy_frac"] = frac(busy["inverse.verify"])
    m["inverse.self_frac"] = frac(sum(self_s[k] for k in inverse_calls))
    m["nullrank.attempts"] = per(calls["nullrank.minpoly"])
    m["nullrank.minpoly.busy_frac"] = frac(busy["nullrank.minpoly"])
    m["nullrank.berlekamp_massey.busy_frac"] = frac(busy["nullrank.berlekamp_massey"])
    m["determinant.block_generator.busy_frac"] = frac(busy[gen])
    m["determinant.block_generator.calls"] = per(calls[gen])
    m["determinant.generator_yield"] = _ratio(calls[gen] - failed[gen], calls[gen])
    m["trace.overhead_frac"] = overhead_frac
    m["trace.coverage"] = coverage
    seconds = {g: t / solves for g, t in sorted(busy.items()) if solves and g != ROOT}
    return {k: (v, "frac" if k.endswith(("_frac", "_yield", "coverage")) else "count")
            for k, v in m.items()}, seconds
