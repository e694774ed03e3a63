"""The benchmark's traced mode wraps library functions and operator methods
by name; a rename or a move must not silently zero its per-layer metrics.

perfbench/tracing.py is only imported here, never modified.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import blackbox_linalg.inverse as inverse
import blackbox_linalg.operators as operators
from blackbox_linalg import DiagonalOperator, InversionConfig, PrimeField

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# functions the harness still traces although the library deleted them
# (the scalar rank estimate gave way to the block sweep, the determinant's
# block generator to the block Wiedemann run in hankel); a traced run
# reports them as not traced
DELETED_FUNCTIONS = ("nullrank.wiedemann_minpoly", "nullrank.berlekamp_massey",
                     "determinant.block_generator")


def test_traced_functions_resolve_in_their_modules():
    for modname, fname, _span, _work in _tracing().FUNCTIONS:
        if f"{modname}.{fname}" in DELETED_FUNCTIONS:
            continue
        module = importlib.import_module(f"blackbox_linalg.{modname}")
        fn = getattr(module, fname, None)
        assert callable(fn), f"{modname}.{fname} is missing"
        assert fn.__module__ == module.__name__, f"{modname}.{fname} is not defined there"


def test_deleted_functions_are_absent():
    traced = {f"{modname}.{fname}" for modname, fname, _span, _work in _tracing().FUNCTIONS}
    for target in DELETED_FUNCTIONS:
        assert target in traced
        modname, fname = target.split(".")
        module = importlib.import_module(f"blackbox_linalg.{modname}")
        assert not hasattr(module, fname), f"{target} is back"


# operator families the harness still lists although the library has no
# such class; a traced run reports them as not traced
DELETED_FAMILIES = ("ToeplitzLowerUnit", "ToeplitzUpperUnit")


def test_traced_operator_families_define_apply_block():
    for clsname in _tracing().OPERATOR_FAMILIES:
        if clsname in DELETED_FAMILIES:
            continue
        cls = getattr(operators, clsname, None)
        assert cls is not None, f"operators.{clsname} is missing"
        assert "_apply_block" in vars(cls), f"{clsname} does not define _apply_block"


def test_deleted_operator_families_are_absent():
    families = _tracing().OPERATOR_FAMILIES
    for clsname in DELETED_FAMILIES:
        assert clsname in families
        assert not hasattr(operators, clsname), f"operators.{clsname} is back"


def test_traced_inverse_and_apply_inverse_record_their_phases():
    # the harness unpacks precondition's (B, D, U, unwrap) and traces the
    # fourth as inverse.unwrap: both entry points must record precondition,
    # unwrap and verify with no failed span, n = 10 padding to 12.  The
    # entry points are looked up when called, so that the wrappers apply
    tracing = _tracing()
    A = DiagonalOperator(np.arange(1, 11), PrimeField(2147483629))
    runs = {
        "inverse.blackbox_inverse":
            lambda: inverse.blackbox_inverse(A, InversionConfig(seed=0)),
        "inverse.blackbox_inverse_apply":
            lambda: inverse.blackbox_inverse_apply(
                A, np.arange(30).reshape(10, 3), InversionConfig(seed=0)),
    }
    original = inverse.precondition
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for solve, run in enumerate(runs.values()):
            with tracer.root(solve):
                run()
    finally:
        tracer.uninstall()
    assert inverse.precondition is original
    assert set(tracer.missing) <= {f"operators.{c}._apply_block"
                                   for c in DELETED_FAMILIES} | set(DELETED_FUNCTIONS)
    assert not [span[0] for span in tracer.spans if span[6]]
    for solve, entry in enumerate(runs):
        names = {span[0] for span in tracer.spans if span[4] == solve}
        assert {entry, "inverse.precondition", "inverse.unwrap",
                "inverse.verify"} <= names, entry
