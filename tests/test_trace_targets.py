"""The benchmark's traced mode wraps library functions and operator methods
by name; a rename or a move must not silently zero its per-layer metrics.

perfbench/tracing.py is only imported here, never modified.
"""
import importlib
import importlib.util
from pathlib import Path

import blackbox_linalg.operators as operators

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_in_their_modules():
    for modname, fname, _span, _work in _tracing().FUNCTIONS:
        module = importlib.import_module(f"blackbox_linalg.{modname}")
        fn = getattr(module, fname, None)
        assert callable(fn), f"{modname}.{fname} is missing"
        assert fn.__module__ == module.__name__, f"{modname}.{fname} is not defined there"


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
