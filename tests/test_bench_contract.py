"""The traced benchmark wraps program functions by name (bench/tracer.py
SPANS and COUNTS).  Every name must still resolve to something the tracer
can wrap, or a refactor silently breaks the traced run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Read the benchmark's file without leaving bytecode next to it.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()
TRACED = [(module, attr) for module, attr, _ in tracer.SPANS + tracer.COUNTS]


@pytest.mark.parametrize("module_name, attr", TRACED)
def test_traced_name_is_wrappable(module_name, attr):
    module = importlib.import_module(f"trackside.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        raw = vars(getattr(module, cls_name)).get(method)
        assert inspect.isfunction(raw) or isinstance(raw, classmethod), (
            f"{module_name}.{attr} is {raw!r}, not a method or classmethod"
        )
    else:
        assert inspect.isfunction(getattr(module, attr, None)), (
            f"{module_name}.{attr} is not a module-level function"
        )
