"""The traced benchmark wraps program functions by name (bench/tracer.py
SPANS and COUNTS).  Every name must still resolve to something the tracer
can wrap, or a refactor silently breaks the traced run."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


# Arguments that bench/tracer.py reads by position, as (module, function,
# position, parameter); a method's position counts ``self`` or ``cls``.
POSITIONAL = [
    ("pathloss", "detection_range", 1, "threshold_dbm"),
    ("pathloss", "detection_range", 2, "materials"),
    ("rendezvous", "detection_probability_oracle", 3, "trials"),
    ("protocol", "merge_detections", 1, "decoded"),
    ("protocol", "DetectionStore.load", 1, "path"),
    ("protocol", "DetectionStore.save", 1, "path"),
]


def _raw(module_name, attr):
    """The function the tracer wraps, unbound."""
    module = importlib.import_module(f"trackside.{module_name}")
    if "." not in attr:
        return getattr(module, attr, None)
    cls_name, method = attr.split(".")
    return vars(getattr(module, cls_name)).get(method)


@pytest.mark.parametrize("module_name, attr, position, name", POSITIONAL)
def test_traced_argument_position(module_name, attr, position, name):
    raw = _raw(module_name, attr)
    params = list(inspect.signature(getattr(raw, "__func__", raw)).parameters)
    assert params[position:position + 1] == [name], (
        f"{module_name}.{attr} takes {params}; the tracer reads {name!r} at {position}"
    )


@pytest.mark.parametrize("module_name, attr", TRACED)
def test_traced_name_is_wrappable(module_name, attr):
    raw = _raw(module_name, attr)
    if "." in attr:
        assert inspect.isfunction(raw) or isinstance(raw, classmethod), (
            f"{module_name}.{attr} is {raw!r}, not a method or classmethod"
        )
    else:
        assert inspect.isfunction(raw), (
            f"{module_name}.{attr} is not a module-level function"
        )


def test_cli_import_loads_every_traced_layer():
    # tracer.install wraps sys.modules["trackside.<layer>"]; run in a new
    # interpreter, since this one has imported every layer already.
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    probe = "import json, sys, trackside.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert [m for m in tracer.LAYERS if f"trackside.{m}" not in loaded] == []
