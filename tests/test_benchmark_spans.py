"""Every per-layer span that BENCHMARK.json lists names code that exists.

The benchmark's tracer times the public functions and methods of each
layer and reports a span ``<layer>.<Name>[.<method>]`` as
``.calls``, ``.s`` and ``.self_s``; a traced run exits 2 when a listed
span was never recorded.  Counters, ``<layer>.errors`` and ``trace.*`` are
no spans and are skipped.
"""

import importlib
import json
import pkgutil
import types
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPAN_METRICS = (".calls", ".s", ".self_s")


def _spans():
    names = (m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"])
    return sorted({n.rsplit(".", 1)[0] for n in names
                   if n.endswith(SPAN_METRICS) and not n.startswith("trace.")})


def _layer_modules(layer):
    root = importlib.import_module(f"semitoric.{layer}")
    found = [root]
    for info in pkgutil.walk_packages(getattr(root, "__path__", []), root.__name__ + "."):
        found.append(importlib.import_module(info.name))
    return found


def _written_in(fn, module) -> bool:
    # dataclass-generated methods are compiled from a string: the tracer
    # does not time them
    return isinstance(fn, types.FunctionType) and fn.__code__.co_filename == module.__file__


@pytest.mark.parametrize("span", _spans())
def test_benchmark_span_names_public_code(span):
    layer, name, *method = span.split(".")
    assert not name.startswith("_") and len(method) <= 1
    defined = [(mod, vars(mod)[name]) for mod in _layer_modules(layer)
               if getattr(vars(mod).get(name), "__module__", None) == mod.__name__]
    assert defined, f"no public {name} defined in semitoric.{layer}"
    mod, obj = defined[0]
    assert obj.__name__ == name     # the tracer names a span after the object
    if method:
        assert isinstance(obj, type) and not method[0].startswith("_")
        assert _written_in(vars(obj).get(method[0]), mod), f"{span} is no method of {name}"
    elif isinstance(obj, type):
        # a class span times its constructor
        assert _written_in(vars(obj).get("__init__"), mod), f"{name} writes no __init__"
    else:
        assert isinstance(obj, types.FunctionType)
