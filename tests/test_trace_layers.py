"""The benchmark tracer's layer list names functions qsell still defines.

``bench/trace.py`` wraps every function in its ``LAYERS`` table and
reads some call arguments by position.  A refactor that drops one of
those functions or moves one of those arguments should fail here, not in
a traced benchmark run.  The tracer is loaded by file path: a plain
``import trace`` would find the standard library module.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("qsell_bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(dotted):
    module, name = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(f"qsell.{module}"), name, None)


def test_every_traced_layer_is_defined():
    layers = _trace_module().LAYERS
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(_function(f"{module}.{name}"))
    ]
    assert not missing


@pytest.mark.parametrize(
    "dotted, arg, position",
    [
        ("mechanism.interim_tables", "curves", 1),
        ("dist.sublevel_integral", "grid", 0),
        ("dist.sublevel_integral", "c", 3),
        ("dist.sublevel_mass", "d", 0),
        ("dist.sublevel_mass", "c", 2),
        ("dist.quantile", "u", 1),
        ("mechanism.allocate_many", "qualities", 2),
        ("revenue.best_constant_price", "inst", 0),
    ],
)
def test_traced_arguments_keep_their_positions(dotted, arg, position):
    params = list(inspect.signature(_function(dotted)).parameters)
    assert params.index(arg) == position
