"""The benchmark's tracer binds package functions by name; every name must resolve.

perfbench/workloads.LAYERS maps (module, attribute) pairs of heunqes to the
layers a traced run reports. A deleted or renamed function would only show up
as a crash of `perfbench/run.py --trace 1`, so the bindings are checked here.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads").LAYERS


def test_every_traced_layer_resolves(layers):
    assert layers
    for module_name, attr in layers:
        module = importlib.import_module(f"heunqes.{module_name}")
        assert callable(getattr(module, attr, None)), f"heunqes.{module_name}.{attr}"
