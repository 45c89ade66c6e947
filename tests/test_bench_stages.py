"""The benchmark tracer wraps srblab stages by name; every name must resolve."""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _stages():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.STAGES


@pytest.mark.parametrize("module,function", _stages())
def test_traced_stage_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"srblab.{module}"), function, None))
