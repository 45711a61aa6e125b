"""Every bellhv binding the benchmark tracer wraps still exists.

`perfbench/layers.py` wraps each (module, attribute) of `FUNCTIONS` and each
(module, class, method) of `METHODS` with `getattr` when a traced run starts,
so a renamed or deleted binding would fail every traced run.  The module is
loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = _layers()
# scipy's own minimize is counted too; every other entry is a bellhv binding
FUNCTION_BINDINGS = [entry[:2] for entry in _LAYERS.FUNCTIONS if entry[0] != "scipy.optimize"]
METHOD_BINDINGS = [entry[:3] for entry in _LAYERS.METHODS]


@pytest.mark.parametrize("module_name, attribute", FUNCTION_BINDINGS)
def test_function_binding_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute))


@pytest.mark.parametrize("module_name, class_name, method", METHOD_BINDINGS)
def test_method_binding_resolves(module_name, class_name, method):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert callable(getattr(cls, method))
