"""Smoke test: each README experiment script runs to completion on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name,argv",
    [
        pytest.param("bound_sweep", ["--seeds", "2"], id="bound_sweep"),
        pytest.param("transmission_curves", ["--step", "30"], id="transmission_curves"),
        pytest.param("estimator_comparison", ["--sizes", "1000"], id="estimator_comparison"),
    ],
)
def test_script_main_exits_zero(name, argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(argv) == 0
