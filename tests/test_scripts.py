"""Smoke test: each README experiment script runs to completion on tiny inputs."""

import csv
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


def test_transmission_curves_csv_writes_exact_degrees(tmp_path):
    # the degree column is start + step i: 7.5 and 15, not 7.499999999999999
    spec = importlib.util.spec_from_file_location(
        "transmission_curves", SCRIPTS / "transmission_curves.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "curves.csv"
    assert module.main(["--step", "7.5", "--csv", str(out)]) == 0
    with out.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    degrees = [row[1] for row in rows if row[0].startswith("stretched")]
    assert degrees[1] == "7.5"
    assert float(degrees[2]) == 15.0
    assert [float(deg) for deg in degrees] == [7.5 * i for i in range(13)]


def test_transmission_curves_stdout_prints_half_degrees(capsys):
    # a half-degree grid prints its degrees exactly: 7.5 and 52.5
    spec = importlib.util.spec_from_file_location(
        "transmission_curves", SCRIPTS / "transmission_curves.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--step", "7.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["deg"])
    degrees = [line[:7] for line in lines[header + 1 : header + 14]]
    assert degrees[:3] == ["      0", "    7.5", "     15"]
    assert degrees[7] == "   52.5"
    assert [float(deg) for deg in degrees] == [7.5 * i for i in range(13)]
