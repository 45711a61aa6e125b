"""scripts/claims.py: its verdicts, its numbers against frozen oracles, and the
README's verbatim copy of its stdout."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from _frozen import BELINFANTE, MC_BELINFANTE, MC_REFERENCE, REFERENCE, REGRESSIONS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "claims.py"
MODELS = {"reference": MC_REFERENCE, "cos^2": MC_BELINFANTE}


@pytest.fixture(scope="module")
def rows():
    """The script's rows as {(subject, quantity): (value, error, limit, verdict)}."""
    spec = importlib.util.spec_from_file_location("claims", SCRIPT)
    claims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(claims)
    return {(subject, quantity): tuple(rest) for _, subject, quantity, *rest in claims.rows()}


def _absorbing_deviation(rows, subject):
    """(quantity, row) of the one absorbing |pair - cos^2| row of `subject`."""
    (match,) = [(q, row) for (s, q), row in rows.items() if s == subject and "absorbing" in q]
    return match


@pytest.mark.parametrize("dim", [2, 4])
def test_unrestricted_limits_are_loose(rows, dim):
    value, gap, limit, verdict = rows[(f"unrestricted d={dim}", "<B>")]
    assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert limit == 2.0 * math.sqrt(3.0)
    assert 2.0 * math.sqrt(3.0) - 2.0 * math.sqrt(2.0) == pytest.approx(0.6357, abs=5e-5)
    assert verdict == "loose by 0.6357"
    assert rows[(f"unrestricted d={dim}", "<BB+>")][3] == "loose by 4.0000"


@pytest.mark.parametrize("regime", ["classical", "commuting"])
@pytest.mark.parametrize("dim", [2, 4])
def test_classical_and_commuting_limits_hold(rows, regime, dim):
    for quantity in ("<B>", "<BB+>"):
        value, gap, limit, verdict = rows[(f"{regime} d={dim}", quantity)]
        assert verdict == "holds"
        assert value == pytest.approx(limit, abs=1e-9)
        assert 0.0 <= gap < 1e-9  # the witness attains its own certificate


def test_reference_pair_curve_holds(rows):
    quantity, (value, _, limit, verdict) = _absorbing_deviation(rows, "reference")
    assert quantity == "|pair - cos^2| at 25 deg, absorbing"
    assert value == pytest.approx(REFERENCE["malus_residual"], abs=1e-6)
    assert f"{value:.4f}" == "0.0459"
    assert (limit, verdict) == (0.05, "holds")
    wrapped = rows[("reference", "|pair - cos^2| at 25 deg, wrapped")]
    assert wrapped[0] == pytest.approx(value, abs=1e-9)
    assert wrapped[3] == "holds"
    assert rows[("reference", "singles rate I")][0] == pytest.approx(
        REFERENCE["intensity_ratio"], abs=1e-9
    )


def test_cosine_squared_pair_curve_is_refuted(rows):
    quantity, (value, _, limit, verdict) = _absorbing_deviation(rows, "cos^2")
    angle = BELINFANTE["malus_residual_argmax_deg"]
    assert quantity == f"|pair - cos^2| at {angle} deg, absorbing"
    assert value == pytest.approx(BELINFANTE["malus_residual"], abs=1e-6)
    assert f"{value:.4f}" == "0.2367"
    assert (limit, verdict) == (0.05, "refuted")
    # wrapped, q11 = 1/4 + cos(2 alpha)/8 gives the ratio 1/3 at 90 degrees
    wrapped = rows[("cos^2", "|pair - cos^2| at 90 deg, wrapped")]
    assert wrapped[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert wrapped[3] == "refuted"


@pytest.mark.parametrize("subject", MODELS)
def test_only_the_limit_two_on_post_selected_s_is_refuted(rows, subject):
    frozen = MODELS[subject]
    assert rows[(subject, "S all events")][2:] == (2.0, "holds")
    assert rows[(subject, "S post-selected")][2:] == (2.0, "refuted")
    value, error, limit, verdict = rows[(subject, "S post-selected vs 2/I")]
    assert limit == pytest.approx(2.0 / frozen["singles_rate"], abs=1e-9)
    assert verdict == "holds"
    assert rows[(subject, "CH expression")][2:] == (0.0, "holds")


@pytest.mark.parametrize("subject", MODELS)
def test_monte_carlo_rows_agree_with_the_frozen_expectations(rows, subject):
    frozen = MODELS[subject]
    q11 = frozen["q11_settings"]
    expected = {
        "S all events": frozen["S_all"],
        "S post-selected": frozen["S_ps"],
        "CH expression": q11[0] + q11[1] + q11[2] - q11[3] - 2.0 * frozen["singles_rate"],
    }
    for quantity, oracle in expected.items():
        value, error = rows[(subject, quantity)][:2]
        assert abs(value - oracle) <= 5.0 * error, quantity


def test_post_selected_rows_are_the_frozen_seed_seven_runs(rows):
    frozen = REGRESSIONS["post_selection_separation"]
    assert rows[("reference", "S post-selected")][0] == pytest.approx(
        frozen["S_reference"], abs=1e-12
    )
    assert rows[("cos^2", "S post-selected")][0] == pytest.approx(
        frozen["S_belinfante"], abs=1e-12
    )


def test_script_imports_only_numpy_and_bellhv():
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in modules} == {"numpy", "bellhv"}


def test_readme_quotes_the_stdout_verbatim():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    stdout = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, check=True
    ).stdout
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(
        r"<!-- claims\.py stdout: begin -->\n```text\n(.*?)```\n<!-- claims\.py stdout: end -->",
        readme,
        re.S,
    )
    assert block is not None, "README lacks the claims block markers"
    assert block.group(1) == stdout
