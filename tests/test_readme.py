"""The README's library quick start runs and its commented claims hold."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from bellhv.montecarlo import CANONICAL_ANGLES

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def quick_start_run():
    """(value of each bare expression in the first python block, by its
    source text; the block's namespace after it ran)."""
    source = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    return values, namespace


@pytest.fixture(scope="module")
def quick_start(quick_start_run):
    return quick_start_run[0]


def test_intensity_ratio(quick_start):
    assert quick_start["intensity_ratio(model)"] == pytest.approx(0.4431, abs=1e-4)


def test_worst_deviation_from_cos_squared(quick_start):
    assert quick_start["max(abs(normalized_pair_curve(model, grid) - malus(grid)))"] < 0.05


def test_commuting_search_attains_tsirelson(quick_start):
    value = quick_start["search_bound(Regime.COMMUTING_SUBSYSTEMS, dim=2).best_expectation"]
    assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_bound_report_within_its_limit(quick_start):
    assert quick_start["report.best_expectation <= report.theoretical_limit_expectation"]


def test_all_events_and_post_selected_chsh(quick_start_run):
    values, namespace = quick_start_run
    all_events, post_selected = values["(est_all.value, est_ps.value)"]
    # the commented claim: ~1.94 vs ~4.44, within 5 standard errors
    assert abs(all_events - 1.94) <= 5.0 * namespace["est_all"].stderr
    assert abs(post_selected - 4.44) <= 5.0 * namespace["est_ps"].stderr


def test_canonical_angles_as_listed():
    # the prose list "(a1, a2, b1, b2) = (0°, ...)" is the code's table in degrees
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"\(a1, a2, b1, b2\) = \(([^)]*)\)", text).group(1)
    degrees = [float(item.strip().rstrip("°").replace("\u2212", "-")) for item in listed.split(",")]
    assert degrees == np.rad2deg(CANONICAL_ANGLES).tolist()
