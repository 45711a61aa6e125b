"""The README's library quick start runs and its commented claims hold."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def quick_start():
    """Value of each bare expression in the first python block, by its source text."""
    source = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    return values


def test_intensity_ratio(quick_start):
    assert quick_start["intensity_ratio(model)"] == pytest.approx(0.4431, abs=1e-4)


def test_worst_deviation_from_cos_squared(quick_start):
    assert quick_start["max(abs(normalized_pair_curve(model, grid) - malus(grid)))"] < 0.05


def test_canonical_scenario_attains_tsirelson(quick_start):
    value = quick_start["max_expectation(canonical_chsh_scenario())"]
    assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_bound_report_within_its_limit(quick_start):
    assert quick_start["report.best_expectation <= report.theoretical_limit_expectation"]


def test_all_events_and_post_selected_chsh(quick_start):
    all_events, post_selected = quick_start["(est_all.value, est_ps.value)"]
    assert all_events < 0.5
    assert post_selected == pytest.approx(1.98, abs=0.03)
