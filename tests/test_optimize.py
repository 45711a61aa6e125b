import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellhv.errors import ParameterError
from bellhv.optimize import MinimizeResult, minimize
from bellhv.rng import RngStream, SearchConfig


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.restarts == 8
        assert cfg.max_iterations == 400
        assert cfg.tolerance == 1e-10
        assert cfg.rng == RngStream(0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SearchConfig(restarts=0)
        with pytest.raises(ParameterError):
            SearchConfig(max_iterations=0)
        with pytest.raises(ParameterError):
            SearchConfig(tolerance=0.0)
        with pytest.raises(ParameterError):
            SearchConfig(rng=123)


class TestMinimize:
    def test_one_dimensional_parabola(self):
        result = minimize(lambda x: (x[0] - 3.0) ** 2, [0.0], SearchConfig(restarts=2))
        assert abs(result.x[0] - 3.0) < 1e-6
        assert result.converged

    def test_two_dimensional_bowl(self):
        result = minimize(lambda x: x[0] ** 2 + x[1] ** 2, [1.0, 1.0], SearchConfig(restarts=2))
        assert np.abs(result.x).max() < 1e-4
        assert result.value < 1e-8

    def test_deterministic_given_config(self):
        cfg = SearchConfig(restarts=4, rng=RngStream(5))
        f = lambda x: (x[0] - 1.0) ** 2 + 0.5 * np.sin(x[0]) ** 2
        r1 = minimize(f, [4.0], cfg)
        r2 = minimize(f, [4.0], cfg)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.value == r2.value
        assert r1.best_restart == r2.best_restart

    def test_restarts_escape_local_minimum(self):
        # double well with a shallow local minimum near +1.5 and the global
        # one near -1.5, shifted so they are not symmetric
        f = lambda x: (x[0] ** 2 - 2.25) ** 2 + 0.5 * x[0]
        local_only = minimize(f, [1.5], SearchConfig(restarts=1))
        assert local_only.x[0] > 0  # stuck in the nearby well
        multi = minimize(
            f, [1.5], SearchConfig(restarts=12, rng=RngStream(3)), perturbation=2.0
        )
        assert multi.value < local_only.value
        assert multi.x[0] < 0

    def test_non_converged_flag_on_tiny_budget(self):
        rosenbrock = lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        result = minimize(rosenbrock, [-1.2, 1.0], SearchConfig(restarts=1, max_iterations=3))
        assert not result.converged

    def test_validation(self):
        with pytest.raises(ParameterError):
            minimize(lambda x: 0.0, [], SearchConfig())
        with pytest.raises(ParameterError):
            minimize(lambda x: 0.0, [float("nan")], SearchConfig())

    def test_result_type(self):
        result = minimize(lambda x: x[0] ** 2, [1.0], SearchConfig(restarts=1))
        assert isinstance(result, MinimizeResult)
        assert isinstance(result.iterations, int)
        assert result.best_restart == 0


@given(
    c0=st.floats(min_value=-2.0, max_value=2.0),
    c1=st.floats(min_value=-2.0, max_value=2.0),
    x0=st.floats(min_value=-3.0, max_value=3.0),
    x1=st.floats(min_value=-3.0, max_value=3.0),
)
def test_never_worse_than_start(c0, c1, x0, x1):
    f = lambda x: (x[0] - c0) ** 2 * (x[1] - c1) ** 2 + 0.1 * np.cos(x[0]) + 0.1 * abs(x[1])
    start = np.array([x0, x1])
    result = minimize(f, start, SearchConfig(restarts=3, max_iterations=60, rng=RngStream(1)))
    assert result.value <= float(f(start)) + 1e-12
