import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellhv.angles import HALF_WINDOW, degrees_grid, reduce_axis_angle, require_deviation_angle
from bellhv.errors import AngleDomainError


class TestReduceAxisAngle:
    def test_zero_is_fixed(self):
        assert reduce_axis_angle(0.0) == 0.0

    def test_half_turn_wraps_to_zero(self):
        assert abs(reduce_axis_angle(math.pi)) < 1e-15
        assert abs(reduce_axis_angle(-math.pi)) < 1e-15

    def test_interior_values_unchanged(self):
        for delta in (-1.2, -0.3, 0.4, 1.5):
            assert reduce_axis_angle(delta) == delta

    def test_three_quarter_turn(self):
        assert reduce_axis_angle(3 * math.pi / 4) == pytest.approx(-math.pi / 4, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(AngleDomainError):
            reduce_axis_angle(float("nan"))
        with pytest.raises(AngleDomainError):
            reduce_axis_angle(float("inf"))

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_lands_in_window_and_preserves_axis(self, delta):
        reduced = reduce_axis_angle(delta)
        assert -HALF_WINDOW <= reduced <= HALF_WINDOW
        # same axis: differs from the input by an integer number of half-turns
        turns = (delta - reduced) / math.pi
        assert abs(turns - round(turns)) < 1e-6

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_idempotent(self, delta):
        once = reduce_axis_angle(delta)
        assert reduce_axis_angle(once) == pytest.approx(once, abs=1e-15)


class TestRequireDeviationAngle:
    def test_accepts_boundaries(self):
        assert require_deviation_angle(HALF_WINDOW, "x") == HALF_WINDOW
        assert require_deviation_angle(-HALF_WINDOW, "x") == -HALF_WINDOW

    def test_clips_roundoff_overshoot(self):
        assert require_deviation_angle(HALF_WINDOW + 1e-12, "x") == HALF_WINDOW

    def test_rejects_clear_overshoot(self):
        with pytest.raises(AngleDomainError):
            require_deviation_angle(HALF_WINDOW + 1e-6, "x")
        with pytest.raises(AngleDomainError):
            require_deviation_angle(-2.0, "x")

    def test_rejects_non_finite(self):
        with pytest.raises(AngleDomainError):
            require_deviation_angle(float("nan"), "x")

    def test_array_form(self):
        arr = np.array([0.0, 0.5, -HALF_WINDOW])
        out = require_deviation_angle(arr, "x")
        np.testing.assert_array_equal(out, arr)
        with pytest.raises(AngleDomainError):
            require_deviation_angle(np.array([0.0, 2.0]), "x")


class TestDegreesGrid:
    def test_standard_curve_grid(self):
        grid = degrees_grid(0.0, 90.0, 5.0)
        assert len(grid) == 19
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_grid_is_in_radians(self):
        np.testing.assert_allclose(
            degrees_grid(0.0, 90.0, 15.0), np.deg2rad([0, 15, 30, 45, 60, 75, 90])
        )

    def test_non_divisible_stop_truncates(self):
        np.testing.assert_allclose(degrees_grid(0.0, 10.0, 4.0), np.deg2rad([0.0, 4.0, 8.0]))

    def test_rejects_bad_steps_and_order(self):
        with pytest.raises(AngleDomainError):
            degrees_grid(0.0, 90.0, 0.0)
        with pytest.raises(AngleDomainError):
            degrees_grid(0.0, 90.0, -5.0)
        with pytest.raises(AngleDomainError):
            degrees_grid(10.0, 0.0, 5.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(AngleDomainError):
                degrees_grid(bad, 90.0, 5.0)
            with pytest.raises(AngleDomainError):
                degrees_grid(0.0, bad, 5.0)
