import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _frozen import BELINFANTE, REFERENCE, REGRESSIONS, STEEP
from bellhv.errors import ParameterError
from bellhv.malusfit import FIT_QUADRATURE, FIT_SEARCH, FitResult, OBJECTIVES, fit, residual
from bellhv.rng import RngStream, SearchConfig
from bellhv.transmission import (
    REFERENCE_PARAMS,
    CosineSquaredModel,
    StretchedExponentialModel,
    TransmissionParams,
    default_angle_grid,
    malus,
    normalized_pair_curve,
)

STEEP_PARAMS = TransmissionParams(a=1.95, e=3.56, c=500.0)
LIGHT_SEARCH = SearchConfig(restarts=1, max_iterations=60, tolerance=1e-6, rng=RngStream(0))


class TestResidual:
    def test_reference_profile_residual(self):
        value = residual(REFERENCE_PARAMS)
        assert value == pytest.approx(REFERENCE["malus_residual"], abs=1e-9)

    def test_cosine_squared_baseline_residual(self):
        value = residual(CosineSquaredModel())
        assert value == pytest.approx(BELINFANTE["malus_residual"], abs=1e-9)
        assert value > 0.1

    def test_steep_profile_residual(self):
        value = residual(STEEP_PARAMS)
        assert value == pytest.approx(STEEP["malus_residual"], abs=1e-9)

    def test_reference_worst_angle(self):
        grid = default_angle_grid()
        deviations = np.abs(
            normalized_pair_curve(StretchedExponentialModel(REFERENCE_PARAMS), grid)
            - malus(grid)
        )
        worst_deg = np.rad2deg(grid[int(np.argmax(deviations))])
        assert worst_deg == pytest.approx(REFERENCE["malus_residual_argmax_deg"], abs=1e-9)

    def test_far_start_point_residual(self):
        value = residual(TransmissionParams(a=1.0, e=2.0, c=100.0))
        assert value == pytest.approx(REGRESSIONS["residual_at_far_start_point"], abs=1e-9)

    def test_grid_order_and_duplicates_do_not_change_chebyshev(self):
        grid = default_angle_grid()
        base = residual(REFERENCE_PARAMS, grid=grid, spec=FIT_QUADRATURE)
        shuffled = residual(REFERENCE_PARAMS, grid=grid[::-1], spec=FIT_QUADRATURE)
        doubled = residual(
            REFERENCE_PARAMS, grid=np.concatenate([grid, grid]), spec=FIT_QUADRATURE
        )
        assert shuffled == pytest.approx(base, abs=1e-12)
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_least_squares_never_exceeds_chebyshev(self):
        for params in (REFERENCE_PARAMS, STEEP_PARAMS):
            cheb = residual(params, spec=FIT_QUADRATURE, objective="chebyshev")
            rms = residual(params, spec=FIT_QUADRATURE, objective="least-squares")
            assert 0.0 < rms <= cheb

    def test_validation(self):
        assert OBJECTIVES == ("chebyshev", "least-squares")
        with pytest.raises(ParameterError):
            residual(REFERENCE_PARAMS, objective="l1")
        with pytest.raises(ParameterError):
            residual(REFERENCE_PARAMS, grid=np.array([]))
        with pytest.raises(ParameterError):
            residual("not a model")  # type: ignore[arg-type]


class TestFit:
    def test_default_run_from_reference_start(self):
        frozen = REGRESSIONS["fit_default_from_reference"]
        result = fit()
        assert isinstance(result, FitResult)
        assert result.converged is frozen["converged"]
        assert result.residual == pytest.approx(frozen["residual"], abs=1e-9)
        assert result.residual <= frozen["threshold"]
        assert result.intensity_ratio_at_fit == pytest.approx(
            frozen["intensity_ratio_at_fit"], abs=1e-6
        )
        # the found triple must actually reproduce the reported residual
        recheck = residual(result.params, grid=result.grid, spec=FIT_QUADRATURE)
        assert recheck == pytest.approx(result.residual, abs=1e-10)
        # and stay close under the heavier default quadrature budget
        assert residual(result.params, grid=result.grid) == pytest.approx(
            result.residual, abs=1e-4
        )

    def test_far_start_reaches_the_reference_basin(self):
        frozen = REGRESSIONS["fit_far_start"]
        cfg = frozen["config"]
        a, e, c = frozen["start"]
        result = fit(
            start=TransmissionParams(a=a, e=e, c=c),
            config=SearchConfig(
                restarts=cfg["restarts"],
                max_iterations=cfg["max_iterations"],
                tolerance=cfg["tolerance"],
                rng=RngStream(cfg["seed"]),
            ),
        )
        assert result.residual == pytest.approx(frozen["residual"], abs=1e-9)
        assert result.residual <= 2.0 * REFERENCE["malus_residual"]

    def test_zero_offset_start_is_accepted(self):
        result = fit(start=TransmissionParams(a=2.6, e=2.2, c=0.0), config=LIGHT_SEARCH)
        assert np.isfinite(result.residual)
        assert result.params.c >= 0.0
        assert result.residual <= residual(
            TransmissionParams(a=2.6, e=2.2, c=0.0), spec=FIT_QUADRATURE
        ) + 1e-12

    def test_least_squares_objective(self):
        result = fit(config=LIGHT_SEARCH, objective="least-squares")
        assert result.objective == "least-squares"
        start_rms = residual(REFERENCE_PARAMS, spec=FIT_QUADRATURE, objective="least-squares")
        assert result.residual <= start_rms + 1e-12

    def test_result_fields(self):
        result = fit(config=LIGHT_SEARCH)
        assert isinstance(result.params, TransmissionParams)
        assert result.objective == "chebyshev"
        np.testing.assert_array_equal(result.grid, default_angle_grid())
        assert 0.0 < result.intensity_ratio_at_fit < 1.0
        assert isinstance(result.converged, bool)
        assert result.best_restart >= 0
        assert result.iterations > 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            fit(start=(2.6, 2.2, 45.0))  # type: ignore[arg-type]
        with pytest.raises(ParameterError):
            fit(config=LIGHT_SEARCH, objective="l1")

    @settings(max_examples=6)
    @given(
        a=st.floats(min_value=1.0, max_value=4.0),
        e=st.floats(min_value=1.0, max_value=4.0),
        c=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_never_worse_than_start(self, a, e, c):
        start = TransmissionParams(a=a, e=e, c=c)
        sparse_grid = np.deg2rad([0.0, 30.0, 60.0, 90.0])
        result = fit(
            start=start,
            grid=sparse_grid,
            config=SearchConfig(restarts=1, max_iterations=8, tolerance=1e-6, rng=RngStream(0)),
        )
        start_value = residual(start, grid=sparse_grid, spec=FIT_QUADRATURE)
        assert result.residual <= start_value + 1e-12

    def test_default_search_budget(self):
        assert FIT_SEARCH.restarts == 2
        assert FIT_SEARCH.max_iterations == 400
        assert FIT_SEARCH.tolerance == 1e-6
        assert FIT_QUADRATURE.panels == 512
