import math
import multiprocessing
import multiprocessing.process
import os

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from _frozen import BELINFANTE, REFERENCE, REGRESSIONS, STEEP
import bellhv.malusfit as malusfit
from bellhv.errors import AngleDomainError, ParameterError, QuadratureConvergenceError
from bellhv.malusfit import (
    _STATIONARY_GAP,
    FIT_QUADRATURE,
    FIT_SEARCH,
    FitResult,
    OBJECTIVES,
    SearchResult,
    _sqp,
    _stationarity_gap,
    fit,
    minimize,
    residual,
)
from bellhv.rng import RngStream, SearchConfig
from bellhv.transmission import (
    REFERENCE_MODEL,
    CosineSquaredModel,
    _lattice_pair_curve,
    StretchedExponentialModel,
    default_angle_grid,
    degrees_grid,
    intensity_ratio,
    malus,
    normalized_pair_curve,
)

STEEP_MODEL = StretchedExponentialModel(a=1.95, e=3.56, c=500.0)
LIGHT_SEARCH = SearchConfig(restarts=1, max_iterations=60, rng=RngStream(0))


class TestResidual:
    def test_reference_profile_residual(self):
        value = residual(REFERENCE_MODEL)
        assert value == pytest.approx(REFERENCE["malus_residual"], abs=1e-9)

    def test_cosine_squared_baseline_residual(self):
        value = residual(CosineSquaredModel())
        assert value == pytest.approx(BELINFANTE["malus_residual"], abs=1e-9)
        assert value > 0.1

    def test_steep_profile_residual(self):
        value = residual(STEEP_MODEL)
        assert value == pytest.approx(STEEP["malus_residual"], abs=1e-9)

    def test_reference_worst_angle(self):
        grid = default_angle_grid()
        deviations = np.abs(
            normalized_pair_curve(REFERENCE_MODEL, grid)
            - malus(grid)
        )
        worst_deg = np.rad2deg(grid[int(np.argmax(deviations))])
        assert worst_deg == pytest.approx(REFERENCE["malus_residual_argmax_deg"], abs=1e-9)

    def test_far_start_point_residual(self):
        value = residual(StretchedExponentialModel(a=1.0, e=2.0, c=100.0))
        assert value == pytest.approx(REGRESSIONS["residual_at_far_start_point"], abs=1e-9)

    def test_grid_order_and_duplicates_do_not_change_chebyshev(self):
        grid = default_angle_grid()
        base = residual(REFERENCE_MODEL, grid=grid, spec=FIT_QUADRATURE)
        shuffled = residual(REFERENCE_MODEL, grid=grid[::-1], spec=FIT_QUADRATURE)
        doubled = residual(
            REFERENCE_MODEL, grid=np.concatenate([grid, grid]), spec=FIT_QUADRATURE
        )
        assert shuffled == pytest.approx(base, abs=1e-12)
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_least_squares_never_exceeds_chebyshev(self):
        for model in (REFERENCE_MODEL, STEEP_MODEL):
            cheb = residual(model, spec=FIT_QUADRATURE, objective="chebyshev")
            rms = residual(model, spec=FIT_QUADRATURE, objective="least-squares")
            assert 0.0 < rms <= cheb

    def test_validation(self):
        assert OBJECTIVES == ("chebyshev", "least-squares")
        with pytest.raises(ParameterError):
            residual(REFERENCE_MODEL, objective="l1")
        with pytest.raises(ParameterError):
            residual(REFERENCE_MODEL, grid=np.array([]))
        with pytest.raises(ParameterError):
            residual("not a model")  # type: ignore[arg-type]


def _chebyshev_line(x):
    """x[0] + x[1] t - t^2 on t = 0, 1/4, ..., 1: the best line is t - 1/8,
    its error 1/8, attained with alternating signs at 0, 1/2 and 1."""
    t = np.linspace(0.0, 1.0, 5)
    return x[0] + x[1] * t - t**2, np.column_stack((np.ones_like(t), t))


def _rosenbrock(x):
    """Rosenbrock's function as two residuals; 0 at (1, 1)."""
    return (
        np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
        np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
    )


def _double_well(x):
    """A local chebyshev minimum 0.05 at (0.2, 0) and the global one, 0, at (-0.3, 0)."""
    return (
        np.array([x[0] ** 2 - 0.09, 0.1 * (x[0] + 0.3), 0.2 * x[1]]),
        np.array([[2.0 * x[0], 0.0], [0.1, 0.0], [0.0, 0.2]]),
    )


class TestMinimize:
    """The SQP restarts on small problems whose answers are known."""

    def test_chebyshev_line(self):
        best, result = minimize(_chebyshev_line, np.array([0.0, 0.0]), SearchConfig(restarts=1), "chebyshev")
        assert best == 0
        assert result.fun == pytest.approx(0.125, abs=1e-12)
        np.testing.assert_allclose(result.x, [-0.125, 1.0], atol=1e-10)
        assert result.active == (0, 2, 4)
        assert result.gap <= 1e-10

    def test_least_squares_rosenbrock(self):
        _, result = minimize(
            _rosenbrock, np.array([-1.2, 1.0]), SearchConfig(restarts=1), "least-squares"
        )
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-6)
        assert result.fun < 1e-6
        assert result.active == ()

    def test_restarts_escape_local_minimum(self):
        _, local_only = minimize(_double_well, np.array([0.3, 0.0]), SearchConfig(restarts=1), "chebyshev")
        assert local_only.fun == pytest.approx(0.05, abs=1e-9)  # stuck at (0.2, 0)
        best_restart, multi = minimize(
            _double_well, np.array([0.3, 0.0]), SearchConfig(restarts=12, rng=RngStream(3)), "chebyshev"
        )
        assert best_restart > 0
        assert multi.fun < 1e-9
        assert multi.x[0] == pytest.approx(-0.3, abs=1e-6)

    def test_deterministic_given_config(self):
        config = SearchConfig(restarts=4, rng=RngStream(5))
        outcomes = [minimize(_double_well, np.array([0.3, 0.5]), config, "chebyshev") for _ in range(2)]
        (best, result), (other_best, other) = outcomes
        assert best == other_best
        _assert_bitwise_equal(result, other)

    def test_iteration_cap(self):
        _, result = minimize(
            _rosenbrock, np.array([-1.2, 1.0]), SearchConfig(restarts=1, max_iterations=3), "least-squares"
        )
        assert result.nit == 3
        assert result.gap > 1e-3

    def test_result_type(self):
        best_restart, result = minimize(_chebyshev_line, np.zeros(2), SearchConfig(restarts=1), "chebyshev")
        assert isinstance(result, SearchResult)
        assert isinstance(result.fun, float)
        assert isinstance(result.nit, int)
        assert isinstance(result.gap, float)
        assert best_restart == 0

    def test_points_without_residuals_are_never_accepted(self):
        # left of x0 = -0.1 the residuals cannot be computed, which hides the
        # line fit's optimum (-0.125, 1); a start there ends its restart
        def fenced(x):
            return None if x[0] < -0.1 else _chebyshev_line(x)

        _, result = minimize(fenced, np.zeros(2), SearchConfig(restarts=1), "chebyshev")
        assert result.x[0] >= -0.1
        assert 0.125 < result.fun < 0.15
        _, fenced_start = minimize(fenced, np.array([-1.0, 0.0]), SearchConfig(restarts=1), "chebyshev")
        assert (fenced_start.fun, fenced_start.nit) == (math.inf, 0)

    def test_start_is_moved_into_the_box(self):
        seen = []

        def recorded(x):
            seen.append(x.copy())
            return _chebyshev_line(x)

        minimize(recorded, np.array([30.0, -30.0]), SearchConfig(restarts=1, max_iterations=1), "chebyshev")
        np.testing.assert_array_equal(seen[0], [malusfit._LOG_CEILING, malusfit._LOG_C_FLOOR])

    @given(
        c0=st.floats(min_value=-2.0, max_value=2.0),
        c1=st.floats(min_value=-2.0, max_value=2.0),
        x0=st.floats(min_value=-3.0, max_value=3.0),
        x1=st.floats(min_value=-3.0, max_value=3.0),
        objective=st.sampled_from(OBJECTIVES),
    )
    def test_never_worse_than_start(self, c0, c1, x0, x1, objective):
        def residuals(x):
            values = np.array([(x[0] - c0) * (x[1] - c1), 0.3 * np.cos(x[0]), x[1] - 0.5 * x[0]])
            jacobian = np.array(
                [[x[1] - c1, x[0] - c0], [-0.3 * np.sin(x[0]), 0.0], [-0.5, 1.0]]
            )
            return values, jacobian

        start = np.array([x0, x1])
        config = SearchConfig(restarts=3, max_iterations=60, rng=RngStream(1))
        _, result = minimize(residuals, start, config, objective)
        values = residuals(start)[0]
        start_value = np.abs(values).max() if objective == "chebyshev" else np.sqrt(np.mean(values**2))
        assert result.fun <= start_value + 1e-15


def _assert_bitwise_equal(result, other):
    assert result.x.tobytes() == other.x.tobytes()
    assert np.float64(result.fun).tobytes() == np.float64(other.fun).tobytes()
    assert np.float64(result.gap).tobytes() == np.float64(other.gap).tobytes()
    assert (result.nit, result.active) == (other.nit, other.active)


def _assert_no_child_processes():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_process_starts(monkeypatch):
    """List that gains each process started from now on."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(process):
        started.append(process)
        return start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


def _plateau_at_start(x):
    # 1 within 0.05 of the origin, 0 elsewhere, flat: restart 0 (from the
    # origin) ends at 1, while every perturbed start ties at 0
    return np.array([1.0 if abs(x[0]) < 0.05 else 0.0]), np.zeros((1, 1))


def _fit_bits(result):
    params = result.params
    floats = [
        params.a,
        params.e,
        params.c,
        result.residual,
        result.intensity_ratio_at_fit,
        result.stationarity_gap,
    ]
    return (
        np.array(floats).tobytes(),
        result.grid.tobytes(),
        (result.objective, result.converged, result.active, result.best_restart, result.iterations),
    )


def _restart_starts(x0, config):
    """The documented start of each restart: x0, then x0 plus a perturbation."""
    return [x0] + [
        x0 + malusfit._RESTART_SPREAD * config.rng.substream(r).generator().standard_normal(x0.size)
        for r in range(1, config.restarts)
    ]


RESTART_PROBLEMS = {"plateau": (_plateau_at_start, 1), "double-well": (_double_well, 2)}


class TestSerialRestarts:
    """The restarts run one after another in the caller."""

    def test_fit_starts_no_process(self, monkeypatch):
        started = _count_process_starts(monkeypatch)
        config = SearchConfig(restarts=4, max_iterations=12, rng=RngStream(2))
        fit(grid=np.deg2rad([0.0, 30.0, 60.0, 90.0]), config=config)
        assert started == []

    @pytest.mark.parametrize("name", sorted(RESTART_PROBLEMS))
    def test_minimize_starts_no_process(self, monkeypatch, name):
        residuals, dim = RESTART_PROBLEMS[name]
        started = _count_process_starts(monkeypatch)
        config = SearchConfig(restarts=4, max_iterations=200, rng=RngStream(3))
        minimize(residuals, np.zeros(dim), config, "chebyshev")
        assert started == []
        _assert_no_child_processes()

    @pytest.mark.parametrize("restarts", [1, 2, 3, 4])
    def test_fit_does_not_depend_on_cpu_count(self, monkeypatch, restarts):
        config = SearchConfig(restarts=restarts, max_iterations=12, rng=RngStream(2))
        grid = np.deg2rad([0.0, 30.0, 60.0, 90.0])
        results = []
        started = _count_process_starts(monkeypatch)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            results.append(fit(grid=grid, config=config))
        assert started == []
        first, *others = [_fit_bits(result) for result in results]
        assert all(other == first for other in others)

    @pytest.mark.parametrize("name", sorted(RESTART_PROBLEMS))
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4])
    def test_best_is_the_lowest_and_earliest_restart(self, name, restarts):
        residuals, dim = RESTART_PROBLEMS[name]
        config = SearchConfig(restarts=restarts, max_iterations=200, rng=RngStream(4))
        x0 = np.zeros(dim)
        starts = _restart_starts(x0, config)
        runs = [_sqp(residuals, start, config.max_iterations, "chebyshev") for start in starts]
        values = [run.fun for run in runs]
        best, result = minimize(residuals, x0, config, "chebyshev")
        assert best == values.index(min(values))
        _assert_bitwise_equal(result, runs[best])
        if name == "plateau":
            # every perturbed start leaves the plateau, so restarts 1, 2 and
            # 3 all tie at 0, and the earliest wins
            assert all(abs(start[0]) >= 0.05 for start in starts[1:])
            assert (best, result.fun) == ((1, 0.0) if restarts > 1 else (0, 1.0))

    def test_restart_error_reaches_the_caller_and_ends_the_search(self):
        # restart 0's residuals raise at its start, while every perturbed
        # start could be scored: none of them is evaluated
        seen = []

        def residuals(x):
            seen.append(x.copy())
            if abs(x[0]) < 0.05:
                raise QuadratureConvergenceError("restart 0", float(x[0]), 0.5)
            return np.array([x[0]]), np.ones((1, 1))

        config = SearchConfig(restarts=4, max_iterations=50, rng=RngStream(3))
        with pytest.raises(QuadratureConvergenceError, match="^restart 0$"):
            minimize(residuals, np.array([0.0]), config, "chebyshev")
        assert len(seen) == 1 and seen[0][0] == 0.0

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_later_restart_error_ends_the_search(self, failing):
        # the restarts before the failing one run in full, in order; its
        # residuals raise at its start, and no later restart is evaluated
        config = SearchConfig(restarts=4, max_iterations=200, rng=RngStream(3))
        x0 = np.zeros(2)
        starts = _restart_starts(x0, config)
        calls = []

        def counted(x):
            calls.append(x.copy())
            return _double_well(x)

        for start in starts[:failing]:
            _sqp(counted, start, config.max_iterations, "chebyshev")
        earlier = len(calls)
        seen = []

        def residuals(x):
            seen.append(x.copy())
            if x.tobytes() == starts[failing].tobytes():
                raise QuadratureConvergenceError(f"restart {failing}", float(x[0]), 0.5)
            return _double_well(x)

        with pytest.raises(QuadratureConvergenceError, match=f"^restart {failing}$"):
            minimize(residuals, x0, config, "chebyshev")
        assert len(seen) == earlier + 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, calls))
        assert seen[-1].tobytes() == starts[failing].tobytes()

    def test_interrupt_ends_the_search(self):
        # a Ctrl-C in restart 0 stops the fit: no later restart starts
        seen = []

        def residuals(x):
            seen.append(x.copy())
            raise KeyboardInterrupt

        config = SearchConfig(restarts=6, max_iterations=50, rng=RngStream(3))
        with pytest.raises(KeyboardInterrupt):
            minimize(residuals, np.array([0.0]), config, "chebyshev")
        assert len(seen) == 1

    def test_platform_without_fork_gives_the_same_bits(self, monkeypatch):
        config = SearchConfig(restarts=2, max_iterations=200, rng=RngStream(3))
        x0 = np.zeros(2)
        expected_best, expected = minimize(_double_well, x0, config, "chebyshev")
        monkeypatch.delattr(os, "fork")
        best, result = minimize(_double_well, x0, config, "chebyshev")
        assert best == expected_best
        _assert_bitwise_equal(result, expected)

    def test_daemonic_caller_gives_the_same_bits(self):
        # a daemonic process may not start children; a fit inside a
        # multiprocessing pool worker needs none
        config = SearchConfig(restarts=2, max_iterations=200, rng=RngStream(3))
        x0 = np.zeros(2)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        daemon = context.Process(
            target=lambda: sender.send(minimize(_double_well, x0, config, "chebyshev")), daemon=True
        )
        daemon.start()
        sender.close()
        best, result = receiver.recv()
        daemon.join()
        receiver.close()
        assert daemon.exitcode == 0
        expected_best, expected = minimize(_double_well, x0, config, "chebyshev")
        assert best == expected_best
        _assert_bitwise_equal(result, expected)
        _assert_no_child_processes()

    def test_grid_outside_the_window_fails_before_any_search(self, monkeypatch):
        searches = _fit_search(monkeypatch)
        with pytest.raises(AngleDomainError, match="alpha"):
            fit(grid=np.deg2rad([0.0, 45.0, 100.0]), config=SearchConfig(restarts=2))
        assert searches == []


def _fit_search(monkeypatch):
    """List that gains (residuals, x0, config, objective) of each fit's search."""
    searches = []

    def recorded(residuals, x0, config, objective):
        searches.append((residuals, x0, config, objective))
        return minimize(residuals, x0, config, objective)

    monkeypatch.setattr(malusfit, "minimize", recorded)
    return searches


class TestFit:
    def test_default_run_from_reference_start(self):
        frozen = REGRESSIONS["fit_default_from_reference"]
        result = fit()
        assert isinstance(result, FitResult)
        assert result.converged is frozen["converged"]
        assert result.residual == pytest.approx(frozen["residual"], abs=1e-9)
        assert result.residual <= frozen["threshold"]
        assert result.residual <= 0.0341300
        assert result.intensity_ratio_at_fit == pytest.approx(
            frozen["intensity_ratio_at_fit"], abs=1e-6
        )
        # the reported residual is the kernel's, at the returned triple
        assert result.residual == residual(result.params, grid=result.grid, spec=FIT_QUADRATURE)
        # and stays close under the heavier default quadrature budget
        assert residual(result.params, grid=result.grid) == pytest.approx(
            result.residual, abs=1e-4
        )
        # two active angles for three parameters; the certificate holds
        assert np.rad2deg(result.grid[list(result.active)]) == pytest.approx([30.0, 80.0])
        assert result.stationarity_gap <= _STATIONARY_GAP

    def test_far_start_reaches_the_reference_basin(self):
        frozen = REGRESSIONS["fit_far_start"]
        cfg = frozen["config"]
        a, e, c = frozen["start"]
        result = fit(
            start=StretchedExponentialModel(a=a, e=e, c=c),
            config=SearchConfig(
                restarts=cfg["restarts"],
                max_iterations=cfg["max_iterations"],
                rng=RngStream(cfg["seed"]),
            ),
        )
        assert result.residual == pytest.approx(frozen["residual"], abs=1e-9)
        assert result.residual <= 2.0 * REFERENCE["malus_residual"]
        assert result.converged

    def test_zero_offset_start_is_accepted(self):
        start = StretchedExponentialModel(a=2.6, e=2.2, c=0.0)
        result = fit(start=start, config=LIGHT_SEARCH)
        assert np.isfinite(result.residual)
        assert result.params.c >= 0.0
        assert result.residual <= residual(start, spec=FIT_QUADRATURE) + 1e-12

    def test_residual_on_a_grid_in_the_window_slack_is_the_kernels(self):
        # the window check accepts -90 degrees less 5e-10 rad and clamps it;
        # the search's evaluator must clamp it too, and the reported residual
        # is the kernel's residual of the reported parameters
        grid = np.array([-np.pi / 2 - 5e-10, 0.0, 0.7])
        config = SearchConfig(restarts=1, max_iterations=30, rng=RngStream(0))
        result = fit(grid=grid, config=config)
        assert result.residual == residual(result.params, grid, FIT_QUADRATURE)

    def test_least_squares_objective(self):
        result = fit(config=LIGHT_SEARCH, objective="least-squares")
        assert result.objective == "least-squares"
        assert result.active == ()
        start_rms = residual(REFERENCE_MODEL, spec=FIT_QUADRATURE, objective="least-squares")
        assert result.residual <= start_rms + 1e-12

    def test_result_fields(self):
        result = fit(config=LIGHT_SEARCH)
        assert isinstance(result.params, StretchedExponentialModel)
        assert result.objective == "chebyshev"
        np.testing.assert_array_equal(result.grid, default_angle_grid())
        assert 0.0 < result.intensity_ratio_at_fit < 1.0
        assert isinstance(result.converged, bool)
        assert result.converged == (result.stationarity_gap <= _STATIONARY_GAP)
        assert isinstance(result.stationarity_gap, float)
        assert all(isinstance(k, int) for k in result.active) and result.active
        assert result.best_restart >= 0
        assert result.iterations > 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            fit(start=(2.6, 2.2, 45.0))  # type: ignore[arg-type]
        with pytest.raises(ParameterError, match="StretchedExponentialModel"):
            fit(start=CosineSquaredModel())  # type: ignore[arg-type]
        with pytest.raises(ParameterError):
            fit(config=LIGHT_SEARCH, objective="l1")

    @pytest.mark.parametrize(
        "start",
        [StretchedExponentialModel(2.6, 2.2, 1e6), StretchedExponentialModel(1e-10, 2.2, 45.0)],
        ids=["c_above_the_ceiling", "a_below_the_floor"],
    )
    def test_start_outside_the_box_is_an_error(self, start):
        # the search stays in the box, so it could not even start there
        with pytest.raises(ParameterError, match="outside the fit's box"):
            fit(start=start, config=LIGHT_SEARCH)

    def test_start_whose_residual_cannot_be_computed_is_an_error(self):
        # inside the box, but its residual raises QuadratureConvergenceError at
        # FIT_QUADRATURE, which the search would take as a rejected step
        start = StretchedExponentialModel(1e5, 2.2, 45.0)
        with pytest.raises(ParameterError, match="residual or intensity ratio at start .* cannot be computed"):
            fit(start=start, grid=np.deg2rad([0.0, 30.0, 60.0, 90.0]), config=LIGHT_SEARCH)

    def test_empty_grid_is_an_error(self):
        # the same error as residual's, before any search
        with pytest.raises(ParameterError, match="at least one angle"):
            fit(grid=np.array([]), config=LIGHT_SEARCH)

    @settings(max_examples=6)
    @given(
        a=st.floats(min_value=1.0, max_value=4.0),
        e=st.floats(min_value=1.0, max_value=4.0),
        c=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_never_worse_than_start(self, a, e, c):
        start = StretchedExponentialModel(a=a, e=e, c=c)
        sparse_grid = np.deg2rad([0.0, 30.0, 60.0, 90.0])
        result = fit(
            start=start,
            grid=sparse_grid,
            config=SearchConfig(restarts=1, max_iterations=8, rng=RngStream(0)),
        )
        start_value = residual(start, grid=sparse_grid, spec=FIT_QUADRATURE)
        assert result.residual <= start_value + 1e-12

    def test_cusp_fit_falls_back_to_the_kernel(self, monkeypatch):
        # e = 0.3 puts a cusp at lambda = 0: the lattice's estimate misses
        # refine_until, so the search reads the kernel's curve at the start;
        # the fit still ends at a point its certificate accepts
        searches = _fit_search(monkeypatch)
        start = StretchedExponentialModel(2.6, 0.3, 0.0)
        result = fit(start=start, config=SearchConfig(restarts=1, max_iterations=400))
        (residuals, x0, _, _), = searches
        model, grid = malusfit._params_from_log(x0), result.grid
        assert _lattice_pair_curve(model, grid).estimate > FIT_QUADRATURE.refine_until
        kernel = normalized_pair_curve(model, grid, FIT_QUADRATURE)
        np.testing.assert_array_equal(residuals(x0)[0], kernel - malus(grid))
        assert result.residual < residual(start, spec=FIT_QUADRATURE)
        assert result.converged

    def test_search_reads_the_lattice_curve(self, monkeypatch):
        searches = _fit_search(monkeypatch)
        grid = np.deg2rad([0.0, 30.0, 60.0, 90.0])
        fit(grid=grid, config=LIGHT_SEARCH)
        (residuals, x0, _, _), = searches
        values, jacobian = residuals(x0)
        lattice = _lattice_pair_curve(malusfit._params_from_log(x0), grid)
        np.testing.assert_array_equal(values, lattice.curve - malus(grid))
        np.testing.assert_array_equal(jacobian, lattice.jacobian)

    def test_search_rejects_a_candidate_no_curve_reaches(self, monkeypatch):
        searches = _fit_search(monkeypatch)
        fit(config=LIGHT_SEARCH)
        (residuals, _, _, _), = searches
        cusp, smooth = np.log([2.6, 0.3, 1e-9]), np.log([2.6, 2.2, 45.0])
        assert residuals(cusp) is not None  # the kernel's curve converges there

        def diverging(*args):
            raise QuadratureConvergenceError("diverged", 0.0, 1.0)

        monkeypatch.setattr(malusfit, "normalized_pair_curve", diverging)
        assert residuals(cusp) is None
        assert residuals(smooth) is not None  # the lattice's curve needs no kernel

    def test_search_near_uncomputable_candidates_returns_a_computable_fit(self):
        # from this cusp start the least-squares search meets candidates whose
        # curve neither the lattice nor the kernel computes (a search that
        # took the lattice's curve there ended where the kernel raises)
        start = StretchedExponentialModel(0.1454352180071512, 0.2877806094940356, 0.0)
        grid = degrees_grid(3.3, 87.1, 2.9)
        result = fit(start, grid, SearchConfig(restarts=1), "least-squares")
        assert result.residual == residual(result.params, grid, FIT_QUADRATURE, "least-squares")
        assert result.residual < residual(start, grid, FIT_QUADRATURE, "least-squares")
        assert result.intensity_ratio_at_fit == intensity_ratio(result.params, FIT_QUADRATURE)

    def test_result_the_kernel_cannot_compute_falls_back_to_the_start(self, monkeypatch):
        # the lattice's estimate can hold where the kernel does not converge
        start = malusfit._params_from_log(np.log([2.6, 2.2, 45.0]))
        kernel = malusfit.residual

        def start_only(model, *args):
            if model != start:
                raise QuadratureConvergenceError("diverged", 0.0, 1.0)
            return kernel(model, *args)

        monkeypatch.setattr(malusfit, "residual", start_only)
        result = fit(start=start, config=LIGHT_SEARCH)
        assert (result.params, result.best_restart, result.iterations) == (start, 0, 0)
        assert result.residual == kernel(start, default_angle_grid(), FIT_QUADRATURE)
        assert not result.converged

    def test_start_whose_intensity_ratio_cannot_be_computed_is_an_error(self, monkeypatch):
        def diverging(*args):
            raise QuadratureConvergenceError("diverged", 0.0, 1.0)

        monkeypatch.setattr(malusfit, "intensity_ratio", diverging)
        with pytest.raises(ParameterError, match="intensity ratio at start .* cannot be computed"):
            fit(config=LIGHT_SEARCH)

    def test_default_search_budget(self):
        assert FIT_SEARCH.restarts == 2
        assert FIT_SEARCH.max_iterations == 400
        assert FIT_QUADRATURE.panels == 512


def _epigraph_residuals(residuals, z):
    """SLSQP's inequality constraints t -+ r_k(theta) >= 0 and their jacobian."""
    r, J = residuals(z[:3])
    ones = np.ones((r.size, 1))
    return np.concatenate((z[3] - r, z[3] + r)), np.vstack((np.hstack((-J, ones)), np.hstack((J, ones))))


class TestAgainstSLSQP:
    """scipy's SLSQP on the same epigraph form and evaluator reaches the
    default fit's optimum from the reference start and from the triple the
    Nelder-Mead search used to return."""

    @pytest.mark.parametrize(
        "start", [(2.6, 2.2, 45.0), (2.63886500384, 1.81949075973, 12.2870441243)],
        ids=["reference", "nelder_mead_fit"],
    )
    def test_same_residual(self, monkeypatch, start):
        searches = _fit_search(monkeypatch)
        result = fit()
        (residuals, _, _, _), = searches
        x0 = np.log(start)
        z0 = np.append(x0, np.abs(residuals(x0)[0]).max())
        box = (malusfit._LOG_C_FLOOR, malusfit._LOG_CEILING)
        oracle = scipy.optimize.minimize(
            lambda z: z[3],
            z0,
            jac=lambda z: np.eye(4)[3],
            method="SLSQP",
            bounds=[box] * 3 + [(None, None)],
            constraints=[
                {
                    "type": "ineq",
                    "fun": lambda z: _epigraph_residuals(residuals, z)[0],
                    "jac": lambda z: _epigraph_residuals(residuals, z)[1],
                }
            ],
            options={"maxiter": 500, "ftol": 1e-15},
        )
        assert oracle.success
        params = StretchedExponentialModel(*np.exp(oracle.x[:3]))
        assert residual(params, result.grid, FIT_QUADRATURE) == pytest.approx(result.residual, abs=1e-9)


class TestCertificate:
    """The stationarity gap: the min-norm point of the convex hull of the
    active residuals' signed gradients."""

    @pytest.fixture(scope="class")
    def at_the_fit(self):
        result = fit()
        x = np.log([result.params.a, result.params.e, result.params.c])
        lattice = _lattice_pair_curve(result.params, result.grid)
        return result, x, lattice.curve - malus(result.grid), lattice.jacobian

    def test_stationary_at_the_default_fit(self, at_the_fit):
        result, x, r, J = at_the_fit
        gap, active = _stationarity_gap(r, J, x, "chebyshev")
        assert active == result.active
        assert gap == result.stationarity_gap <= _STATIONARY_GAP
        # 30 degrees below cos^2, 80 degrees above
        assert np.sign(r[list(active)]).tolist() == [-1.0, 1.0]

    def test_dropping_an_active_gradient_fails(self, at_the_fit):
        # either active angle alone is far from stationary: its gradient
        # does not vanish, and only the hull of both holds 0
        _, x, r, J = at_the_fit
        _, active = _stationarity_gap(r, J, x, "chebyshev")
        for k in active:
            dropped = r.copy()
            dropped[k] *= 0.99
            gap, remaining = _stationarity_gap(dropped, J, x, "chebyshev")
            assert k not in remaining
            assert gap > 1e-2

    def test_one_active_residual_gives_its_gradient_norm(self):
        r = np.array([0.5, -0.1])
        J = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert _stationarity_gap(r, J, np.zeros(2), "chebyshev") == (5.0, (0,))

    def test_box_edge_blocks_a_gradient_pointing_out(self):
        # lowering r = x0 + 1 needs x0 to fall, which the floor forbids there
        r, J = np.array([0.5]), np.array([[1.0, 0.0]])
        floor = malusfit._LOG_C_FLOOR
        assert _stationarity_gap(r, J, np.array([floor, 0.0]), "chebyshev")[0] == 0.0
        assert _stationarity_gap(r, J, np.array([floor + 1.0, 0.0]), "chebyshev")[0] == 1.0

    def test_least_squares_gap_is_the_rms_gradient_norm(self):
        r, J = _rosenbrock(np.array([0.5, 0.5]))
        gap, active = _stationarity_gap(r, J, np.array([0.5, 0.5]), "least-squares")
        expected = np.linalg.norm(J.T @ r / (r.size * np.sqrt(np.mean(r**2))))
        assert gap == pytest.approx(expected, rel=1e-12)
        assert active == ()
