import math
import multiprocessing
import multiprocessing.process
import os
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from _frozen import BELINFANTE, REFERENCE, REGRESSIONS, STEEP
import bellhv.malusfit as malusfit
from bellhv.errors import AngleDomainError, ParameterError, QuadratureConvergenceError
from bellhv.malusfit import (
    _FATOL,
    FIT_QUADRATURE,
    FIT_SEARCH,
    FitResult,
    OBJECTIVES,
    SimplexResult,
    fit,
    minimize,
    nelder_mead,
    residual,
)
from bellhv.rng import RngStream, SearchConfig
from bellhv.transmission import (
    REFERENCE_MODEL,
    CosineSquaredModel,
    StretchedExponentialModel,
    default_angle_grid,
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


class TestMinimize:
    def test_one_dimensional_parabola(self):
        _, result = minimize(lambda x: (x[0] - 3.0) ** 2, np.array([0.0]), SearchConfig(restarts=2))
        assert abs(result.x[0] - 3.0) < 1e-6
        assert result.success

    def test_two_dimensional_bowl(self):
        _, result = minimize(
            lambda x: x[0] ** 2 + x[1] ** 2, np.array([1.0, 1.0]), SearchConfig(restarts=2)
        )
        assert np.abs(result.x).max() < 1e-4
        assert result.fun < 1e-8

    def test_deterministic_given_config(self):
        cfg = SearchConfig(restarts=4, rng=RngStream(5))
        f = lambda x: (x[0] - 1.0) ** 2 + 0.5 * np.sin(x[0]) ** 2
        restart1, r1 = minimize(f, np.array([4.0]), cfg)
        restart2, r2 = minimize(f, np.array([4.0]), cfg)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.fun == r2.fun
        assert restart1 == restart2

    def test_restarts_escape_local_minimum(self):
        # tilted double well: a shallow local minimum near +0.3 and the
        # global one near -0.3, both within the restart spread of the start
        f = lambda x: (x[0] ** 2 - 0.09) ** 2 + 0.01 * x[0]
        _, local_only = minimize(f, np.array([0.3]), SearchConfig(restarts=1))
        assert local_only.x[0] > 0  # stuck in the nearby well
        best_restart, multi = minimize(
            f, np.array([0.3]), SearchConfig(restarts=12, rng=RngStream(3))
        )
        assert best_restart > 0
        assert multi.fun < local_only.fun
        assert multi.x[0] < 0

    def test_non_converged_flag_on_tiny_budget(self):
        rosenbrock = lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        _, result = minimize(
            rosenbrock, np.array([-1.2, 1.0]), SearchConfig(restarts=1, max_iterations=3)
        )
        assert not result.success

    def test_result_type(self):
        best_restart, result = minimize(
            lambda x: x[0] ** 2, np.array([1.0]), SearchConfig(restarts=1)
        )
        assert isinstance(result, SimplexResult)
        assert isinstance(result.nit, int)
        assert isinstance(result.nfev, int)
        assert isinstance(result.success, bool)
        assert best_restart == 0

    @given(
        c0=st.floats(min_value=-2.0, max_value=2.0),
        c1=st.floats(min_value=-2.0, max_value=2.0),
        x0=st.floats(min_value=-3.0, max_value=3.0),
        x1=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_never_worse_than_start(self, c0, c1, x0, x1):
        f = lambda x: (
            (x[0] - c0) ** 2 * (x[1] - c1) ** 2 + 0.1 * np.cos(x[0]) + 0.1 * abs(x[1])
        )
        start = np.array([x0, x1])
        config = SearchConfig(restarts=3, max_iterations=60, rng=RngStream(1))
        _, result = minimize(f, start, config)
        assert result.fun <= float(f(start)) + 1e-12


def _scipy_nelder_mead(objective, x0, max_iterations, xatol, fatol):
    return scipy.optimize.minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxiter": max_iterations, "xatol": xatol, "fatol": fatol},
    )


def _assert_bitwise_equal(port, oracle):
    assert port.x.tobytes() == oracle.x.tobytes()
    assert np.float64(port.fun).tobytes() == np.float64(oracle.fun).tobytes()
    assert (port.nit, port.nfev, port.success) == (oracle.nit, oracle.nfev, oracle.success)


# test objectives of any dimension: smooth, non-smooth, a curved valley, and
# plateaus on which contractions fail
NELDER_MEAD_OBJECTIVES = {
    "quadratic": lambda x: float(np.sum(np.arange(1, x.size + 1) * (x - 0.5) ** 2)),
    "abs": lambda x: float(np.sum(np.abs(x - 0.25)) + 0.1 * np.max(np.abs(x))),
    "rosenbrock": lambda x: float(
        np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2) + (x[0] - 1.0) ** 2
    ),
    "plateaus": lambda x: float(np.round(np.sum(x**2), 1)),
}


class TestNelderMeadAgainstScipy:
    """The in-package Nelder-Mead against scipy's, the oracle it follows."""

    @settings(max_examples=200)
    @given(
        name=st.sampled_from(sorted(NELDER_MEAD_OBJECTIVES)),
        x0=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)),
            min_size=1,
            max_size=4,
        ),
        max_iterations=st.integers(min_value=1, max_value=300),
        xatol=st.floats(min_value=1e-8, max_value=1e-2),
        fatol=st.floats(min_value=1e-8, max_value=1e-2),
    )
    def test_bitwise_equal_results(self, name, x0, max_iterations, xatol, fatol):
        objective = NELDER_MEAD_OBJECTIVES[name]
        x0 = np.array(x0)
        _assert_bitwise_equal(
            nelder_mead(objective, x0, max_iterations, xatol, fatol),
            _scipy_nelder_mead(objective, x0, max_iterations, xatol, fatol),
        )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_iteration_cap(self, dim):
        objective = NELDER_MEAD_OBJECTIVES["rosenbrock"]
        x0 = np.full(dim, -1.2)
        port = nelder_mead(objective, x0, 5, 1e-8, 1e-8)
        assert port.nit == 5 and not port.success
        _assert_bitwise_equal(port, _scipy_nelder_mead(objective, x0, 5, 1e-8, 1e-8))

    def test_shrink(self):
        # a non-shrink iteration evaluates at most two points, so the excess
        # evaluations come from shrinks, which evaluate one per moved vertex
        objective = NELDER_MEAD_OBJECTIVES["plateaus"]
        x0 = np.array([1.0, 2.0, 0.0])
        port = nelder_mead(objective, x0, 100, 1e-4, 1e-4)
        assert port.nfev > x0.size + 1 + 2 * (port.nit - 1)
        _assert_bitwise_equal(port, _scipy_nelder_mead(objective, x0, 100, 1e-4, 1e-4))

    def test_fit_objective(self, monkeypatch):
        # restart 0 of the default fit: the fit's own objective from the log
        # of REFERENCE_MODEL, with the fit's budget and tolerances
        calls = []

        def record(objective, x0, config):
            calls.append((objective, x0, config))
            return 0, SimplexResult(x=x0, fun=objective(x0), nit=1, nfev=1, success=True)

        monkeypatch.setattr(malusfit, "minimize", record)
        fit()
        (objective, x0, config), = calls
        reference = [REFERENCE_MODEL.a, REFERENCE_MODEL.e, REFERENCE_MODEL.c]
        np.testing.assert_array_equal(x0, np.log(reference))
        xatol = np.sqrt(_FATOL) / 10.0
        port = nelder_mead(objective, x0, config.max_iterations, xatol, _FATOL)
        assert port.success
        _assert_bitwise_equal(
            port, _scipy_nelder_mead(objective, x0, config.max_iterations, xatol, _FATOL)
        )


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


def _pool_size(restarts, cpus):
    """Processes `minimize` starts: one per block of ceil(restarts / cpus), if above 1."""
    workers = math.ceil(restarts / math.ceil(restarts / cpus))
    return workers if workers > 1 else 0


def _plateau_at_start(x):
    # 1 within 0.05 of the origin, 0 elsewhere: restart 0 (from the origin)
    # ends at 1, while every perturbed start ties at 0
    return 1.0 if abs(x[0]) < 0.05 else 0.0


def _tilted_double_well(x):
    return (x[0] ** 2 - 0.09) ** 2 + 0.01 * x[0] + 0.02 * x[1] ** 2


def _fit_bits(result):
    params = result.params
    floats = [params.a, params.e, params.c, result.residual, result.intensity_ratio_at_fit]
    return (
        np.array(floats).tobytes(),
        result.grid.tobytes(),
        (result.objective, result.converged, result.best_restart, result.iterations),
    )


WORKER_OBJECTIVES = {"plateau": (_plateau_at_start, 1), "double-well": (_tilted_double_well, 2)}


class TestRestartWorkers:
    """Restarts on a pool of forked workers: the same bits for 1, 2 and 3
    processes."""

    @pytest.mark.parametrize("name", sorted(WORKER_OBJECTIVES))
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4])
    def test_minimize_does_not_depend_on_worker_count(self, monkeypatch, name, restarts):
        objective, dim = WORKER_OBJECTIVES[name]
        config = SearchConfig(restarts=restarts, max_iterations=200, rng=RngStream(3))
        outcomes = []
        started = _count_process_starts(monkeypatch)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(malusfit, "_usable_cpus", lambda: cpus)
            started.clear()
            outcomes.append(minimize(objective, np.full(dim, 0.0), config))
            assert len(started) == _pool_size(restarts, cpus)
            _assert_no_child_processes()
        (best, result), *others = outcomes
        for other_best, other in others:
            assert other_best == best
            _assert_bitwise_equal(other, result)
        if name == "plateau":
            # restarts 1, 2 and 3 all tie at 0; the earliest wins, wherever
            # it ran (on a pool worker for 2 and 3 processes)
            starts = [
                malusfit._RESTART_SPREAD * config.rng.substream(r).generator().standard_normal(1)
                for r in range(1, restarts)
            ]
            assert all(abs(start[0]) >= 0.05 for start in starts)
            assert (best, result.fun) == ((1, 0.0) if restarts > 1 else (0, 1.0))

    @pytest.mark.parametrize("restarts", [1, 2, 3, 4])
    def test_fit_does_not_depend_on_worker_count(self, monkeypatch, restarts):
        config = SearchConfig(restarts=restarts, max_iterations=12, rng=RngStream(2))
        grid = np.deg2rad([0.0, 30.0, 60.0, 90.0])
        results = []
        started = _count_process_starts(monkeypatch)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(malusfit, "_usable_cpus", lambda: cpus)
            started.clear()
            results.append(fit(grid=grid, config=config))
            assert len(started) == _pool_size(restarts, cpus)
            _assert_no_child_processes()
        first, *others = [_fit_bits(result) for result in results]
        assert all(other == first for other in others)

    def test_no_process_starts_without_a_block(self, monkeypatch):
        # 4 restarts on 3 CPUs go out in blocks of ceil(4 / 3) = 2, so a
        # third process would get no block and is never started
        config = SearchConfig(restarts=4, max_iterations=200, rng=RngStream(3))
        x0 = np.zeros(2)
        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: 1)
        expected_best, expected = minimize(_tilted_double_well, x0, config)
        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: 3)
        started = _count_process_starts(monkeypatch)
        best, result = minimize(_tilted_double_well, x0, config)
        assert len(started) == 2
        _assert_no_child_processes()
        assert best == expected_best
        _assert_bitwise_equal(result, expected)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # only the perturbed starts raise, so the error comes from restart 1,
        # which a worker runs for 2 and 3 processes
        def objective(x):
            if abs(x[0]) > 0.05:
                raise QuadratureConvergenceError(f"diverged at {x[0]!r}", float(x[0]), 0.5)
            return x[0] ** 2

        config = SearchConfig(restarts=4, max_iterations=50, rng=RngStream(3))
        errors = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(malusfit, "_usable_cpus", lambda: cpus)
            with pytest.raises(QuadratureConvergenceError) as caught:
                minimize(objective, np.array([0.0]), config)
            errors.append(caught.value)
            _assert_no_child_processes()
        draw = config.rng.substream(1).generator().standard_normal(1)[0]
        for error in errors:
            assert type(error) is QuadratureConvergenceError
            assert error.value == malusfit._RESTART_SPREAD * draw
            assert error.args == errors[0].args
            assert error.error_estimate == 0.5

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        caller = os.getpid()

        def objective(x):
            if os.getpid() != caller:
                os._exit(3)
            return x[0] ** 2

        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: 2)
        with pytest.raises(BrokenProcessPool):
            minimize(objective, np.array([0.0]), SearchConfig(restarts=2, max_iterations=50))
        _assert_no_child_processes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_earliest_restart_error_wins_not_the_first_raised(self, monkeypatch, cpus):
        # restart 0 (from the origin) raises after a sleep, the perturbed
        # restarts at once: on a pool, restart 0's error arrives last, yet it
        # is the one that reaches the caller
        def objective(x):
            if abs(x[0]) < 0.05:
                time.sleep(0.2)
                raise ValueError("restart 0")
            raise ValueError("perturbed restart")

        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: cpus)
        config = SearchConfig(restarts=3, max_iterations=50, rng=RngStream(3))
        with pytest.raises(ValueError, match="^restart 0$"):
            minimize(objective, np.array([0.0]), config)
        _assert_no_child_processes()

    def test_interrupt_ends_every_workers_block(self, monkeypatch, tmp_path):
        # each restart leaves one file and raises KeyboardInterrupt, as one
        # Ctrl-C to the process group does in every worker: each worker's
        # block of 3 restarts stops at its first, and no other restart starts
        def objective(x):
            os.close(tempfile.mkstemp(dir=tmp_path)[0])
            raise KeyboardInterrupt

        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: 2)
        config = SearchConfig(restarts=6, max_iterations=50, rng=RngStream(3))
        with pytest.raises(KeyboardInterrupt):
            minimize(objective, np.array([0.0]), config)
        _assert_no_child_processes()
        assert len(list(tmp_path.iterdir())) == 2

    def test_platform_without_fork_runs_every_restart_in_the_caller(self, monkeypatch):
        config = SearchConfig(restarts=2, max_iterations=200, rng=RngStream(3))
        x0 = np.zeros(2)
        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: 2)
        expected_best, expected = minimize(_tilted_double_well, x0, config)
        monkeypatch.delattr(os, "fork")
        started = _count_process_starts(monkeypatch)
        best, result = minimize(_tilted_double_well, x0, config)
        assert started == []
        assert best == expected_best
        _assert_bitwise_equal(result, expected)

    def test_daemonic_caller_runs_every_restart_itself(self, monkeypatch):
        # a daemonic process may not start children, so a fit inside a
        # multiprocessing pool worker keeps its restarts in that process
        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: 2)
        config = SearchConfig(restarts=2, max_iterations=200, rng=RngStream(3))
        x0 = np.zeros(2)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        daemon = context.Process(
            target=lambda: sender.send(minimize(_tilted_double_well, x0, config)), daemon=True
        )
        daemon.start()
        sender.close()
        best, result = receiver.recv()
        daemon.join()
        receiver.close()
        assert daemon.exitcode == 0
        expected_best, expected = minimize(_tilted_double_well, x0, config)
        assert best == expected_best
        _assert_bitwise_equal(result, expected)
        _assert_no_child_processes()

    def test_grid_outside_the_window_fails_before_any_worker_starts(self, monkeypatch):
        monkeypatch.setattr(malusfit, "_usable_cpus", lambda: 2)
        started = _count_process_starts(monkeypatch)
        with pytest.raises(AngleDomainError, match="alpha"):
            fit(grid=np.deg2rad([0.0, 45.0, 100.0]), config=SearchConfig(restarts=2))
        assert started == []
        _assert_no_child_processes()


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
        # the frozen run used the fit's own Nelder-Mead tolerance
        assert cfg["tolerance"] == _FATOL
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

    def test_zero_offset_start_is_accepted(self):
        start = StretchedExponentialModel(a=2.6, e=2.2, c=0.0)
        result = fit(start=start, config=LIGHT_SEARCH)
        assert np.isfinite(result.residual)
        assert result.params.c >= 0.0
        assert result.residual <= residual(start, spec=FIT_QUADRATURE) + 1e-12

    def test_least_squares_objective(self):
        result = fit(config=LIGHT_SEARCH, objective="least-squares")
        assert result.objective == "least-squares"
        start_rms = residual(REFERENCE_MODEL, spec=FIT_QUADRATURE, objective="least-squares")
        assert result.residual <= start_rms + 1e-12

    def test_result_fields(self):
        result = fit(config=LIGHT_SEARCH)
        assert isinstance(result.params, StretchedExponentialModel)
        assert result.objective == "chebyshev"
        np.testing.assert_array_equal(result.grid, default_angle_grid())
        assert 0.0 < result.intensity_ratio_at_fit < 1.0
        assert isinstance(result.converged, bool)
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
        # the objective is a flat 4.0 out there, which the search would report
        # as a converged residual, above the start's own
        with pytest.raises(ParameterError, match="outside the fit's box"):
            fit(start=start, config=LIGHT_SEARCH)

    def test_start_whose_residual_cannot_be_computed_is_an_error(self):
        # inside the box, but its residual raises QuadratureConvergenceError at
        # FIT_QUADRATURE, which the objective would hide behind its 4.0
        start = StretchedExponentialModel(1e5, 2.2, 45.0)
        with pytest.raises(ParameterError, match="residual at start .* cannot be computed"):
            fit(start=start, grid=np.deg2rad([0.0, 30.0, 60.0, 90.0]), config=LIGHT_SEARCH)

    def test_empty_grid_is_an_error(self):
        # the same error as residual's, not the objective's 4.0 sentinel
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

    def test_default_search_budget(self):
        assert FIT_SEARCH.restarts == 2
        assert FIT_SEARCH.max_iterations == 400
        assert _FATOL == 1e-6
        assert FIT_QUADRATURE.panels == 512
