"""Fitting the closed-form profile's (a, e, c) against the cosine-squared law.

`fit` starts from a `StretchedExponentialModel` and returns one, in
`FitResult.params`; `residual` scores any `TransmissionModel`.

The figure of merit is the worst-case (Chebyshev) deviation of the
normalized pair curve P(alpha)/P(0) from cos^2(alpha) on a degree grid; a
least-squares variant is available for smoother landscapes.  `fit` runs a
seeded multi-restart Nelder-Mead search (`minimize`) in log-parameter space,
which keeps all three parameters positive without constraints and equalizes
their scales.

`fit` checks its start with `residual`, and its objective scores each
candidate the same way, to the bit, from a `transmission._PairCurveTable` of
the fit's grid at `FIT_QUADRATURE`: the model-independent nodes of the
pair-curve quadrature, tabulated once, so that a candidate costs one
profile evaluation per distinct folded deviation.  The table is built on
the objective's first call, so each restart process builds its own.

The simplex search is `nelder_mead`, the unbounded, non-adaptive method of
Nelder & Mead (Comput. J. 7, 308 (1965)) taken step for step from scipy
1.17.1's `minimize(method="Nelder-Mead")`: the same initial simplex, moves,
orderings and stopping test, so it returns the same x, fun, nit and nfev to
the last bit.  The tests keep scipy as its oracle; the package needs only
numpy.

The restarts are independent, so `minimize` runs them at the same time on
a pool of forked processes.  The usable CPUs, the count that sizes the
sampler's thread pool in `bellhv.montecarlo`, set the block of restarts
one worker takes, ceil(restarts / CPUs), and the pool has one worker per
block.  The pool forks its workers with the `fork` start method, so they
inherit the objective (closures and lambdas included) and only restart
indices and results are pickled.  Each restart computes the same bits in
any process, and the best is chosen by restart index (lowest value,
earliest on ties), so the result does not depend on the number of
processes.  Without `os.fork`, with one usable CPU, or inside a daemonic
process (which may not have children) the caller runs every restart itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .angles import _real_array
from .errors import ParameterError, QuadratureConvergenceError
from .montecarlo import _usable_cpus
from .quadrature import QuadratureSpec
from .rng import SearchConfig
from .transmission import (
    REFERENCE_MODEL,
    StretchedExponentialModel,
    TransmissionModel,
    _PairCurveTable,
    default_angle_grid,
    intensity_ratio,
    malus,
    normalized_pair_curve,
    require_model,
)

OBJECTIVES = ("chebyshev", "least-squares")

# fits evaluate the pair curve hundreds of times, so they use a lighter
# refinement budget than one-off curve evaluations
FIT_QUADRATURE = QuadratureSpec(panels=512, refine_until=1e-7, max_refinements=6)

# default search budget for fits: one exact-start descent plus one perturbed
# restart
FIT_SEARCH = SearchConfig(restarts=2, max_iterations=400)

# Nelder-Mead value tolerance, matched to the residual scale (~1e-2) so the
# simplex can actually terminate on the shallow valley floor
_FATOL = 1e-6

# Gaussian sigma of the log-parameter offsets of restarts >= 1
_RESTART_SPREAD = 0.3

# log(c) is pinned above this floor so c = 0 stays representable in fits
_LOG_C_FLOOR = -20.0

# no log-parameter goes above this, far outside any useful regime
_LOG_CEILING = 12.0


def _outside_box(x: np.ndarray) -> bool:
    """Whether log-parameters x leave the search box [_LOG_C_FLOOR, _LOG_CEILING]^3."""
    return bool(np.any(x > _LOG_CEILING) or np.any(x < _LOG_C_FLOOR))


def _angle_grid(grid: Optional[np.ndarray]) -> np.ndarray:
    """The default angle grid, else `grid` as a 1-D float array; never empty."""
    grid = default_angle_grid() if grid is None else np.atleast_1d(_real_array(grid, "grid"))
    if grid.size == 0:
        raise ParameterError("grid must contain at least one angle")
    return grid


def residual(
    model: TransmissionModel,
    grid: Optional[np.ndarray] = None,
    spec: Optional[QuadratureSpec] = None,
    objective: str = "chebyshev",
) -> float:
    """Deviation of the normalized pair curve from cos^2 on the grid.

    chebyshev: max absolute deviation.  least-squares: root mean square.
    """
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {OBJECTIVES}")
    require_model(model)
    grid = _angle_grid(grid)
    return _score(normalized_pair_curve(model, grid, spec), grid, objective)


def _score(curve: np.ndarray, grid: np.ndarray, objective: str) -> float:
    """The objective's deviation of a normalized pair curve on grid from cos^2."""
    deviations = curve - malus(grid)
    if objective == "chebyshev":
        return float(np.abs(deviations).max())
    return float(np.sqrt(np.mean(deviations**2)))


@dataclass(frozen=True, eq=False)
class FitResult:
    params: StretchedExponentialModel
    residual: float
    objective: str
    grid: np.ndarray
    intensity_ratio_at_fit: float
    converged: bool
    best_restart: int
    iterations: int


def _params_from_log(x: np.ndarray) -> StretchedExponentialModel:
    return StretchedExponentialModel(
        a=float(np.exp(x[0])), e=float(np.exp(x[1])), c=float(np.exp(x[2]))
    )


class SimplexResult(NamedTuple):
    """Outcome of one Nelder-Mead search.

    x: best vertex; fun: its objective value; nit: iterations, counted from
    1 as scipy counts them; nfev: objective evaluations; success: the
    simplex met both tolerances before `nit` reached the iteration cap.
    """

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iterations: int,
    xatol: float,
    fatol: float,
) -> SimplexResult:
    """Minimize objective from x0 with the Nelder-Mead simplex method.

    Reflection, expansion, contraction and shrink coefficients are 1, 2, 1/2
    and 1/2.  The search stops once every vertex lies within xatol of the
    best in every coordinate and every value within fatol of the best, or
    once the iteration count, which starts at 1, reaches max_iterations.
    The objective gets a copy of each point and must return a real scalar.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    n = x0.size
    # x0 plus one vertex per coordinate, that coordinate stretched by 5 %
    # (or set to 0.00025 where it is zero)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        vertex = x0.copy()
        vertex[k] = (1 + 0.05) * vertex[k] if vertex[k] != 0 else 0.00025
        sim[k + 1] = vertex
    nfev = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        return float(objective(np.copy(x)))

    fsim = np.array([evaluate(vertex) for vertex in sim])
    # sorted twice, as scipy does: argsort need not be stable on ties
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    iterations = 1
    while iterations < max_iterations:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = evaluate(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = evaluate(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction, kept if no worse than the reflection
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = evaluate(xc)
                shrink = not fxc <= fxr
            else:
                # inside contraction, kept if better than the worst vertex
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = evaluate(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = evaluate(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return SimplexResult(
        x=sim[0], fun=np.min(fsim), nit=iterations, nfev=nfev, success=iterations < max_iterations
    )


def _restart(
    objective: Callable[[np.ndarray], float], x0: np.ndarray, config: SearchConfig, restart: int
) -> SimplexResult:
    """Nelder-Mead from x0 for restart 0, else from restart's perturbed start."""
    start = x0
    if restart > 0:
        draws = config.rng.substream(restart).generator().standard_normal(x0.size)
        start = x0 + _RESTART_SPREAD * draws
    # Nelder-Mead stops only when BOTH simplex spreads are met, so a fixed
    # tiny xatol would block termination on flat valleys where the simplex
    # stays elongated; tie it to the value tolerance.
    return nelder_mead(
        objective, start, config.max_iterations, xatol=np.sqrt(_FATOL) / 10.0, fatol=_FATOL
    )


# (objective, x0, config) of the fit a pool worker was forked for; set only
# in pool workers, by `_inherit`
_inherited: tuple = ()


def _inherit(*restart_args) -> None:
    """Pool initializer: keep the objective, x0 and config the fork handed over."""
    global _inherited
    _inherited = restart_args


def _inherited_restart(restart: int) -> SimplexResult:
    return _restart(*_inherited, restart)


def _worker_count(restarts: int) -> int:
    """Processes for `restarts` restarts: one per block of ceil(restarts /
    usable CPUs) restarts, and only the caller where it cannot fork children.

    Sizing by blocks starts no process that would get no block: 4 restarts
    on 3 CPUs go out in blocks of 2, to 2 processes.
    """
    if not hasattr(os, "fork"):
        return 1
    workers = math.ceil(restarts / math.ceil(restarts / _usable_cpus()))
    if workers > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:  # may not have children
            return 1
    return workers


def minimize(
    objective: Callable[[np.ndarray], float], x0: np.ndarray, config: SearchConfig
) -> Tuple[int, SimplexResult]:
    """Nelder-Mead from x0, then from `config.restarts - 1` perturbed starts.

    Restart r >= 1 starts at x0 plus _RESTART_SPREAD times normal draws from
    `config.rng.substream(r)`.  Returns the index of the best restart (the
    lowest value, the earliest on ties) and its result.  Restart 0 keeps x0
    as a simplex vertex and Nelder-Mead never loses its best vertex, so the
    result is never worse than x0.

    The restarts go out in contiguous blocks of ceil(restarts / usable
    CPUs), one per worker.  With w = ceil(restarts / block) above 1, a pool
    of w processes, forked with the `fork` start method, runs every restart:
    the workers get the objective through the fork, and only restart indices
    and `SimplexResult`s are pickled.  A block stops at its first error, so
    one Ctrl-C (which reaches every worker) ends the whole fit at once; any
    other error still waits for the other workers' blocks.  Every
    worker has exited when this returns or raises.  Results come back in
    restart order, so if objectives raise, the error of the earliest restart
    that raised reaches the caller, as in a serial run, and the error as
    well as the result is the same for every w.
    """
    workers = _worker_count(config.restarts)
    if workers == 1:
        results = [_restart(objective, x0, config, r) for r in range(config.restarts)]
    else:
        # imported here, not at module level: only a fit with workers needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers,
            multiprocessing.get_context("fork"),
            initializer=_inherit,
            initargs=(objective, x0, config),
        ) as pool:
            block = math.ceil(config.restarts / workers)
            results = list(pool.map(_inherited_restart, range(config.restarts), chunksize=block))
    best = min(range(len(results)), key=lambda r: results[r].fun)
    return best, results[best]


def fit(
    start: StretchedExponentialModel = REFERENCE_MODEL,
    grid: Optional[np.ndarray] = None,
    config: Optional[SearchConfig] = None,
    objective: str = "chebyshev",
) -> FitResult:
    """Minimize the cos^2 residual over (a, e, c) from a starting triple.

    Every residual, and the intensity ratio at the fit, is computed at
    `FIT_QUADRATURE`.

    The returned residual can never exceed the starting triple's residual:
    the start is always among the evaluated candidates.  Raises
    ParameterError for a start outside the search box, where the objective
    returns a flat 4.0: a, e or c above exp(_LOG_CEILING), or a or e below
    exp(_LOG_C_FLOOR) (c below it is raised to it, so c = 0 still fits); and
    for a start whose own residual does not converge at FIT_QUADRATURE.
    """
    if not isinstance(start, StretchedExponentialModel):
        raise ParameterError("start must be a StretchedExponentialModel")
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {OBJECTIVES}")
    config = config or FIT_SEARCH
    grid = _angle_grid(grid)

    x0 = np.log([start.a, start.e, max(start.c, np.exp(_LOG_C_FLOOR))])
    if _outside_box(x0):
        raise ParameterError(
            f"start {start} lies outside the fit's box: a, e, c <= exp({_LOG_CEILING:g}) "
            f"and a, e >= exp({_LOG_C_FLOOR:g})"
        )
    # the objective maps failures to 4.0, so a bad grid or start must fail here
    try:
        residual(_params_from_log(x0), grid, FIT_QUADRATURE, objective)
    except QuadratureConvergenceError as exc:
        raise ParameterError(f"the residual at start {start} cannot be computed: {exc}") from exc

    # built on the first evaluation, so a pool worker builds its own
    table = None

    def objective_fn(x: np.ndarray) -> float:
        nonlocal table
        if _outside_box(x):
            return 4.0
        if table is None:
            table = _PairCurveTable(grid, FIT_QUADRATURE)
        try:
            return _score(table.curve(_params_from_log(x)), grid, objective)
        except (ParameterError, QuadratureConvergenceError):
            return 4.0

    best_restart, result = minimize(objective_fn, x0, config)
    params = _params_from_log(result.x)
    return FitResult(
        params=params,
        residual=float(result.fun),
        objective=objective,
        grid=grid,
        intensity_ratio_at_fit=intensity_ratio(params, FIT_QUADRATURE),
        converged=bool(result.success),
        best_restart=best_restart,
        iterations=int(result.nit),
    )
