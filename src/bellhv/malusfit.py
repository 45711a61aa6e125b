"""Fitting the transmission parameters against the cosine-squared law.

The figure of merit is the worst-case (Chebyshev) deviation of the
normalized pair curve P(alpha)/P(0) from cos^2(alpha) on a degree grid; a
least-squares variant is available for smoother landscapes.  `fit` runs a
seeded multi-restart Nelder-Mead search (`minimize`) in log-parameter space,
which keeps all three parameters positive without constraints and equalizes
their scales.  scipy is imported on the first search, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import ParameterError, QuadratureConvergenceError
from .quadrature import QuadratureSpec
from .rng import SearchConfig
from .transmission import (
    REFERENCE_PARAMS,
    StretchedExponentialModel,
    TransmissionModel,
    TransmissionParams,
    default_angle_grid,
    intensity_ratio,
    malus,
    normalized_pair_curve,
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


def residual(
    model_or_params: Union[TransmissionModel, TransmissionParams],
    grid: Optional[np.ndarray] = None,
    spec: Optional[QuadratureSpec] = None,
    objective: str = "chebyshev",
) -> float:
    """Deviation of the normalized pair curve from cos^2 on the grid.

    chebyshev: max absolute deviation.  least-squares: root mean square.
    """
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {OBJECTIVES}")
    if isinstance(model_or_params, TransmissionParams):
        model: TransmissionModel = StretchedExponentialModel(model_or_params)
    elif isinstance(model_or_params, TransmissionModel):
        model = model_or_params
    else:
        raise ParameterError("expected a TransmissionModel or TransmissionParams")
    grid = default_angle_grid() if grid is None else np.atleast_1d(np.asarray(grid, float))
    if grid.size == 0:
        raise ParameterError("grid must contain at least one angle")
    deviations = normalized_pair_curve(model, grid, spec) - malus(grid)
    if objective == "chebyshev":
        return float(np.abs(deviations).max())
    return float(np.sqrt(np.mean(deviations**2)))


@dataclass(frozen=True, eq=False)
class FitResult:
    params: TransmissionParams
    residual: float
    objective: str
    grid: np.ndarray
    intensity_ratio_at_fit: float
    converged: bool
    best_restart: int
    iterations: int


def _params_from_log(x: np.ndarray) -> TransmissionParams:
    return TransmissionParams(a=float(np.exp(x[0])), e=float(np.exp(x[1])), c=float(np.exp(x[2])))


def minimize(
    objective: Callable[[np.ndarray], float], x0: np.ndarray, config: SearchConfig
) -> Tuple[int, "scipy.optimize.OptimizeResult"]:
    """Nelder-Mead from x0, then from `config.restarts - 1` perturbed starts.

    Restart r >= 1 starts at x0 plus _RESTART_SPREAD times normal draws from
    `config.rng.substream(r)`.  Returns the index of the best restart (the
    earliest on ties) and scipy's result for it.  Restart 0 keeps x0 as a
    simplex vertex and Nelder-Mead never loses its best vertex, so the
    result is never worse than x0.
    """
    # imported here so that importing bellhv does not pay for scipy.optimize
    import scipy.optimize

    best = None
    for restart in range(config.restarts):
        start = x0
        if restart > 0:
            draws = config.rng.substream(restart).generator().standard_normal(x0.size)
            start = x0 + _RESTART_SPREAD * draws
        # Nelder-Mead stops only when BOTH simplex spreads are met, so a
        # fixed tiny xatol would block termination on flat valleys where the
        # simplex stays elongated; tie it to the value tolerance instead.
        result = scipy.optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iterations,
                "fatol": _FATOL,
                "xatol": np.sqrt(_FATOL) / 10.0,
                "disp": False,
            },
        )
        if best is None or result.fun < best[1].fun:
            best = (restart, result)
    return best


def fit(
    start: TransmissionParams = REFERENCE_PARAMS,
    grid: Optional[np.ndarray] = None,
    spec: Optional[QuadratureSpec] = None,
    config: Optional[SearchConfig] = None,
    objective: str = "chebyshev",
) -> FitResult:
    """Minimize the cos^2 residual over (a, e, c) from a starting triple.

    The returned residual can never exceed the starting triple's residual:
    the start is always among the evaluated candidates.
    """
    if not isinstance(start, TransmissionParams):
        raise ParameterError("start must be a TransmissionParams")
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {OBJECTIVES}")
    spec = spec or FIT_QUADRATURE
    config = config or FIT_SEARCH
    grid = default_angle_grid() if grid is None else np.atleast_1d(np.asarray(grid, float))

    def objective_fn(x: np.ndarray) -> float:
        if np.any(x > 12.0) or np.any(x < _LOG_C_FLOOR):
            return 4.0  # far outside any useful regime; curve is flat there
        try:
            return residual(_params_from_log(x), grid, spec, objective)
        except (ParameterError, QuadratureConvergenceError):
            return 4.0

    x0 = np.log([start.a, start.e, max(start.c, np.exp(_LOG_C_FLOOR))])
    best_restart, result = minimize(objective_fn, x0, config)
    params = _params_from_log(result.x)
    return FitResult(
        params=params,
        residual=float(result.fun),
        objective=objective,
        grid=grid,
        intensity_ratio_at_fit=intensity_ratio(StretchedExponentialModel(params), spec),
        converged=bool(result.success),
        best_restart=best_restart,
        iterations=int(result.nit),
    )
