"""Fitting the transmission parameters against the cosine-squared law.

The figure of merit is the worst-case (Chebyshev) deviation of the
normalized pair curve P(alpha)/P(0) from cos^2(alpha) on a degree grid; a
least-squares variant is available for smoother landscapes.  `fit` runs the
shared multi-restart simplex search in log-parameter space, which keeps all
three parameters positive without constraints and equalizes their scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ParameterError, QuadratureConvergenceError
from .optimize import minimize
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
# restart, with a value tolerance matched to the residual scale (~1e-2) so
# the simplex can actually terminate on the shallow valley floor
FIT_SEARCH = SearchConfig(restarts=2, max_iterations=400, tolerance=1e-6)

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
    outcome = minimize(objective_fn, x0, config, perturbation=0.3)
    params = _params_from_log(outcome.x)
    return FitResult(
        params=params,
        residual=outcome.value,
        objective=objective,
        grid=grid,
        intensity_ratio_at_fit=intensity_ratio(StretchedExponentialModel(params), spec),
        converged=outcome.converged,
        best_restart=outcome.best_restart,
        iterations=outcome.iterations,
    )
