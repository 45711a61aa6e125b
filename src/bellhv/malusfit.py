"""Fitting the closed-form profile's (a, e, c) against the cosine-squared law.

`fit` starts from a `StretchedExponentialModel` and returns one, in
`FitResult.params`; `residual` scores any `TransmissionModel`.

The figure of merit is the worst-case (Chebyshev) deviation of the
normalized pair curve P(alpha)/P(0) from cos^2(alpha) on a degree grid; a
least-squares variant is available for smoother landscapes.  `fit` runs a
seeded multi-restart search (`minimize`) in log-parameter space, which
keeps all three parameters positive and equalizes their scales, inside the
box [_LOG_C_FLOOR, _LOG_CEILING]^3.  Each restart is an SQP method
(`_sqp`): for the Chebyshev objective each step solves a small quadratic
program on the epigraph form, minimize t subject to +-r_k(theta) <= t at
every grid angle k (`_epigraph_step`).  The residuals and their analytic
jacobian come from `transmission._lattice_pair_curve`, and the curve from
the adaptive quadrature where the lattice's estimate misses its target;
the reported residual is the adaptive quadrature's, at the returned
parameters.

At the Chebyshev optimum several angles are active at once (30 and 80
degrees for the default fit), so the gradient need not vanish there.
`converged` states a certificate instead: the min-norm point of the convex
hull of the active angles' signed gradients (`_stationarity_gap`), 0
exactly at a stationary point.  The package needs only numpy; the tests
check the search against scipy's SLSQP on the same formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .angles import _real_array
from .errors import ParameterError, QuadratureConvergenceError
from .quadrature import QuadratureSpec
from .rng import SearchConfig
from .transmission import (
    REFERENCE_MODEL,
    StretchedExponentialModel,
    TransmissionModel,
    _lattice_pair_curve,
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

# a restart's first step bound, and the most it may grow to, in log-parameters
_FIRST_STEP = 0.5
_MAX_STEP = 4.0

# a restart stops when its model predicts a smaller decrease than this
_PREDICTED_FLOOR = 1e-15

# a chebyshev residual within this of the largest is active in the certificate
_ACTIVE_BAND = 1e-7

# the largest stationarity gap that `fit` reports as converged
_STATIONARY_GAP = 1e-6

# working-set changes allowed in one quadratic subproblem
_QP_ITERATIONS = 100

# relative size below which a QP step, or a row's rate along it, is round-off
_ROUND_OFF = 1e-12

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
    return _merit(normalized_pair_curve(model, grid, spec) - malus(grid), objective)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of `fit`.

    converged: the stationarity gap is at most _STATIONARY_GAP;
    stationarity_gap: the certificate's gap at params (`_stationarity_gap`);
    active: the indices into grid of the angles whose deviation attains the
    chebyshev residual (empty for least-squares); iterations: the best
    restart's.
    """

    params: StretchedExponentialModel
    residual: float
    objective: str
    grid: np.ndarray
    intensity_ratio_at_fit: float
    converged: bool
    stationarity_gap: float
    active: Tuple[int, ...]
    best_restart: int
    iterations: int


def _params_from_log(x: np.ndarray) -> StretchedExponentialModel:
    return StretchedExponentialModel(
        a=float(np.exp(x[0])), e=float(np.exp(x[1])), c=float(np.exp(x[2]))
    )


class SearchResult(NamedTuple):
    """Outcome of one restart of `minimize`.

    x: the last accepted point; fun: its objective value; nit: iterations;
    gap: the stationarity gap at x (`_stationarity_gap`); active: the
    indices of the residuals whose magnitude attains fun, for the
    chebyshev objective (empty for least-squares).
    """

    x: np.ndarray
    fun: float
    nit: int
    gap: float
    active: Tuple[int, ...]


def _epigraph_step(
    hessian: np.ndarray, slopes: np.ndarray, offsets: np.ndarray, lower, upper
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Minimize t + d'Hd / 2 subject to slopes d + offsets <= t and lower <= d <= upper.

    Returns d, t and each slopes row's multiplier (they sum to 1; rows with
    a repeated slope share theirs through the one of largest offset).  The
    bounds must admit d = 0; infinite ones add no row.  The primal
    active-set method (Nocedal & Wright, Numerical Optimization, 2nd ed.,
    algorithm 16.3) starts at d = 0, t = max(offsets), with that row held
    at equality: some epigraph row stays held, so H > 0 makes every
    equality-constrained step well posed.
    """
    n = hessian.shape[0]
    # rows with one slope (as from a grid that holds both alpha and -alpha)
    # would make the held rows dependent, and only the largest offset of
    # them can bind: keep that one, the first of equals
    order = np.lexsort(np.column_stack((-offsets, slopes)).T)  # stable
    repeated = np.all(slopes[order[1:]] == slopes[order[:-1]], axis=1)
    distinct = np.sort(order[np.concatenate(([True], ~repeated))])
    above, below = np.isfinite(upper), np.isfinite(lower)
    # the rows of z = (d, t): rows z <= limits
    rows = np.zeros((distinct.size + above.sum() + below.sum(), n + 1))
    rows[: distinct.size, :n] = slopes[distinct]
    rows[: distinct.size, n] = -1.0
    rows[distinct.size :, :n] = np.vstack((np.eye(n)[above], -np.eye(n)[below]))
    limits = np.concatenate((-offsets[distinct], upper[above], -lower[below]))
    extended = np.zeros((n + 1, n + 1))
    extended[:n, :n] = hessian
    gradient = np.eye(n + 1)[n]
    top = int(np.argmax(offsets[distinct]))
    z = np.append(np.zeros(n), offsets[distinct[top]])
    held = [top]
    for _ in range(_QP_ITERATIONS):
        kkt = np.zeros((n + 1 + len(held), n + 1 + len(held)))
        kkt[: n + 1, : n + 1] = extended
        kkt[: n + 1, n + 1 :] = rows[held].T
        kkt[n + 1 :, : n + 1] = rows[held]
        rhs = np.concatenate((-(extended @ z + gradient), np.zeros(len(held))))
        solution = np.linalg.solve(kkt, rhs)
        p, multipliers = solution[: n + 1], solution[n + 1 :]
        # a step that is round-off of 0 (as when the held rows pin z) stays
        # put; a row whose rate along the step is round-off of its terms is
        # parallel to it (as rows dependent on the held ones are)
        if np.max(np.abs(p)) > _ROUND_OFF * (1.0 + np.max(np.abs(z))):
            along = rows @ p
            along[held] = 0.0
            blocking = np.flatnonzero(along > _ROUND_OFF * (np.abs(rows) @ np.abs(p)))
            # the longest step toward the held rows' minimum that every
            # other row allows
            ratios = np.maximum(limits[blocking] - rows[blocking] @ z, 0.0) / along[blocking]
            if ratios.size and ratios.min() < 1.0:
                first = int(np.argmin(ratios))
                z = z + ratios[first] * p
                held.append(int(blocking[first]))
                continue
            z = z + p
        if multipliers.min() >= 0.0:
            break
        dropped = int(np.argmin(multipliers))
        held.pop(dropped)
        multipliers = np.delete(multipliers, dropped)
    weights = np.zeros(len(rows))
    weights[held] = multipliers
    spread = np.zeros(len(slopes))
    spread[distinct] = weights[: distinct.size]
    return z[:n], z[n], spread


def _model_step(B, r, J, lower, upper, objective: str):
    """The quadratic model's step within the bounds: (d, model value, weights).

    chebyshev: the epigraph form, t >= +-(r + J d); least-squares: the root
    mean square's linearization, a single epigraph row.  The model value is
    t + d'Bd / 2, and the weights w make J'w the gradient of the
    Lagrangian: the signed multipliers of the epigraph rows, or
    `_rms_weights(r)`.
    """
    if objective == "chebyshev":
        d, t, multipliers = _epigraph_step(B, np.vstack((J, -J)), np.concatenate((r, -r)), lower, upper)
        weights = multipliers[: r.size] - multipliers[r.size :]
    else:
        weights = _rms_weights(r)
        d, t, _ = _epigraph_step(B, (J.T @ weights)[None], np.array([_merit(r, objective)]), lower, upper)
    return d, t + 0.5 * d @ B @ d, weights


def _rms_weights(r: np.ndarray) -> np.ndarray:
    """w with J'w the gradient of the root mean square of r (0 where r = 0)."""
    return r / (r.size * max(np.sqrt(np.mean(r**2)), np.finfo(float).tiny))


def _merit(r: np.ndarray, objective: str) -> float:
    """The value the search lowers: max |r|, or the root mean square."""
    if objective == "chebyshev":
        return float(np.abs(r).max())
    return float(np.sqrt(np.mean(r**2)))


def _stationarity_gap(r, J, x, objective: str) -> Tuple[float, Tuple[int, ...]]:
    """The certificate at x: (gap, active residuals).

    chebyshev: the residuals within _ACTIVE_BAND of max |r| are active, and
    the gap is the norm of the min-norm point of the convex hull of their
    signed gradients sign(r_k) J_k; least-squares: the norm of the
    gradient of the root mean square.  A coordinate at the box's edge may
    keep a gradient component that points out of the box.  The gap is 0
    exactly at a stationary point (Clarke's first-order condition); the
    min-norm point is the epigraph step with H = I and no offsets.
    """
    if objective == "chebyshev":
        active = np.flatnonzero(np.abs(r) >= np.abs(r).max() - _ACTIVE_BAND)
        slopes = np.sign(r[active])[:, None] * J[active]
    else:
        active = np.empty(0, dtype=int)
        slopes = (J.T @ _rms_weights(r))[None]
    lower = np.where(x <= _LOG_C_FLOOR, 0.0, -np.inf)
    upper = np.where(x >= _LOG_CEILING, 0.0, np.inf)
    d = _epigraph_step(np.eye(x.size), slopes, np.zeros(len(slopes)), lower, upper)[0]
    return float(np.linalg.norm(d)), tuple(int(k) for k in active)


def _bfgs(B: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Powell's damped BFGS update of B for the step s and gradient change y.

    The update keeps B positive definite in exact arithmetic; one that
    leaves B singular to round-off is skipped.
    """
    Bs = B @ s
    sBs = s @ Bs
    if not sBs > 0.0:
        return B
    if s @ y < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - s @ y)
        y = theta * y + (1.0 - theta) * Bs
    updated = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / (s @ y)
    eigenvalues = np.linalg.eigvalsh(updated)
    return updated if eigenvalues[0] > _ROUND_OFF * eigenvalues[-1] else B


def _sqp(residuals: Callable, start: np.ndarray, max_iterations: int, objective: str) -> SearchResult:
    """One restart: SQP with step bounds from start, inside the box.

    Each iteration solves the quadratic model (`_model_step`) within the
    step bound and the box and tries the step.  The ratio rho of the actual
    to the predicted decrease accepts the step above 0.1, halves the bound
    below 0.25 and doubles it, up to _MAX_STEP, above 0.75 at the bound.  A
    point whose residuals cannot be computed has rho = -inf.  A chebyshev
    step that does not reach 0.75 gets one second-order correction, the
    model step with the residuals at the trial point less J d, which
    follows a curved valley of active residuals (the Maratos effect).  B is
    a damped BFGS approximation of the Lagrangian's Hessian.  The search
    stops when the model predicts less than _PREDICTED_FLOOR or at
    max_iterations; a start whose residuals cannot be computed ends it there
    with value inf.
    """
    x = np.clip(start, _LOG_C_FLOOR, _LOG_CEILING)
    first = residuals(x)
    if first is None:
        return SearchResult(x, math.inf, 0, math.inf, ())
    r, J = first
    value = _merit(r, objective)
    B = np.eye(x.size)
    bound = _FIRST_STEP
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        lower = np.maximum(_LOG_C_FLOOR - x, -bound)
        upper = np.minimum(_LOG_CEILING - x, bound)
        d, model, weights = _model_step(B, r, J, lower, upper, objective)
        predicted = value - model
        if not predicted > _PREDICTED_FLOOR:
            break
        step, trial = d, residuals(x + d)
        ratio = _decrease(value, trial, objective) / predicted
        if objective == "chebyshev" and ratio < 0.75 and trial is not None:
            corrected = _model_step(B, trial[0] - J @ d, J, lower, upper, objective)[0]
            retry = residuals(x + corrected)
            retry_ratio = _decrease(value, retry, objective) / predicted
            if retry_ratio > ratio:
                step, trial, ratio = corrected, retry, retry_ratio
        if trial is not None:
            r_new, J_new = trial
            if objective == "chebyshev":
                y = (J_new - J).T @ weights
            else:
                y = J_new.T @ _rms_weights(r_new) - J.T @ weights
            B = _bfgs(B, step, y)
        length = np.max(np.abs(step))
        if ratio < 0.25:
            bound = 0.5 * length
        elif ratio > 0.75 and length >= 0.99 * bound:
            bound = min(2.0 * bound, _MAX_STEP)
        if ratio > 0.1:
            x, r, J, value = x + step, r_new, J_new, _merit(r_new, objective)
    gap, active = _stationarity_gap(r, J, x, objective)
    return SearchResult(x, value, iterations, gap, active)


def _decrease(value: float, trial, objective: str) -> float:
    """How far the trial residuals lower the value; -inf where they cannot be computed."""
    return -math.inf if trial is None else value - _merit(trial[0], objective)


def minimize(
    residuals: Callable[[np.ndarray], Optional[Tuple[np.ndarray, np.ndarray]]],
    x0: np.ndarray,
    config: SearchConfig,
    objective: str,
) -> Tuple[int, SearchResult]:
    """SQP (`_sqp`) from x0, then from `config.restarts - 1` perturbed starts.

    residuals(x) returns the residual vector r and its jacobian J (a row
    per residual) at x, or None where they cannot be computed: no restart
    accepts such a point.  objective "chebyshev" minimizes max |r_k|,
    "least-squares" the root mean square.  Every point lies in the box
    [_LOG_C_FLOOR, _LOG_CEILING]^n.  Restart r >= 1 starts at x0
    plus _RESTART_SPREAD times normal draws from `config.rng.substream(r)`,
    moved into the box.  Returns the index of the best restart (the lowest
    value, the earliest on ties) and its result.  Each restart accepts only
    steps that lower its value, so restart 0 ends no worse than x0.

    The restarts run one after another in the caller: an error that
    residuals raise ends the search there, and no later restart starts.
    """
    results = []
    for restart in range(config.restarts):
        start = x0
        if restart > 0:
            draws = config.rng.substream(restart).generator().standard_normal(x0.size)
            start = x0 + _RESTART_SPREAD * draws
        results.append(_sqp(residuals, start, config.max_iterations, objective))
    best = min(range(len(results)), key=lambda r: results[r].fun)
    return best, results[best]


def fit(
    start: StretchedExponentialModel = REFERENCE_MODEL,
    grid: Optional[np.ndarray] = None,
    config: Optional[SearchConfig] = None,
    objective: str = "chebyshev",
) -> FitResult:
    """Minimize the cos^2 residual over (a, e, c) from a starting triple.

    The search (`minimize`) reads each candidate's curve and jacobian from
    `transmission._lattice_pair_curve`, and the curve from
    `normalized_pair_curve` at `FIT_QUADRATURE` where the lattice's
    estimate misses its refine_until; where that does not converge either,
    the candidate is rejected.  The returned residual is `residual(params,
    grid, FIT_QUADRATURE, objective)` of the returned parameters, and the
    intensity ratio `intensity_ratio(params, FIT_QUADRATURE)`; where either
    does not converge after all, the fit returns its start, with 0
    iterations.  `converged` states the certificate: the stationarity gap
    at the returned parameters is at most _STATIONARY_GAP.

    Raises ParameterError for a start outside the search box: a, e or c
    above exp(_LOG_CEILING), or a or e below exp(_LOG_C_FLOOR) (c below it
    is raised to it, so c = 0 still fits); and for a start whose own
    residual or intensity ratio does not converge at FIT_QUADRATURE.
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

    def report(x: np.ndarray):
        """The parameters at x, and their residual and intensity ratio at FIT_QUADRATURE."""
        params = _params_from_log(x)
        value = residual(params, grid, FIT_QUADRATURE, objective)
        return params, value, intensity_ratio(params, FIT_QUADRATURE)

    # a bad grid or start must fail here, before any search
    try:
        report(x0)
    except QuadratureConvergenceError as exc:
        raise ParameterError(
            f"the residual or intensity ratio at start {start} cannot be computed: {exc}"
        ) from exc
    target = malus(grid)

    def residuals(x: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        model = _params_from_log(x)
        lattice = _lattice_pair_curve(model, grid)
        curve = lattice.curve
        if not lattice.estimate <= FIT_QUADRATURE.refine_until:  # as at a cusp, e < 1
            try:
                curve = normalized_pair_curve(model, grid, FIT_QUADRATURE)
            except QuadratureConvergenceError:
                return None
        return curve - target, lattice.jacobian

    best_restart, result = minimize(residuals, x0, config, objective)
    try:
        params, value, ratio = report(result.x)
    except QuadratureConvergenceError:
        best_restart, result = 0, _sqp(residuals, x0, 0, objective)
        params, value, ratio = report(x0)
    return FitResult(
        params=params,
        residual=value,
        objective=objective,
        grid=grid,
        intensity_ratio_at_fit=ratio,
        converged=bool(result.gap <= _STATIONARY_GAP),
        stationarity_gap=result.gap,
        active=result.active,
        best_restart=best_restart,
        iterations=int(result.nit),
    )
