"""Seeded multi-restart local minimization.

A thin policy layer over scipy's Nelder-Mead simplex: restart 0 always starts
exactly at the caller's point, further restarts perturb it with Gaussian
noise drawn from the supplied stream, and the best vertex over all restarts
wins (ties resolved toward the earliest restart, so results are reproducible
run to run).

Nelder-Mead never discards its best vertex, so the returned value can only
improve on the starting objective.

The budget type :class:`SearchConfig` lives in :mod:`bellhv.rng`, so the
Bell-bound search can use it without this module.  scipy is imported on the
first call, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .rng import SearchConfig


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    value: float
    converged: bool
    best_restart: int
    iterations: int


def minimize(
    objective: Callable[[np.ndarray], float],
    start,
    config: Optional[SearchConfig] = None,
    perturbation: Optional[np.ndarray] = None,
) -> MinimizeResult:
    """Minimize objective from `start` with `config.restarts` seeded restarts.

    perturbation: per-coordinate Gaussian sigma for restarts >= 1; defaults
    to 0.25 * (1 + |start|).
    """
    config = config or SearchConfig()
    start = np.atleast_1d(np.asarray(start, dtype=float))
    if start.ndim != 1 or start.size == 0:
        raise ParameterError("start must be a non-empty 1-D point")
    if not np.all(np.isfinite(start)):
        raise ParameterError("start must be finite")
    if perturbation is None:
        perturbation = 0.25 * (1.0 + np.abs(start))
    else:
        perturbation = np.broadcast_to(np.asarray(perturbation, dtype=float), start.shape)

    # imported here so that importing bellhv does not pay for scipy.optimize
    import scipy.optimize

    best: Optional[MinimizeResult] = None
    for restart in range(config.restarts):
        if restart == 0:
            x0 = start
        else:
            gen = config.rng.substream(restart).generator()
            x0 = start + perturbation * gen.standard_normal(start.size)
        # Nelder-Mead stops only when BOTH simplex spreads are met, so a
        # fixed tiny xatol would block termination on flat valleys where the
        # simplex stays elongated; tie it to the value tolerance instead.
        result = scipy.optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iterations,
                "fatol": config.tolerance,
                "xatol": max(1e-9, np.sqrt(config.tolerance) / 10.0),
                "disp": False,
            },
        )
        candidate = MinimizeResult(
            x=np.asarray(result.x, dtype=float),
            value=float(result.fun),
            converged=bool(result.success),
            best_restart=restart,
            iterations=int(result.nit),
        )
        if best is None or candidate.value < best.value:
            best = candidate

    # the simplex from restart 0 contains `start` as a vertex, but keep the
    # guarantee explicit in case a backend ever violates it
    start_value = float(objective(start))
    if start_value < best.value:
        best = MinimizeResult(
            x=start.copy(),
            value=start_value,
            converged=False,
            best_restart=0,
            iterations=0,
        )
    return best
