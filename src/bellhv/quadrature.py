"""Self-contained 1-D quadrature with explicit convergence accounting.

The rule is composite Simpson, which stays robust on the kinked integrands
produced by folded transmission profiles (callers split at the kinks).
`integrate` refines by doubling the panel count until successive values
agree to `refine_until`; refusal to converge raises
:class:`QuadratureConvergenceError` carrying the best value and its estimate
rather than silently returning garbage.

The error estimate |S_2n - S_n| / 15 is the standard Richardson factor for
a fourth-order rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ParameterError, QuadratureConvergenceError


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and refinement policy for one integral.

    panels: Simpson panel count (must be even) at the first refinement
        level; each level doubles it.
    refine_until: absolute error target for the two-level estimate.
    max_refinements: doublings allowed before giving up.
    """

    panels: int = 4096
    refine_until: float = 1e-9
    max_refinements: int = 8

    def __post_init__(self):
        if not isinstance(self.panels, (int, np.integer)) or self.panels < 2:
            raise ParameterError("panels must be an integer >= 2")
        if self.panels % 2:
            raise ParameterError("composite Simpson needs an even panel count")
        if not (np.isfinite(self.refine_until) and self.refine_until > 0):
            raise ParameterError("refine_until must be a positive finite float")
        if not isinstance(self.max_refinements, (int, np.integer)) or self.max_refinements < 0:
            raise ParameterError("max_refinements must be a non-negative integer")


DEFAULT_QUADRATURE = QuadratureSpec()


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    try:
        values = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != x.shape:
        # integrand is scalar-only (raises on arrays or returns a single
        # value); fall back to a loop
        values = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(values)):
        raise ParameterError("integrand returned non-finite values")
    return values


def _simpson(f: Callable, lo: float, hi: float, panels: int) -> float:
    x = np.linspace(lo, hi, panels + 1)
    y = _evaluate(f, x)
    h = (hi - lo) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    spec: Optional[QuadratureSpec] = None,
) -> Tuple[float, float]:
    """Integrate f over [lo, hi]; return (value, error_estimate).

    Raises QuadratureConvergenceError if the estimate never reaches
    spec.refine_until within spec.max_refinements doublings.
    """
    spec = spec or DEFAULT_QUADRATURE
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ParameterError("integration limits must be finite")
    if hi < lo:
        raise ParameterError("upper limit must not precede lower limit")
    if hi == lo:
        return 0.0, 0.0

    n = spec.panels
    value = _simpson(f, lo, hi, n)
    estimate = np.inf
    for _ in range(spec.max_refinements):
        n *= 2
        refined = _simpson(f, lo, hi, n)
        estimate = abs(refined - value) / 15.0
        value = refined
        if estimate <= spec.refine_until:
            return value, estimate
    raise QuadratureConvergenceError(
        f"estimate {estimate:.3e} above target {spec.refine_until:.3e} "
        f"after {spec.max_refinements} refinements",
        value=value,
        error_estimate=float(estimate),
    )
