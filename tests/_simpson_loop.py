"""Per-piece composite Simpson loop, kept as an oracle for the batched kernel.

This is the pair-curve quadrature as it was before `bellhv.quadrature`
batched its rows and reused nodes across levels: every refinement level
rebuilds its nodes with `np.linspace` and re-evaluates all of them, and
`pair_transmission` integrates one angle's pieces one at a time through the
validating `TransmissionModel.probabilities`.  `expected_coincidence_probability`
is the Monte Carlo's wrapped-convention rate as it was before it shared the
pair curve's kernel: its own split points, gathered in a set, and one scalar
integral per piece through `TransmissionModel.probabilities_wrapped`.  None
of this shares a loop, split rule, node builder or sum with the library, and
the library must match it bit for bit.
"""

import numpy as np

from bellhv.angles import HALF_WINDOW, require_deviation_angle
from bellhv.errors import DegenerateModelError, ParameterError, QuadratureConvergenceError
from bellhv.quadrature import DEFAULT_QUADRATURE


def _evaluate(f, x):
    try:
        values = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != x.shape:
        values = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(values)):
        raise ParameterError("integrand returned non-finite values")
    return values


def _simpson(f, lo, hi, panels):
    x = np.linspace(lo, hi, panels + 1)
    y = _evaluate(f, x)
    h = (hi - lo) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def integrate(f, lo, hi, spec=None):
    spec = spec or DEFAULT_QUADRATURE
    lo = float(lo)
    hi = float(hi)
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
        "no convergence", value=value, error_estimate=float(estimate)
    )


def pair_transmission(model, alpha, spec=None):
    alpha = require_deviation_angle(float(alpha), "alpha")

    def integrand(lam):
        return model.probabilities(lam) * model.probabilities(
            np.clip(alpha - lam, -HALF_WINDOW, HALF_WINDOW)
        )

    interior = {0.0, alpha, alpha - HALF_WINDOW, alpha + HALF_WINDOW}
    splits = sorted(
        {-HALF_WINDOW, HALF_WINDOW} | {s for s in interior if -HALF_WINDOW < s < HALF_WINDOW}
    )
    total = 0.0
    for lo, hi in zip(splits[:-1], splits[1:]):
        if abs(alpha - 0.5 * (lo + hi)) > HALF_WINDOW:
            continue
        piece, _ = integrate(integrand, lo, hi, spec)
        total += piece
    return total


def normalized_pair_curve(model, alphas, spec=None):
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    reference = pair_transmission(model, 0.0, spec)
    if reference <= 0.0:
        raise DegenerateModelError("pair transmission at alpha = 0 vanishes")
    out = np.empty_like(alphas)
    for i, alpha in enumerate(alphas):
        out[i] = 1.0 if alpha == 0.0 else pair_transmission(model, alpha, spec) / reference
    return out


def expected_coincidence_probability(model, angle_a, angle_b, spec=None):
    angle_a = require_deviation_angle(float(angle_a), "angle_a")
    angle_b = require_deviation_angle(float(angle_b), "angle_b")

    def integrand(lam):
        return model.probabilities_wrapped(lam - angle_a) * model.probabilities_wrapped(
            lam - angle_b
        )

    interior = set()
    for theta in (angle_a, angle_b):
        for candidate in (theta, theta - HALF_WINDOW, theta + HALF_WINDOW):
            if -HALF_WINDOW < candidate < HALF_WINDOW:
                interior.add(float(candidate))
    splits = sorted({-HALF_WINDOW, HALF_WINDOW} | interior)
    total = 0.0
    for lo, hi in zip(splits[:-1], splits[1:]):
        piece, _ = integrate(integrand, lo, hi, spec)
        total += piece
    return total / np.pi
