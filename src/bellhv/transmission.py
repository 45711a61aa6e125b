"""Single-photon and photon-pair transmission through ideal polarizers.

A photon carries a hidden polarization axis; lambda is the deviation between
that axis and the polarizer axis, folded into [-pi/2, pi/2].  A transmission
model assigns the probability p1(lambda) of passing one polarizer.  The
family of primary interest is the saturated stretched exponential

    p1(lambda) = 1 - (1 - E) / (1 + c E),   E = exp(-(a |lambda|)^e),

which equals 1 exactly at lambda = 0, decays to ~0 at the window edge, and
for suitable (a, e, c) makes a *pair* of polarizers reproduce the cosine
squared intensity law even though a single polarizer does not.
`StretchedExponentialModel` is this profile and the one type that holds
(a, e, c); `REFERENCE_MODEL` is its reference triple.

Pair transmission for relative analyzer angle alpha averages over a source
with uniformly distributed hidden axis:

    P(alpha) = integral over lambda of p1(lambda) * p1(alpha - lambda).

Intensity ratios divide by the half-turn measure pi.  The pair curve and
the Monte Carlo's expected coincidence rate are one integral, under two
conventions described on its kernel `_coincidence_integral`.  The kernel
sends every piece of every setting through one call to the batched Simpson
kernel :func:`bellhv.quadrature.integrate_rows`, so `pair_transmission` and
`normalized_pair_curve` each make one such call for all their angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .angles import HALF_WINDOW, degrees_grid, reduce_axis_angle, require_deviation_angle
from .errors import AngleDomainError, DegenerateModelError, ParameterError
from .quadrature import QuadratureSpec, integrate, integrate_rows


class TransmissionModel:
    """Even transmission-probability profile on the deviation window.

    Subclasses implement `_profile(folded)` for folded = |lambda| in
    [0, pi/2]; the base class handles validation, evenness, and periodic
    axis reduction.  `_profile` must be a pure, thread-safe function of its
    argument that returns a fresh float array: the Monte Carlo sampler calls
    it directly, bypassing `probabilities` and `probabilities_wrapped`, and
    the profile is clipped in place.  The sampler's bound tables call it in
    the calling thread; its workers call it, several at once, only on the
    pairs those tables leave undecided.

    A subclass may also override `_turning_points()`: the folded points in
    [0, pi/2] where the profile may change direction, so that it is monotone
    between consecutive ones.  The sampler's bound tables include the
    profile at these points.  The base class returns None, "unknown": the
    sampler then bounds nothing and evaluates every pair's profile.
    """

    def _profile(self, folded: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _turning_points(self) -> Optional[np.ndarray]:
        return None

    def probabilities(self, lam):
        """p1 evaluated on the closed window [-pi/2, pi/2]."""
        lam = require_deviation_angle(lam, "deviation angle")
        values = _clipped_profile(self, np.abs(np.atleast_1d(lam)))
        return float(values[0]) if np.ndim(lam) == 0 else values

    def probabilities_wrapped(self, lam):
        """p1 of the axis-reduced deviation; periodic with period pi."""
        return self.probabilities(reduce_axis_angle(lam))


@dataclass(frozen=True)
class StretchedExponentialModel(TransmissionModel):
    """The saturated stretched-exponential profile with parameters (a, e, c).

    a scales the deviation angle, e is the stretching exponent, c is the
    saturation strength pinning p1(0) = 1.
    """

    a: float
    e: float
    c: float

    def __post_init__(self):
        for name in ("a", "e", "c"):
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.floating, np.integer)):
                raise ParameterError(f"{name} must be a real number")
            object.__setattr__(self, name, float(value))
        if not (np.isfinite(self.a) and self.a > 0):
            raise ParameterError("a must be positive and finite")
        if not (np.isfinite(self.e) and self.e > 0):
            raise ParameterError("e must be positive and finite")
        if not (np.isfinite(self.c) and self.c >= 0):
            raise ParameterError("c must be non-negative and finite")

    def _profile(self, folded: np.ndarray) -> np.ndarray:
        a, e, c = self.a, self.e, self.c
        # algebraically identical to 1 - (1 - E)/(1 + c E) but keeps full
        # precision when E underflows and c E is large; overflow in the
        # power just saturates E at 0, which is the correct limit
        # in place on two fresh arrays: the same operations in the same order
        # as exp(-(a folded)^e) (c + 1) / (1 + c exp(...)), without the
        # temporaries (see the quadrature module on why that matters)
        with np.errstate(over="ignore", under="ignore"):
            expo = np.multiply(a, folded)
            np.power(expo, e, out=expo)
            np.negative(expo, out=expo)
            np.exp(expo, out=expo)
            denominator = np.multiply(c, expo)
            np.add(1.0, denominator, out=denominator)
            np.multiply(expo, c + 1.0, out=expo)
            return np.divide(expo, denominator, out=expo)

    def _turning_points(self) -> np.ndarray:
        # E falls with |lambda| and p1 rises with E: monotone on [0, pi/2]
        return np.empty(0)


# Reference triple: recovered by the fit module as the operating point whose
# pair curve tracks cos^2 within 0.05 (worst deviation 0.0459 at 25 degrees)
# while a single polarizer passes 44.3% of unpolarized light.
REFERENCE_MODEL = StretchedExponentialModel(a=2.6, e=2.2, c=45.0)


@dataclass(frozen=True)
class CosineSquaredModel(TransmissionModel):
    """p1 = cos^2(lambda): each polarizer alone already obeys the intensity law."""

    def _profile(self, folded: np.ndarray) -> np.ndarray:
        return np.cos(folded) ** 2

    def _turning_points(self) -> np.ndarray:
        return np.empty(0)  # monotone on [0, pi/2]


@dataclass(frozen=True, eq=False)
class TabulatedModel(TransmissionModel):
    """Profile interpolated linearly from (deviation, probability) samples.

    Nodes are folded to |lambda|; duplicates are averaged; evaluation clamps
    to the end values outside the sampled range.  At least two distinct
    folded nodes are required and all probabilities must lie in [0, 1].
    """

    nodes: Sequence[float]
    values: Sequence[float]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
            raise ParameterError("need matching 1-D nodes/values with at least two samples")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise ParameterError("nodes and values must be finite")
        folded = np.abs(require_deviation_angle(nodes, "table nodes"))
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ParameterError("table values must lie in [0, 1]")
        unique, inverse = np.unique(folded, return_inverse=True)
        if unique.size < 2:
            raise ParameterError("need at least two distinct folded nodes")
        object.__setattr__(self, "nodes", unique)
        object.__setattr__(self, "values", np.bincount(inverse, values) / np.bincount(inverse))

    def _profile(self, folded: np.ndarray) -> np.ndarray:
        return np.interp(folded, self.nodes, self.values)

    def _turning_points(self) -> np.ndarray:
        return self.nodes  # linear, so monotone, between consecutive nodes


def malus(alpha):
    """The cosine-squared intensity law, for comparison curves."""
    arr = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise AngleDomainError("alpha must be finite")
    out = np.cos(arr) ** 2
    return float(out) if arr.ndim == 0 else out


def intensity_ratio(model: TransmissionModel, spec: Optional[QuadratureSpec] = None) -> float:
    """Fraction of an unpolarized beam passing one polarizer: mean of p1."""
    value, _ = integrate(model.probabilities, -HALF_WINDOW, HALF_WINDOW, spec)
    return value / np.pi


def _clipped_profile(model: TransmissionModel, folded: np.ndarray) -> np.ndarray:
    # TransmissionModel.probabilities of |lambda| without the window check;
    # _profile returns a fresh array, so it is clipped in place
    values = model._profile(folded)
    return np.clip(values, 0.0, 1.0, out=values)


def _wrapped_profile(model: TransmissionModel, deviation: np.ndarray) -> np.ndarray:
    # TransmissionModel.probabilities_wrapped without the window check
    folded = reduce_axis_angle(deviation)
    np.clip(folded, -HALF_WINDOW, HALF_WINDOW, out=folded)
    return _clipped_profile(model, np.abs(folded, out=folded))


def _coincidence_integral(model, angle_a, angle_b, spec, absorbing: bool) -> np.ndarray:
    """Integral over the hidden axis lambda in [-pi/2, pi/2] of both arms' product.

    angle_a and angle_b are 1-D arrays of validated settings, one result per
    pair.  The two conventions differ in a deviation beyond a quarter turn:

    * absorbing (the pair curve and its 0.0459 cos^2 headline, A at 0):
      p1(lambda) * p1(angle_b - lambda), the second factor zero outside the
      window, as a photon deviating more than a quarter turn from B is absorbed.
    * wrapped (absorbing=False, the Monte Carlo): p1(fold(lambda - angle_a))
      * p1(fold(lambda - angle_b)), both deviations folded modulo pi as in
      `TransmissionModel.probabilities_wrapped`.  The sampler draws this one.

    Each range is split at a, b, a -/+ pi/2 and b -/+ pi/2, so every piece is
    smooth.  Absorbing pieces whose midpoint lies more than a quarter turn
    from B are exactly zero and dropped: sampling them would evaluate the
    discontinuous edge and stall the refinement estimate at first order.
    All pieces go through one `integrate_rows` call, and each setting's
    pieces are summed in split order.
    """
    # a candidate outside the open window repeats the lower edge and so
    # bounds only an empty piece, as does a repeated split point
    interior = np.column_stack((angle_a, angle_b))
    interior = np.hstack((interior, interior - HALF_WINDOW, interior + HALF_WINDOW))
    interior[~((interior > -HALF_WINDOW) & (interior < HALF_WINDOW))] = -HALF_WINDOW
    edges = np.full((angle_b.size, 1), HALF_WINDOW)
    splits = np.sort(np.hstack((-edges, interior, edges)), axis=1)
    lo, hi = splits[:, :-1], splits[:, 1:]
    grid = hi > lo
    if absorbing:
        grid &= ~(np.abs(angle_b[:, None] - 0.5 * (lo + hi)) > HALF_WINDOW)
    owner = np.nonzero(grid)[0]
    row_a, row_b = angle_a[owner, None], angle_b[owner, None]

    # each factor is made in place on fresh arrays, one after the other, so
    # that a call holds few node-sized temporaries at once (see the
    # quadrature module on why that matters)
    def integrand(lam, rows):
        if absorbing:
            first = _clipped_profile(model, np.abs(lam))
            second = np.subtract(row_b[rows], lam)
            np.clip(second, -HALF_WINDOW, HALF_WINDOW, out=second)
            second = _clipped_profile(model, np.abs(second, out=second))
        else:
            first = _wrapped_profile(model, lam - row_a[rows])
            second = _wrapped_profile(model, lam - row_b[rows])
        return np.multiply(first, second, out=first)

    pieces = np.zeros(grid.shape)
    pieces[grid] = integrate_rows(integrand, lo[grid], hi[grid], spec)[0]
    # add slot by slot, in split order; a skipped slot adds an exact zero
    total = np.zeros(angle_b.size)
    for column in pieces.T:
        total += column
    return total


def pair_transmission(
    model: TransmissionModel, alpha, spec: Optional[QuadratureSpec] = None
):
    """P(alpha): pair transmission at relative analyzer angle alpha.

    alpha is a scalar or a 1-D array of angles in [-pi/2, pi/2]; the result
    has the same form.  P is even in alpha.  This is the absorbing
    convention of `_coincidence_integral`, with A at 0 and B at alpha.
    """
    alphas = np.atleast_1d(require_deviation_angle(alpha, "alpha"))
    if alphas.ndim != 1:
        raise ParameterError("alpha must be a scalar or a 1-D array")
    total = _coincidence_integral(model, np.zeros_like(alphas), alphas, spec, absorbing=True)
    return float(total[0]) if np.ndim(alpha) == 0 else total


def normalized_pair_curve(
    model: TransmissionModel,
    alphas,
    spec: Optional[QuadratureSpec] = None,
) -> np.ndarray:
    """P(alpha)/P(0) on a grid of relative angles.

    The normalization pins the curve to exactly 1 at alpha = 0, which is the
    form the intensity law cos^2 is compared against.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    nonzero = alphas != 0.0
    values = pair_transmission(model, np.concatenate(([0.0], alphas[nonzero])), spec)
    reference = values[0]
    if reference <= 0.0:
        raise DegenerateModelError("pair transmission at alpha = 0 vanishes")
    out = np.ones_like(alphas)
    out[nonzero] = values[1:] / reference
    return out


def default_angle_grid() -> np.ndarray:
    """0 to 90 degrees in 5-degree steps, in radians."""
    return degrees_grid(0.0, 90.0, 5.0)
