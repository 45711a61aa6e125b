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

The fit scores one grid's curve for hundreds of models, with its
derivatives, so it reads them from `_lattice_pair_curve` instead: P is the
autocorrelation of f(x) = p1(|x|), cut off at |x| = pi/2, so one
zero-padded FFT of the profile sampled on a lattice gives the trapezoid
rule's P at every lattice angle; an angle between nodes takes the same sum
from the profile on a lattice shifted by its offset.  The routine checks
itself against the same sums on every other node, and the fit takes the
kernel's curve where the two disagree by more than its `refine_until`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .angles import (
    HALF_WINDOW,
    _real_array,
    degrees_grid,
    reduce_axis_angle,
    require_deviation_angle,
)
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

    def _log_gradient(self, folded: np.ndarray) -> np.ndarray:
        """The profile's derivatives in log(a), log(e) and log(c), one row each.

        With u = (a folded)^e, E = exp(-u) and p1 = (c + 1) E / (1 + c E):
        dp1/dlog(a) = -w e u, dp1/dlog(e) = -w u log(u) and dp1/dlog(c) =
        c E (1 - E) / (1 + c E)^2, where w = (c + 1) E / (1 + c E)^2.  The
        u terms are 0 where u = 0 or E underflows, as are their limits.
        """
        a, e, c = self.a, self.e, self.c
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            u = np.power(a * folded, e)
            expo = np.exp(-u)
            scale = expo / (1.0 + c * expo) ** 2
            u[~((u > 0.0) & (expo > 0.0))] = 0.0
            u_log_u = u * np.log(np.where(u > 0.0, u, 1.0))
        weight = (c + 1.0) * scale
        return np.stack((-weight * e * u, -weight * u_log_u, c * scale * (1.0 - expo)))


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
        nodes = _real_array(self.nodes, "table nodes", ParameterError)
        values = _real_array(self.values, "table values", ParameterError)
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


def require_model(model) -> None:
    """Raise ParameterError unless model is a TransmissionModel.

    Every public function that takes a model checks it here first, so a
    wrong argument fails as a usage error, not deep inside the quadrature.
    """
    if not isinstance(model, TransmissionModel):
        raise ParameterError("model must be a TransmissionModel")


def malus(alpha):
    """The cosine-squared intensity law, for comparison curves."""
    arr = _real_array(alpha, "alpha")
    if not np.all(np.isfinite(arr)):
        raise AngleDomainError("alpha must be finite")
    out = np.cos(arr) ** 2
    return float(out) if arr.ndim == 0 else out


def intensity_ratio(model: TransmissionModel, spec: Optional[QuadratureSpec] = None) -> float:
    """Fraction of an unpolarized beam passing one polarizer: mean of p1.

    p1 is even, so this is 2/pi times its integral over [0, pi/2], which
    ends at the profile's cusp (e < 1) instead of crossing it.
    """
    require_model(model)
    value, _ = integrate(model.probabilities, 0.0, HALF_WINDOW, spec)
    return 2.0 * value / np.pi


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
    integrated = hi > lo
    if absorbing:
        integrated &= ~(np.abs(angle_b[:, None] - 0.5 * (lo + hi)) > HALF_WINDOW)
    owner = np.nonzero(integrated)[0]
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

    pieces = np.zeros(integrated.shape)
    pieces[integrated] = integrate_rows(integrand, lo[integrated], hi[integrated], spec)[0]
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
    require_model(model)
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
    alphas = np.atleast_1d(_real_array(alphas, "alphas"))
    return _normalized(alphas, pair_transmission(model, _curve_settings(alphas), spec))


def _curve_settings(alphas: np.ndarray) -> np.ndarray:
    """The angles a normalized curve integrates: 0, then each nonzero alpha, clamped."""
    alphas = require_deviation_angle(alphas, "alpha")  # pair_transmission's check
    return np.concatenate(([0.0], alphas[alphas != 0.0]))


def _normalized(alphas: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The curve on alphas from P at `_curve_settings(alphas)`."""
    reference = values[0]
    if reference <= 0.0:
        raise DegenerateModelError("pair transmission at alpha = 0 vanishes")
    out = np.ones_like(alphas)
    out[alphas != 0.0] = values[1:] / reference
    return out


# the fit's lattice: h = 5 degrees / 32, so 576 steps span a quarter turn
# and every multiple of 2.5 degrees lies on the 2h sub-lattice
_QUARTER_STEPS = 576
_LATTICE_STEP = HALF_WINDOW / _QUARTER_STEPS

# at least 3 * 576 + 1, so that no lag up to a quarter turn wraps around
_FFT_LENGTH = 2048

# an angle within this of a 2h sub-lattice node (radians) is read there
_ON_LATTICE = 1e-13

# angles off the 2h sub-lattice summed at once, so that a grid of any size
# holds a few megabytes of shifted samples at a time
_OFF_LATTICE_BLOCK = 64

# offsets whose shifted profiles are evaluated at once: 2 x 1152 lattice
# points, whose profile and gradient temporaries (about ten arrays of a
# block each) stay below glibc's heap trim threshold.  Blocks of 7 offsets,
# quadrature's 8192-node budget, fault about 500 pages per call back in on
# the 2.9-degree grid, as all 25 offsets at once did (about 450)
_SHIFTED_BLOCK = 2


class _LatticeCurve(NamedTuple):
    """The fit's pair curve on a grid, from `_lattice_pair_curve`.

    curve: P(alpha)/P(0) on the grid.  jacobian: its derivatives in log(a),
    log(e) and log(c), a row per angle.  estimate: the largest difference
    from the same curve on the 2h sub-lattice.
    """

    curve: np.ndarray
    jacobian: np.ndarray
    estimate: float


def _lattice_pair_curve(model: StretchedExponentialModel, alphas: np.ndarray) -> _LatticeCurve:
    """The trapezoid rule's `normalized_pair_curve(model, alphas)`, its jacobian and estimate.

    The profile and its `_log_gradient` are sampled once on the lattice
    lambda_j = j h, |j| <= 576, the window's edges on nodes.  With the edge
    samples halved, the trapezoid rule's P(m h) = h sum_j f_j f_(j-m) for
    every m at once is one zero-padded rfft/irfft autocorrelation, and
    dP/dtheta = 2 h sum_j (df/dtheta)_j f_(j-m), one more correlation per
    parameter (f is even).  The 2h sub-lattice's P, the same correlation
    of every other sample, gives the estimate.  Angles off that
    sub-lattice are summed on the same nodes by `_off_lattice`.  `alphas`
    are checked and clamped as the kernel checks them.
    """
    settings = np.abs(_curve_settings(alphas))
    h = _LATTICE_STEP
    folded = np.arange(_QUARTER_STEPS + 1.0) * h
    folded[-1] = HALF_WINDOW
    half = np.vstack((_clipped_profile(model, folded), model._log_gradient(folded)))
    # f and its gradient on j = -576..576, then f on the even nodes only
    samples = np.hstack((half[:, :0:-1], half))
    halved = np.vstack((samples, samples[0]))
    halved[:, [0, -1]] *= 0.5
    halved[4, 1::2] = 0.0
    # rows 0-3 (f and its gradient) correlated with f, row 4 with itself
    spectra = np.fft.rfft(halved, _FFT_LENGTH)
    lags = np.fft.irfft(spectra * spectra[[0, 0, 0, 0, 4]].conj(), _FFT_LENGTH)
    # at lag 0 both factors' ends are halved, a quarter weight where the
    # rule wants a half: add the missing quarter
    edge, edge_gradient = halved[0, 0], halved[1:4, 0]
    fine = h * lags[0, : _QUARTER_STEPS + 1]
    fine[0] += 2.0 * h * edge**2
    fine_gradient = 2.0 * h * lags[1:4, : _QUARTER_STEPS + 1]
    fine_gradient[:, 0] += 4.0 * h * edge * edge_gradient
    sub = 2.0 * h * lags[4, : _QUARTER_STEPS + 1]
    sub[0] += 4.0 * h * edge**2

    node = np.rint(settings / (2.0 * h))
    on = np.abs(settings - node * 2.0 * h) <= _ON_LATTICE
    node = 2 * node.astype(int)
    values, coarse_values, gradient = fine[node], sub[node], fine_gradient[:, node]
    off = np.flatnonzero(~on)
    for first in range(0, off.size, _OFF_LATTICE_BLOCK):
        block = off[first : first + _OFF_LATTICE_BLOCK]
        values[block], coarse_values[block], gradient[:, block] = _off_lattice(
            model, samples, halved, settings[block]
        )

    curve = _normalized(alphas, values)
    estimate = float(np.max(np.abs(curve - _normalized(alphas, coarse_values))))
    jacobian = np.zeros((alphas.size, 3))
    jacobian[alphas != 0.0] = (
        (gradient[:, 1:] * values[0] - values[1:] * gradient[:, :1]) / values[0] ** 2
    ).T
    return _LatticeCurve(curve, jacobian, estimate)


def _off_lattice(model: StretchedExponentialModel, samples, halved, alphas: np.ndarray):
    """(P, P on the 2h sub-lattice, dP/dlog-parameters) at angles off the 2h sub-lattice.

    samples holds f and its log-gradient on the lattice, and halved the
    rows `_lattice_pair_curve` correlates.  An angle alpha = (m + phi) h,
    with 0 <= phi <= 1 (an odd node is phi = 1), is summed over its
    support [alpha - pi/2, pi/2] by the trapezoid rule on the support's
    lower end and the nodes inside, all of them or the even ones.  With
    s_k = f(|k - phi| h) on the lattice shifted by phi, zero from k = -576
    down, the nodes give sum_j f_j s_(j-m), with the halved rows' end
    weights and two corrections: the first node inside, j0 = m - 575 (or the first
    even one), lies less than a step above the lower end, and the end
    itself, where f(alpha - lambda) = f(pi/2), is one more node.  Angles
    whose offsets phi agree to round-off share one shifted profile.
    """
    h, n = _LATTICE_STEP, _QUARTER_STEPS
    shift = alphas / h
    m = np.ceil(shift).astype(int) - 1
    # angles whose offsets agree to round-off share the first one's
    _, leader, group = np.unique(np.round(shift - m, 9), return_index=True, return_inverse=True)
    phis = (shift - m)[leader]
    # the first even node lies odd = 0 or 1 steps above j0
    odd = (m - n + 1) % 2
    # over the nodes j >= j0, where s_(j-m) is not 0: each halved row with
    # s, and f with the gradient's rows; and the samples of s the
    # corrections read, at k = -575, at the first even node and at the end
    nodes, coarse = np.empty((4, alphas.size)), np.empty(alphas.size)
    low, high = np.empty((2, 4, alphas.size))
    low_even = np.empty(alphas.size)
    lattice = np.arange(1 - n, n + 1)
    for start in range(0, phis.size, _SHIFTED_BLOCK):
        # s_k on k = -575..576 for a block of phis, a row of f then its gradient's
        block = phis[start : start + _SHIFTED_BLOCK, None]
        deviation = np.minimum(np.abs(lattice - block) * h, HALF_WINDOW)
        shifted = np.concatenate((_clipped_profile(model, deviation)[None], model._log_gradient(deviation)))
        for i in np.flatnonzero((group >= start) & (group < start + _SHIFTED_BLOCK)):
            lag, s = m[i], shifted[:, group[i] - start]
            products = s[:, : 2 * n - lag] @ halved[:, lag + 1 :].T
            nodes[:, i] = products[0, :4]
            nodes[1:, i] += products[1:, 0]
            coarse[i] = products[0, 4]
            low[:, i], high[:, i], low_even[i] = s[:, 0], s[:, 2 * n - 1 - lag], s[0, odd[i]]

    def product(a, b):  # f g and its gradient, a and b rows of f then its gradient
        return np.vstack((a[:1] * b[:1], a[1:] * b[:1] + a[:1] * b[1:]))

    phi = phis[group]
    end = product(high, samples[:, -1:])
    first = product(samples[:, m + 1], low)
    every = h * nodes - 0.5 * phi * h * first + 0.5 * (1.0 - phi) * h * end
    reach = (odd + 1.0 - phi) * h
    coarse = (
        2.0 * h * coarse
        + (0.5 * reach - h) * samples[0, m + 1 + odd] * low_even
        + 0.5 * reach * end[0]
    )
    return every[0], coarse, every[1:]


def default_angle_grid() -> np.ndarray:
    """0 to 90 degrees in 5-degree steps, in radians."""
    return degrees_grid(0.0, 90.0, 5.0)
