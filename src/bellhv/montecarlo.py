"""Pair-stream Monte Carlo for two-analyzer coincidence experiments.

Each simulated pair carries one shared hidden polarization axis, drawn
uniformly from the half-turn window.  Arm A transmits with probability
p1(lambda - angle_a) and arm B with p1(lambda - angle_b), both deviations
folded back into the window (axes are direction-free, period pi): the
wrapped convention of `transmission._coincidence_integral`, described there
beside the pair curve's absorbing one.  The four tally cells (both / A only /
B only / neither) support the coincidence probability and the two CHSH-style
estimators.  `chsh` is the one CHSH runner: it simulates the four settings of
`bell.CANONICAL_ANALYZERS` once (a1, a2, b1, b2 at 0, 45, 22.5 and -22.5
degrees, so `bell._chsh`'s minus sign falls on a2 b2, 3 pi/8 apart) and
reads both estimators off the same tallies, on the very same photon records:

* all-events: E = P(agree) - P(disagree) over every generated pair; a local
  model can never push the CHSH combination past 2.
* post-selected: E = p11 / (pA * pB), coincidences normalized by the singles
  product, computed from detected events only.  This is the estimator that
  can exceed 2 despite the locality of the underlying model: discarding
  undetected pairs opens the detection loophole described by P. Pearle,
  Phys. Rev. D 2, 1418 (1970) and A. Garg and N. D. Mermin, Phys. Rev. D 35,
  3831 (1987).

Reproducibility: setting i of a multi-setting run draws from
`rng.substream(i)`, a rule written once, in `setting_configs`, which `chsh`
and the command line share; chunk i of one setting's run draws from
`config.rng.substream(i)`.  So results are identical across platforms.
`run_pairs` tallies its chunks on a thread pool with one worker per usable
CPU (the process's affinity mask, else `os.cpu_count()`), never more
workers than chunks.  The sampler's numpy loops release the GIL, so the
chunks run in parallel, and a tally is an integer sum over chunks, so the
counts do not depend on the number of workers or on their scheduling.

The sampler decides most transmissions without evaluating the profile: the
squeeze of rejection sampling (G. Marsaglia, Comput. Math. Appl. 3, 321
(1977)).  Before the chunks, `run_pairs` builds one bound table per arm
(`_bound_table`): for each of _BINS bins of the hidden axis, a lower and an
upper bound of that arm's transmission probability.  A pair whose uniform
lies below the lower bound passes, one at or above the upper bound is
absorbed, and only the pairs in between (about 0.15 % of an arm's pairs for
the built-in models) have their profile evaluated.  Because the bounds bracket
the very floating-point values the profile returns, each decision is the
one `u < p1` would make, so the counts are bit-identical to evaluating
every pair.  The sampler thus stays an independent check of the quadrature.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .angles import HALF_WINDOW, _real_array, reduce_axis_angle, require_deviation_angle
from .bell import CANONICAL_ANALYZERS, _chsh
from .errors import AngleDomainError, DegenerateModelError, ParameterError
from .quadrature import QuadratureSpec
from .quadrature import integrate  # noqa: F401  # unused; perfbench/layers.py wraps this binding
from .rng import RngStream, _usable_cpus
from .transmission import (
    TransmissionModel,
    _clipped_profile,
    _coincidence_integral,
    _wrapped_profile,
    require_model,
)

CHUNK_PAIRS = 1 << 16

# pairs per bound-table lookup inside a chunk: keeps the lookup's
# temporaries small while several chunks are in flight.  Looking up each
# chunk whole gave the same counts at about the same speed, but benchmark
# chsh peak RSS reached 43.5 MB, against 41.5 MB blocked and 40.7 MB before
# the bound tables (2-vCPU host)
_ARM_BLOCK = 8192

# bins of each arm's bound table over the hidden-axis window: a power of
# two, so that a pair's bin is read off its raw uniform draw exactly
_BINS = 4096

# absolute margin on every bound, far above the profile's rounding error
_BOUND_PAD = 1e-9

MAX_PAIRS = 10**8

# analyzer angles (a1, a2, b1, b2), exact, of `bell`'s canonical analyzers
CANONICAL_ANGLES = tuple(0.5 * math.atan2(cx, cz) for cz, cx in CANONICAL_ANALYZERS)

# (angle_a, angle_b) of the terms a1b1, a1b2, a2b1, a2b2, in `bell._chsh`'s order
CANONICAL_SETTINGS = tuple(itertools.product(CANONICAL_ANGLES[:2], CANONICAL_ANGLES[2:]))


def _scalar_angle(value, name: str) -> float:
    """One analyzer angle, validated by `require_deviation_angle`; an array
    of any shape raises AngleDomainError("<name> must be a scalar")."""
    if _real_array(value, name).ndim != 0:
        raise AngleDomainError(f"{name} must be a scalar")
    return require_deviation_angle(value, name)


@dataclass(frozen=True)
class ExperimentConfig:
    """One coincidence run: model, analyzer angles, sample size, stream."""

    model: TransmissionModel
    angle_a: float
    angle_b: float
    n_pairs: int
    rng: RngStream

    def __post_init__(self):
        require_model(self.model)
        object.__setattr__(self, "angle_a", _scalar_angle(self.angle_a, "angle_a"))
        object.__setattr__(self, "angle_b", _scalar_angle(self.angle_b, "angle_b"))
        if not isinstance(self.n_pairs, (int, np.integer)) or self.n_pairs < 1:
            raise ParameterError("n_pairs must be a positive integer")
        if self.n_pairs > MAX_PAIRS:
            raise ParameterError(f"n_pairs capped at {MAX_PAIRS}")
        object.__setattr__(self, "n_pairs", int(self.n_pairs))
        if not isinstance(self.rng, RngStream):
            raise ParameterError("rng must be an RngStream")


@dataclass(frozen=True)
class CoincidenceCounts:
    """Exhaustive tally of one run; cells sum to n_pairs by construction."""

    n11: int
    n10: int
    n01: int
    n00: int
    n_pairs: int

    def __post_init__(self):
        cells = (self.n11, self.n10, self.n01, self.n00)
        if any(not isinstance(c, (int, np.integer)) or c < 0 for c in cells):
            raise ParameterError("tally cells must be non-negative integers")
        if sum(cells) != self.n_pairs:
            raise ParameterError("tally cells must sum to n_pairs")

    @property
    def singles_a(self) -> int:
        return self.n11 + self.n10

    @property
    def singles_b(self) -> int:
        return self.n11 + self.n01


def _to_axes(raw: np.ndarray) -> np.ndarray:
    """Hidden axes from raw uniforms, in place: the operations, in order, of
    uniform(-pi/2, pi/2), so that the axes are bit for bit its draws."""
    raw *= np.pi
    raw += -HALF_WINDOW
    return raw


def _bound_table(model: TransmissionModel, angle: float) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper): bounds of p1(fold(lambda - angle)) on each of _BINS bins.

    Bin i holds the hidden axes drawn from raw uniforms in [i, i + 1)/_BINS.
    Its edges are scaled by the sampler's own `_to_axes`, so each of its
    axes lies between them, and the profile at both edges enters its bounds.
    So does the profile at each point where the composite may turn: at
    deviations 0 and pi/2, where the fold turns, and at the model's
    `_turning_points()`, all at angle +/- point mod pi.  Between those
    points the composite is monotone.  The bin of such a point is computed
    with rounding, so every bound is widened by one bin on each side
    (periodically: lambda and lambda + pi are one axis) and padded by
    _BOUND_PAD.  A model whose turning points are unknown gets the bounds
    (-inf, inf), which decide no pair.
    """
    turning = model._turning_points()
    if turning is None:
        return np.full(_BINS, -np.inf), np.full(_BINS, np.inf)
    edges = _to_axes(np.arange(_BINS + 1) / _BINS)
    at_edges = _wrapped_profile(model, edges - angle)
    lower = np.minimum(at_edges[:-1], at_edges[1:])
    upper = np.maximum(at_edges[:-1], at_edges[1:])
    folded = np.concatenate(([0.0, HALF_WINDOW], turning))
    at_turns = np.tile(_clipped_profile(model, folded), 2)
    axes = reduce_axis_angle(np.concatenate((angle + folded, angle - folded)))
    bins = np.floor((axes + HALF_WINDOW) * (_BINS / np.pi)).astype(np.intp) % _BINS
    np.minimum.at(lower, bins, at_turns)
    np.maximum.at(upper, bins, at_turns)
    lower = np.minimum(np.minimum(np.roll(lower, 1), lower), np.roll(lower, -1))
    upper = np.maximum(np.maximum(np.roll(upper, 1), upper), np.roll(upper, -1))
    return lower - _BOUND_PAD, upper + _BOUND_PAD


def _tally_chunk(
    config: ExperimentConfig, tables, generator: np.random.Generator, count: int
) -> Tuple[int, int, int]:
    """(n11, n10, n01) of `count` pairs drawn from `generator`.

    `tables` holds the bound tables of arms A and B.  Runs on worker
    threads, so it calls none of the validating model or stream methods; the
    deviations it folds are finite by construction.
    """
    # one call, bit for bit the draws of uniform(-pi/2, pi/2), uniform() and
    # uniform(); lam holds raw uniforms until `_to_axes` scales it below
    draws = generator.random(3 * count)
    lam, u = draws[:count], draws[count:].reshape(2, count)
    passed = np.empty((2, count), dtype=bool)
    below_upper = np.empty((2, count), dtype=bool)
    for start in range(0, count, _ARM_BLOCK):
        block = slice(start, start + _ARM_BLOCK)
        bins = np.multiply(lam[block], _BINS).astype(np.intp)  # exact: a power of two
        for arm, (lower, upper) in enumerate(tables):
            np.less(u[arm, block], lower.take(bins), out=passed[arm, block])
            np.less(u[arm, block], upper.take(bins), out=below_upper[arm, block])
    _to_axes(lam)
    for arm, angle in enumerate((config.angle_a, config.angle_b)):
        pairs = np.flatnonzero(below_upper[arm] & ~passed[arm])  # undecided
        passed[arm, pairs] = u[arm, pairs] < _wrapped_profile(config.model, lam[pairs] - angle)
    n_a = int(np.count_nonzero(passed[0]))
    n_b = int(np.count_nonzero(passed[1]))
    n11 = int(np.count_nonzero(passed[0] & passed[1]))
    return n11, n_a - n11, n_b - n11


def run_pairs(config: ExperimentConfig) -> CoincidenceCounts:
    """Simulate the configured number of pairs; returns the exhaustive tally.

    The pairs come in chunks of CHUNK_PAIRS, chunk i drawn from
    `config.rng.substream(i)`.  The chunks are tallied on
    min(chunks, usable CPUs) worker threads; the counts are the same for any
    number of workers.
    """
    full, rest = divmod(config.n_pairs, CHUNK_PAIRS)
    sizes = [CHUNK_PAIRS] * full + ([rest] if rest else [])
    # built here, in chunk order: workers call no stream or validating model
    # method, which per-layer tracing wraps with one-thread bookkeeping
    generators = [config.rng.substream(i).generator() for i in range(len(sizes))]
    tables = (_bound_table(config.model, config.angle_a), _bound_table(config.model, config.angle_b))
    tally = functools.partial(_tally_chunk, config, tables)
    # imported here, not at module level: it costs every CLI start ~13 ms
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(len(sizes), _usable_cpus())) as pool:
        tallies = list(pool.map(tally, generators, sizes))
    n11, n10, n01 = (sum(cells) for cells in zip(*tallies))
    return CoincidenceCounts(
        n11=n11,
        n10=n10,
        n01=n01,
        n00=config.n_pairs - n11 - n10 - n01,
        n_pairs=config.n_pairs,
    )


def coincidence_probability_estimate(counts: CoincidenceCounts) -> Tuple[float, float]:
    """(p11, binomial standard error) from a tally."""
    p = counts.n11 / counts.n_pairs
    stderr = np.sqrt(p * (1.0 - p) / counts.n_pairs)
    return float(p), float(stderr)


def expected_coincidence_probability(
    model: TransmissionModel,
    angle_a: float,
    angle_b: float,
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """Quadrature value of the coincidence probability the sampler estimates:
    the wrapped `transmission._coincidence_integral` over the measure pi."""
    require_model(model)
    angle_a = _scalar_angle(angle_a, "angle_a")
    angle_b = _scalar_angle(angle_b, "angle_b")
    total = _coincidence_integral(model, np.array([angle_a]), np.array([angle_b]), spec, False)
    return float(total[0]) / np.pi


@dataclass(frozen=True)
class ChshEstimate:
    """CHSH combination with per-setting detail.

    retained_fraction is the coincidence yield actually used by the
    post-selected estimator; None for the all-events estimator, which uses
    every generated pair.
    """

    value: float
    stderr: float
    correlations: Tuple[float, float, float, float]
    correlation_errors: Tuple[float, float, float, float]
    retained_fraction: Optional[float]


def setting_configs(
    model: TransmissionModel, settings, n_pairs: int, rng: RngStream
) -> Tuple[ExperimentConfig, ...]:
    """One ExperimentConfig per (angle_a, angle_b) pair of `settings`.

    Setting i draws from `rng.substream(i)`: the one place that rule is
    written, so a run of the same settings, pairs and seed replays the same
    records wherever it is made.
    """
    return tuple(
        ExperimentConfig(
            model=model,
            angle_a=angle_a,
            angle_b=angle_b,
            n_pairs=n_pairs,
            rng=rng.substream(index),
        )
        for index, (angle_a, angle_b) in enumerate(settings)
    )


def all_events_correlation(counts: CoincidenceCounts) -> Tuple[float, float]:
    """(E, stderr) with every pair counted, absorb = -1 and transmit = +1.

    E = P(agree) - P(disagree); the error is the binomial error of the
    agreement probability, scaled by 2.
    """
    agree = (counts.n11 + counts.n00) / counts.n_pairs
    return (
        float(2.0 * agree - 1.0),
        float(np.sqrt(4.0 * agree * (1.0 - agree) / counts.n_pairs)),
    )


def post_selected_correlation(counts: CoincidenceCounts) -> Tuple[float, float]:
    """(E, stderr) from detected events only: E = p11 / (pA * pB).

    Coincidences normalized by the singles product; with full transmission
    this equals 1 exactly, and in general it is NOT bounded the way the
    all-events correlation is.  The error keeps the dominant term only
    (binomial noise of the coincidence cell over the singles product).
    """
    if counts.singles_a == 0 or counts.singles_b == 0:
        raise DegenerateModelError(
            "post-selection undefined: one arm recorded no transmissions"
        )
    p11 = counts.n11 / counts.n_pairs
    p_a = counts.singles_a / counts.n_pairs
    p_b = counts.singles_b / counts.n_pairs
    return (
        float(p11 / (p_a * p_b)),
        float(np.sqrt(p11 * (1.0 - p11) / counts.n_pairs) / (p_a * p_b)),
    )


def _combine(tallies, correlation, retained_fraction) -> ChshEstimate:
    pairs = [correlation(t) for t in tallies]
    correlations = tuple(e for e, _ in pairs)
    errors = tuple(s for _, s in pairs)
    return ChshEstimate(
        value=float(_chsh(*correlations)),
        stderr=float(np.sqrt(sum(s * s for s in errors))),
        correlations=correlations,
        correlation_errors=errors,
        retained_fraction=retained_fraction,
    )


def chsh_estimates(tallies) -> Tuple[ChshEstimate, ChshEstimate]:
    """(all-events, post-selected) CHSH estimates from the same four tallies.

    `tallies` holds one CoincidenceCounts per setting, in the order of
    `CANONICAL_SETTINGS`; both views read the very same records.  Raises
    DegenerateModelError when an arm recorded no transmissions, where
    post-selection is undefined; `all_events_correlation` still gives each
    setting's all-events term from such tallies.
    """
    tallies = tuple(tallies)
    retained = sum(t.n11 for t in tallies) / sum(t.n_pairs for t in tallies)
    return (
        _combine(tallies, all_events_correlation, None),
        _combine(tallies, post_selected_correlation, retained),
    )


def chsh(
    model: TransmissionModel, n_pairs: int, rng: RngStream
) -> Tuple[ChshEstimate, ChshEstimate]:
    """(all-events, post-selected) CHSH estimates from one draw of the four
    `CANONICAL_SETTINGS`, `n_pairs` pairs each; see `chsh_estimates`."""
    configs = setting_configs(model, CANONICAL_SETTINGS, n_pairs, rng)
    return chsh_estimates(run_pairs(config) for config in configs)
