"""Pair-stream Monte Carlo for two-analyzer coincidence experiments.

Each simulated pair carries one shared hidden polarization axis, drawn
uniformly from the half-turn window.  Arm A transmits with probability
p1(lambda - angle_a) and arm B with p1(lambda - angle_b), both deviations
folded back into the window (axes are direction-free, period pi): the
wrapped convention of `transmission._coincidence_integral`, described there
beside the pair curve's absorbing one.  The four
tally cells (both / A only / B only / neither) support the coincidence
probability and the two CHSH-style estimators:

* all-events: E = P(agree) - P(disagree) over every generated pair; a local
  model can never push the CHSH combination past 2.
* post-selected: E = p11 / (pA * pB), coincidences normalized by the singles
  product, computed from detected events only.  This is the estimator that
  can exceed 2 despite the locality of the underlying model: discarding
  undetected pairs opens the detection loophole described by P. Pearle,
  Phys. Rev. D 2, 1418 (1970) and A. Garg and N. D. Mermin, Phys. Rev. D 35,
  3831 (1987).

Reproducibility: chunk i of a run draws from `rng.substream(i)`, so results
are identical across platforms.  `run_pairs` tallies its chunks on a thread
pool with one worker per usable CPU (the process's affinity mask, else
`os.cpu_count()`), never more workers than chunks.  The sampler's numpy
loops release the GIL, so the chunks run in parallel, and a tally is an
integer sum over chunks, so the counts do not depend on the number of
workers or on their scheduling.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .angles import HALF_WINDOW, require_deviation_angle
from .errors import DegenerateModelError, ParameterError
from .quadrature import QuadratureSpec
from .quadrature import integrate  # noqa: F401  # unused; perfbench/layers.py wraps this binding
from .rng import RngStream
from .transmission import TransmissionModel, _coincidence_integral, _wrapped_profile

CHUNK_PAIRS = 1 << 16

# pairs per arm evaluation inside a chunk: keeps the profile's temporaries
# small while several chunks are in flight
_ARM_BLOCK = 8192

MAX_PAIRS = 10**8

# sign pattern of the Bell combination E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)

# (angle_a, angle_b) of the terms a1b1, a1b2, a2b1, a2b2, with a1 = 0,
# a2 = pi/4, b1 = pi/8 and b2 = 3pi/8
CANONICAL_SETTINGS = (
    (0.0, np.pi / 8.0),
    (0.0, 3.0 * np.pi / 8.0),
    (np.pi / 4.0, np.pi / 8.0),
    (np.pi / 4.0, 3.0 * np.pi / 8.0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One coincidence run: model, analyzer angles, sample size, stream."""

    model: TransmissionModel
    angle_a: float
    angle_b: float
    n_pairs: int
    rng: RngStream

    def __post_init__(self):
        if not isinstance(self.model, TransmissionModel):
            raise ParameterError("model must be a TransmissionModel")
        object.__setattr__(self, "angle_a", require_deviation_angle(self.angle_a, "angle_a"))
        object.__setattr__(self, "angle_b", require_deviation_angle(self.angle_b, "angle_b"))
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tally_chunk(
    config: ExperimentConfig, generator: np.random.Generator, count: int
) -> Tuple[int, int, int]:
    """(n11, n10, n01) of `count` pairs drawn from `generator`.

    Runs on worker threads, so it calls none of the validating model or
    stream methods; the deviations it folds are finite by construction.
    """
    lam = generator.uniform(-HALF_WINDOW, HALF_WINDOW, size=count)
    u_a = generator.uniform(size=count)
    u_b = generator.uniform(size=count)
    n11 = n10 = n01 = 0
    for start in range(0, count, _ARM_BLOCK):
        block = slice(start, start + _ARM_BLOCK)
        passed_a = u_a[block] < _wrapped_profile(config.model, lam[block] - config.angle_a)
        passed_b = u_b[block] < _wrapped_profile(config.model, lam[block] - config.angle_b)
        n11 += int(np.count_nonzero(passed_a & passed_b))
        n10 += int(np.count_nonzero(passed_a & ~passed_b))
        n01 += int(np.count_nonzero(~passed_a & passed_b))
    return n11, n10, n01


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
    tally = functools.partial(_tally_chunk, config)
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
    angle_a = require_deviation_angle(float(angle_a), "angle_a")
    angle_b = require_deviation_angle(float(angle_b), "angle_b")
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
    counts: Tuple[CoincidenceCounts, ...]
    retained_fraction: Optional[float]


def _four_settings(
    model: TransmissionModel, n_pairs: int, rng: RngStream
) -> Tuple[CoincidenceCounts, ...]:
    tallies = []
    for index, (angle_a, angle_b) in enumerate(CANONICAL_SETTINGS):
        config = ExperimentConfig(
            model=model,
            angle_a=angle_a,
            angle_b=angle_b,
            n_pairs=n_pairs,
            rng=rng.substream(index),
        )
        tallies.append(run_pairs(config))
    return tuple(tallies)


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
    value = sum(s * e for s, e in zip(CHSH_SIGNS, correlations))
    return ChshEstimate(
        value=float(value),
        stderr=float(np.sqrt(sum(s * s for s in errors))),
        correlations=correlations,
        correlation_errors=errors,
        counts=tallies,
        retained_fraction=retained_fraction,
    )


def chsh_estimates(tallies) -> Tuple[ChshEstimate, ChshEstimate]:
    """(all-events, post-selected) CHSH estimates from the same four tallies.

    `tallies` holds one CoincidenceCounts per setting, in the order of
    `CANONICAL_SETTINGS`.  Raises DegenerateModelError when an arm
    recorded no transmissions, where post-selection is undefined.
    """
    tallies = tuple(tallies)
    retained = sum(t.n11 for t in tallies) / sum(t.n_pairs for t in tallies)
    return (
        _combine(tallies, all_events_correlation, None),
        _combine(tallies, post_selected_correlation, retained),
    )


def chsh_all_events(model: TransmissionModel, n_pairs: int, rng: RngStream) -> ChshEstimate:
    """CHSH from agreement-minus-disagreement over all generated pairs."""
    tallies = _four_settings(model, n_pairs, rng)
    # not via chsh_estimates: this view stays defined without detections
    return _combine(tallies, all_events_correlation, None)


def chsh_post_selected(model: TransmissionModel, n_pairs: int, rng: RngStream) -> ChshEstimate:
    """CHSH from detected coincidences normalized by the singles product.

    Identical (model, n_pairs, rng) arguments replay the very same
    photon records as `chsh_all_events`, so the two estimators can be
    compared pair-for-pair; `chsh_estimates` gives both from one draw.
    """
    return chsh_estimates(_four_settings(model, n_pairs, rng))[1]
