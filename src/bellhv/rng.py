"""Deterministic random-number streams.

Reproducibility contract: every stochastic routine in the package receives an
:class:`RngStream` and derives all randomness from it.  Streams are keyed
counter-based generators (Philox), so

* the same (seed, stream_id) always yields the same sequence on any platform,
* distinct stream ids are statistically independent,
* substreams can be split off by index without consuming parent state.

Substream derivation folds indices into a 64-bit id with the splitmix64
finalizer, a well-tested integer mixer, so nearby indices map to unrelated
keys.

:class:`SearchConfig` bundles a stream with the restart and iteration budget
of the randomized searches (the simplex fit and the Bell-bound ascent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _require_u64(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if not 0 <= value <= _MASK64:
        raise ParameterError(f"{name} must fit in an unsigned 64-bit value")
    return value


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _require_u64(self.seed, "seed"))
        object.__setattr__(self, "stream_id", _require_u64(self.stream_id, "stream_id"))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Derive an independent child stream from an index; chain for nesting."""
        index = _require_u64(index, "substream index")
        return RngStream(self.seed, _splitmix64(self.stream_id ^ _splitmix64(index)))


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding shared by the randomized search routines."""

    restarts: int = 8
    max_iterations: int = 400
    tolerance: float = 1e-10
    rng: RngStream = RngStream(0)

    def __post_init__(self):
        if not isinstance(self.restarts, (int, np.integer)) or self.restarts < 1:
            raise ParameterError("restarts must be a positive integer")
        if not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise ParameterError("max_iterations must be a positive integer")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ParameterError("tolerance must be a positive finite float")
        if not isinstance(self.rng, RngStream):
            raise ParameterError("rng must be an RngStream")
