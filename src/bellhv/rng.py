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
of the two randomized searches, the Nelder-Mead fit in :mod:`bellhv.malusfit`
and the Bell-bound ascents in :mod:`bellhv.bell`; both read every field.  The
classical regime of ``bell.search_bound`` runs no search: it reads the +/-1
enumeration once, draws from no stream, and only reports ``restarts``.
"""

from __future__ import annotations

import os
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
    rng: RngStream = RngStream(0)

    def __post_init__(self):
        if not isinstance(self.restarts, (int, np.integer)) or self.restarts < 1:
            raise ParameterError("restarts must be a positive integer")
        if not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise ParameterError("max_iterations must be a positive integer")
        if not isinstance(self.rng, RngStream):
            raise ParameterError("rng must be an RngStream")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count.

    The count that sizes both the sampler's thread pool
    (`montecarlo.run_pairs`) and the fit's restart processes
    (`malusfit.minimize`); each module imports it by name.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
