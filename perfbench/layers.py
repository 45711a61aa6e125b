"""Span and counter recording at the public boundary of each bellhv layer.

Nothing in the package is edited: `install` replaces module attributes and
class methods with thin wrappers, in the one process that imports this
module.  A function imported by name into another module is a separate
binding, so every copy that a workload reaches is wrapped on its own (for
example `transmission.integrate` and `montecarlo.integrate`, both recorded
as `quadrature.integrate`).

Spans hold name, start, end, parent and whether the call raised.  They stay
in memory and are written once, by `Tracer.dump`, when the process ends.
Counters hold exact work counts (points, pairs, n^3, iterations) that do
not depend on the clock, so they repeat exactly run to run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np


def _points(args, kwargs, result):
    return {"transmission.profile.points": int(np.size(args[1]))}


def _pairs(args, kwargs, result):
    return {"montecarlo.run_pairs.pairs": int(args[0].n_pairs)}


def _n3(args, kwargs, result):
    return {"linalg.eigen.n3": int(np.shape(args[0])[0]) ** 3}


def _search_iterations(args, kwargs, result):
    return {"bell.iterations": int(result.iterations)}


def _nelder_mead_iterations(args, kwargs, result):
    return {"optimize.iterations": int(result.nit)}


# (module, attribute, span name or None for count-only, work counter)
FUNCTIONS = (
    ("bellhv.cli", "main", "cli.main", None),
    ("bellhv.cli", "run_fit", "malusfit.fit", None),
    ("bellhv.cli", "run_pairs", "montecarlo.run_pairs", _pairs),
    ("bellhv.cli", "expected_coincidence_probability", "montecarlo.expected_coincidence", None),
    ("bellhv.cli", "search_bound", "bell.search_bound", _search_iterations),
    ("bellhv.cli", "normalized_pair_curve", "transmission.normalized_pair_curve", None),
    ("bellhv.malusfit", "residual", "malusfit.residual", None),
    ("bellhv.malusfit", "minimize", "optimize.minimize", None),
    ("bellhv.malusfit", "normalized_pair_curve", "transmission.normalized_pair_curve", None),
    ("bellhv.transmission", "pair_transmission", "transmission.pair_transmission", None),
    ("bellhv.transmission", "integrate", "quadrature.integrate", None),
    ("bellhv.montecarlo", "integrate", "quadrature.integrate", None),
    ("bellhv.transmission", "require_deviation_angle", "angles.validate", None),
    ("bellhv.montecarlo", "require_deviation_angle", "angles.validate", None),
    ("bellhv.bell", "max_expectation", "bell.max_expectation", None),
    ("bellhv.bell", "bb_dagger_expectation", "bell.bb_dagger_expectation", None),
    ("bellhv.bell", "numerical_radius", "linalg.numerical_radius", None),
    ("bellhv.bell", "symmetric_extreme_eigen", "linalg.eigen", _n3),
    ("bellhv.linalg", "symmetric_extreme_eigen", "linalg.eigen", _n3),
    # the simplex itself is scipy's; count its iterations without a span so
    # that optimize.minimize keeps the simplex bookkeeping as self time
    ("scipy.optimize", "minimize", None, _nelder_mead_iterations),
)

# (module, class, method, span name, work counter)
METHODS = (
    ("bellhv.transmission", "TransmissionModel", "probabilities", "transmission.profile", _points),
    ("bellhv.transmission", "TransmissionModel", "probabilities_wrapped", "transmission.profile_wrapped", None),
    ("bellhv.rng", "RngStream", "generator", "rng.generator", None),
)


class Tracer:
    """In-memory spans plus exact counters for one process."""

    def __init__(self):
        self.names = []
        self.name_ids = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.failed = []
        self.counters = Counter()
        self._open = [-1]

    def wrap(self, fn, name, work=None):
        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counters.update(work(args, kwargs, result))
                return result

            return counted

        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._open[-1])
            self.failed.append(False)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[index] = True
                raise
            finally:
                self.ends[index] = time.perf_counter()
                self._open.pop()
            if work is not None:
                self.counters.update(work(args, kwargs, result))
            return result

        return traced

    def install(self):
        for module_name, attribute, name, work in FUNCTIONS:
            module = importlib.import_module(module_name)
            setattr(module, attribute, self.wrap(getattr(module, attribute), name, work))
        for module_name, class_name, method, name, work in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, method, self.wrap(getattr(cls, method), name, work))

    def dump(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.array(self.name_ids, dtype=np.int32),
            parents=np.array(self.parents, dtype=np.int64),
            starts=np.array(self.starts),
            ends=np.array(self.ends),
            failed=np.array(self.failed, dtype=bool),
        )


def summarize(paths):
    """Per-span-name calls, busy, self and failed totals over span files.

    Busy time is inclusive; self time is a span's duration minus the
    durations of its direct children (one thread, so children never
    overlap).  No wrapped function calls itself, so busy times of one name
    never double count.
    """
    totals = {}
    for path in paths:
        with np.load(path) as spans:
            names = [str(n) for n in spans["names"]]
            ids = spans["name_ids"]
            parents = spans["parents"]
            duration = spans["ends"] - spans["starts"]
            failed = spans["failed"]
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested], minlength=ids.size)
        self_time = duration - child_time
        k = len(names)
        columns = {
            "calls": np.bincount(ids, minlength=k),
            "busy_s": np.bincount(ids, weights=duration, minlength=k),
            "self_s": np.bincount(ids, weights=self_time, minlength=k),
            "failed": np.bincount(ids, weights=failed, minlength=k),
        }
        for i, name in enumerate(names):
            entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
            for column, values in columns.items():
                entry[column] += values[i].item()
    for entry in totals.values():
        entry["failed"] = int(entry["failed"])
    return totals
