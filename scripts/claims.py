#!/usr/bin/env python3
"""The paper's three claims, the numbers that test them, and a verdict for each.

The paper claims three upper limits of the Bell operator, 2, 2*sqrt(2) and
2*sqrt(3), for classical, hidden-variable and quantum concepts ("limits");
a local hidden-variable model of photon pairs passing two polarizers
("local model"); and that experiment has excluded only the lowest limit
("experiment").  Each row gives the claim, a quantity, its value, its error,
the limit it is held against, and a verdict:

* holds: the value does not pass the limit by more than 5 errors (and, for
  a bound search, attains it to 1e-9);
* refuted: the value passes the limit by more than 5 errors;
* loose by g: a bound search stays g below the limit.

The error is the witness's certificate gap for a bound search
(`BoundReport.certified_expectation` minus the attained <B>, and its square
minus the attained <BB+>), the Monte Carlo standard error for S and CH, and
"-" where the library returns no estimate.  A row without a limit is an input of another
row: the singles rate I sets the local limit 2/I on the post-selected S.
The CH row is the Clauser-Horne expression read off the same records: with
each setting's singles taken from its own tally, S_all = 2 + 4 CH exactly.

Every seed is fixed, so the table repeats byte for byte; the README quotes
it.  Usage: python3 scripts/claims.py
"""

import numpy as np

from bellhv.angles import degrees_grid
from bellhv.bell import Regime, search_bound
from bellhv.montecarlo import chsh, expected_coincidence_probability
from bellhv.rng import RngStream
from bellhv.transmission import (
    REFERENCE_MODEL,
    CosineSquaredModel,
    intensity_ratio,
    malus,
    normalized_pair_curve,
)

MODELS = {"reference": REFERENCE_MODEL, "cos^2": CosineSquaredModel()}
DIMS = (2, 4)  # bound searches at seed 0, the `bellhv bounds` defaults
GRID_STEP = 5.0  # degrees, 0 to 90
MALUS_TOLERANCE = 0.05
CHSH_PAIRS, CHSH_SEED = 10**6, 7
SIGMAS = 5.0
TOLERANCE = 1e-9

COLUMNS = ("claim", "subject", "quantity", "value", "error", "limit", "verdict")
NUMERIC = ("value", "error", "limit")  # right-aligned


def verdict(value, limit, error=0.0, sharp=False):
    """holds, refuted, or (for a sharp limit not attained) loose by the gap."""
    if value > limit + SIGMAS * error + TOLERANCE:
        return "refuted"
    if sharp and value < limit - TOLERANCE:
        return f"loose by {limit - value:.4f}"
    return "holds"


def bound_rows():
    for regime in Regime:
        for dim in DIMS:
            report = search_bound(regime, dim)
            certificate = report.certified_expectation
            for quantity, value, bound, limit in (
                ("<B>", report.best_expectation, certificate, report.theoretical_limit_expectation),
                ("<BB+>", report.best_bb_dagger, certificate**2, report.theoretical_limit_bb),
            ):
                gap = max(0.0, bound - value)
                yield ("limits", f"{regime.value} d={dim}", quantity, value, gap, limit,
                       verdict(value, limit, sharp=True))


def curve_rows():
    grid = degrees_grid(0.0, 90.0, GRID_STEP)
    for label, model in MODELS.items():
        wrapped = [expected_coincidence_probability(model, 0.0, alpha) for alpha in grid]
        for convention, curve in (
            ("absorbing", normalized_pair_curve(model, grid)),
            ("wrapped", np.array(wrapped) / wrapped[0]),
        ):
            deviations = np.abs(curve - malus(grid))
            worst = int(np.argmax(deviations))
            quantity = f"|pair - cos^2| at {GRID_STEP * worst:g} deg, {convention}"
            yield ("local model", label, quantity, deviations[worst], None, MALUS_TOLERANCE,
                   verdict(deviations[worst], MALUS_TOLERANCE))
        yield ("local model", label, "singles rate I", intensity_ratio(model), None, None, "-")


def chsh_rows():
    for label, model in MODELS.items():
        all_events, post_selected = chsh(model, CHSH_PAIRS, RngStream(CHSH_SEED))
        clauser_horne = (all_events.value - 2.0) / 4.0
        local_ps = 2.0 / intensity_ratio(model)
        for quantity, estimate, error, limit in (
            ("S all events", all_events.value, all_events.stderr, 2.0),
            ("S post-selected", post_selected.value, post_selected.stderr, 2.0),
            ("S post-selected vs 2/I", post_selected.value, post_selected.stderr, local_ps),
            ("CH expression", clauser_horne, all_events.stderr / 4.0, 0.0),
        ):
            yield ("experiment", label, quantity, estimate, error, limit,
                   verdict(estimate, limit, error))


def rows():
    """Every row, as a tuple in the order of COLUMNS."""
    return [*bound_rows(), *curve_rows(), *chsh_rows()]


def table(rows):
    """The rows under a header, in columns as wide as their widest cell."""
    cells = [COLUMNS] + [
        [item if isinstance(item, str) else "-" if item is None else f"{item:.4f}" for item in row]
        for row in rows
    ]
    widths = [max(len(line[i]) for line in cells) for i in range(len(COLUMNS))]
    align = [">" if name in NUMERIC else "<" for name in COLUMNS]
    return "\n".join(
        "  ".join(f"{item:{a}{w}}" for item, a, w in zip(line, align, widths)).rstrip()
        for line in cells
    )


if __name__ == "__main__":
    print(table(rows()))
