#!/usr/bin/env python3
"""Search for the largest Bell-operator expectation under each commutation regime.

Runs randomized searches over Hermitian involutory observables and states at
several dimensions, then reports three values per regime: the paper's limit,
the certificate of the best witness (an upper bound from its own operators,
see `BoundReport.certified_expectation`), and the best value attained.  The
paper's limits are 2 when all four observables commute (deterministic
assignments), 2*sqrt(2) when each observable of one side commutes with both
on the other side, and 2*sqrt(3) with no commutation restriction.  The
squared-operator expectations are checked against the matching limits 4, 8,
and 12.

Usage: python3 scripts/bound_sweep.py [--seeds N] [--dims 2,4] [--restarts R]
"""

import argparse
import math
import sys

from bellhv.bell import Regime, search_bound
from bellhv.errors import DimensionError
from bellhv.rng import RngStream, SearchConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, help="random seeds per regime/dimension")
    parser.add_argument("--dims", default="2,4", help="comma-separated Hilbert-space dimensions")
    parser.add_argument("--restarts", type=int, default=2, help="optimizer restarts per search")
    parser.add_argument("--max-iterations", type=int, default=60, help="iterations per restart")
    args = parser.parse_args(argv)
    dims = [int(d) for d in args.dims.split(",")]

    print(
        f"{'regime':>24} {'dim':>4} {'paper <B>':>10} {'certified':>12} {'attained':>12}"
        f" {'best <BB+>':>12} {'paper':>7}"
    )
    violations = 0
    for regime in Regime:
        for dim in dims:
            best = None
            for seed in range(args.seeds):
                config = SearchConfig(
                    restarts=args.restarts,
                    max_iterations=args.max_iterations,
                    rng=RngStream(seed),
                )
                try:
                    report = search_bound(regime, dim, config=config)
                except DimensionError:  # e.g. above the cap on the total dimension
                    break
                if report.best_expectation > report.theoretical_limit_expectation + 1e-6:
                    violations += 1
                if report.best_expectation > report.certified_expectation + 1e-6:
                    violations += 1
                if report.best_bb_dagger > report.theoretical_limit_bb + 1e-6:
                    violations += 1
                if best is None or report.best_expectation > best.best_expectation:
                    best = report
            if best is None:
                continue
            print(
                f"{regime.value:>24} {dim:>4} {best.theoretical_limit_expectation:>10.6f}"
                f" {best.certified_expectation:>12.8f} {best.best_expectation:>12.8f}"
                f" {best.best_bb_dagger:>12.8f} {best.theoretical_limit_bb:>7.2f}"
            )

    if violations:
        print(f"\n{violations} searches exceeded a regime limit or certificate", file=sys.stderr)
        return 1
    print(
        "\nno search exceeded its regime limit or its certificate"
        f" (2, 2*sqrt(2)={2 * math.sqrt(2):.6f}, 2*sqrt(3)={2 * math.sqrt(3):.6f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
