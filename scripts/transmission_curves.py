#!/usr/bin/env python3
"""Print single- and pair-polarizer transmission curves on a degree grid.

For each profile this reports the fraction of unpolarized light passing one
polarizer, then tabulates the single-photon transmission p1, the normalized
pair transmission P(alpha)/P(0), and cos^2(alpha) for comparison.  The
stretched-exponential reference profile tracks the cosine-squared law within
0.05 while passing only ~44% of unpolarized light through a single polarizer;
the profile that is itself cos^2 overshoots the pair law by ~0.24.

Usage: python3 scripts/transmission_curves.py [--step DEG] [--csv PATH]
"""

import argparse
import csv
import sys

import numpy as np

from bellhv.angles import degrees_grid
from bellhv.transmission import (
    REFERENCE_MODEL,
    CosineSquaredModel,
    intensity_ratio,
    malus,
    normalized_pair_curve,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--step", type=float, default=5.0, help="grid step in degrees")
    parser.add_argument("--csv", default=None, help="also write the table to this CSV file")
    args = parser.parse_args(argv)

    grid = degrees_grid(0.0, 90.0, args.step)
    # the written degrees are start + step i, not a round trip through radians
    degrees = args.step * np.arange(grid.size)
    profiles = {
        "stretched-exponential (a=%.1f, e=%.1f, c=%.0f)"
        % (REFERENCE_MODEL.a, REFERENCE_MODEL.e, REFERENCE_MODEL.c): REFERENCE_MODEL,
        "cos^2 single-polarizer profile": CosineSquaredModel(),
    }

    rows = []
    for label, model in profiles.items():
        ratio = intensity_ratio(model)
        singles = model.probabilities(grid)
        curve = normalized_pair_curve(model, grid)
        laws = malus(grid)
        worst = float(np.abs(curve - laws).max())
        print(f"\n{label}")
        print(f"  unpolarized single-polarizer transmission: {ratio:.4f}")
        print(f"  worst |pair curve - cos^2| on the grid:    {worst:.4f}")
        print(f"  {'deg':>5} {'p1':>10} {'pair':>10} {'cos^2':>10} {'diff':>9}")
        for deg, single, pair, law in zip(degrees, singles, curve, laws):
            print(f"  {deg:5g} {single:10.6f} {pair:10.6f} {law:10.6f} {pair - law:+9.4f}")
            rows.append((label, deg, single, pair, law))

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("profile", "angle_deg", "p1", "pair_ratio", "malus"))
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
