"""The four benchmark workloads: the CLI commands each runs, and their checks.

A workload op is a list of processes, each a list of `bellhv` command lines
run one after another in a fresh interpreter.  `check` reads the files the
op wrote and compares them with references that do not come from the code
under test: the frozen oracle values in `tests/_frozen.py` and the paper's
closed-form limits.  It returns one failure message (or None) per command,
plus the workload's own accuracy or throughput figures.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

SQRT8 = 2.0 * math.sqrt(2.0)
PAPER_LIMITS = {"classical": 2.0, "commuting": SQRT8, "unrestricted": 2.0 * math.sqrt(3.0)}
PAPER_BB_LIMITS = {"classical": 4.0, "commuting": 8.0, "unrestricted": 12.0}
LIMIT_SLACK = 1e-9

CHSH_PAIRS = 5_000_000
BOUNDS_CASES = (
    ("classical", 2),
    ("classical", 16),
    ("commuting", 2),
    ("commuting", 4),
    ("unrestricted", 2),
    ("unrestricted", 4),
    ("unrestricted", 8),
    ("unrestricted", 16),
)
REPLAY_LINE = re.compile(r"^(\S+): (ok|MISMATCH|missing from replay)$")


def _json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _first_failure(checks):
    for ok, message in checks:
        if not ok:
            return message
    return None


def _guarded(check, *args):
    """Run one output check; unreadable or malformed output is a failure."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"output unreadable: {type(exc).__name__}: {exc}"


def replay_counts(stdout):
    """(files checked, mismatches) from the lines `bellhv replay` prints."""
    statuses = [m.group(2) for m in map(REPLAY_LINE.match, stdout.splitlines()) if m]
    return len(statuses), sum(status != "ok" for status in statuses)


# ---------------------------------------------------------------------------
# per-command output checks


def check_fit(stem, frozen):
    pinned = frozen["REGRESSIONS"]["fit_default_from_reference"]
    doc = _json(f"{stem}.json")
    residual = doc["residual"]
    return _first_failure(
        [
            (doc["converged"] is True, "fit did not converge"),
            (residual <= pinned["threshold"], f"residual {residual} above {pinned['threshold']}"),
            (
                abs(residual - pinned["residual"]) <= 1e-9,
                f"residual {residual} differs from the frozen {pinned['residual']}",
            ),
        ]
    )


def check_simulate(stem, oracle_s_ps):
    """Every setting within 5 sigma of its quadrature value; CHSH estimators
    (when all four settings ran) against the local limit and the oracle."""
    doc = _json(f"{stem}.json")
    checks = [
        (abs(s["z_score"]) <= 5.0, f"setting {i}: |z| = {abs(s['z_score']):.2f} > 5")
        for i, s in enumerate(doc["settings"])
    ]
    if oracle_s_ps is not None:
        chsh = doc["chsh"]
        s_all, s_ps = chsh["all_events_S"], chsh["post_selected_S"]
        checks.append(
            (
                s_all <= 2.0 + 5.0 * chsh["all_events_stderr"],
                f"all-events S {s_all} above 2 + 5 sigma",
            )
        )
        checks.append(
            (
                abs(s_ps - oracle_s_ps) <= 5.0 * chsh["post_selected_stderr"],
                f"post-selected S {s_ps} more than 5 sigma from {oracle_s_ps}",
            )
        )
    return _first_failure(checks)


def check_bounds(stem, regime):
    doc = _json(f"{stem}.json")
    best, bb = doc["best_expectation"], doc["best_bb_dagger"]
    if regime == "classical":
        attained = (best == 2.0, f"classical search returned {best!r}, not exactly 2")
    else:
        attained = (best >= SQRT8 - LIMIT_SLACK, f"{regime} search reached only {best!r}")
    return _first_failure(
        [
            attained,
            (best <= PAPER_LIMITS[regime] + LIMIT_SLACK, f"<B> = {best!r} above the limit"),
            (bb <= PAPER_BB_LIMITS[regime] + LIMIT_SLACK, f"<BB+> = {bb!r} above the limit"),
        ]
    )


def curve_errors(stem, oracle):
    """{angle: |pair_ratio - oracle|} for the oracle's angles."""
    rows = {row["angle_deg"]: float(row["pair_ratio"]) for row in _csv_rows(f"{stem}.csv")}
    return {deg: abs(rows[deg] - value) for deg, value in oracle.items()}


def check_curve(stem, oracle):
    errors = curve_errors(stem, oracle)
    worst = max(errors, key=errors.get)
    if errors[worst] > 1e-9:
        return f"pair_ratio at {worst} deg is {errors[worst]:.3e} off its oracle"
    return None


def check_replay(stdout):
    checked, mismatches = replay_counts(stdout)
    if checked == 0:
        return "replay verified no files"
    if mismatches:
        return f"replay: {mismatches} of {checked} files did not match"
    return None


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Commands for one op and the checks of their outputs."""

    name = ""

    def processes(self, seed, out):
        raise NotImplementedError

    def check(self, out, records, frozen):
        """(one failure message or None per command, workload figures)."""
        raise NotImplementedError


class Fit(Workload):
    """`bellhv fit` with every default, in one process.

    The workload seed does not enter: the fit's seeded restart changes the
    work done by up to 2x between seeds (558 to 1134 objective evaluations
    over fit seeds 0-5), which would hide any change in the code's speed,
    and the frozen default result pins the output exactly.
    """

    name = "fit"

    def processes(self, seed, out):
        return [[["fit", "--out", f"{out}/fit"]]]

    def check(self, out, records, frozen):
        failure = _guarded(check_fit, f"{out}/fit", frozen)
        figures = {}
        if failure is None:
            figures["fit_residual"] = _json(f"{out}/fit.json")["residual"]
        return [failure], figures


class Chsh(Workload):
    """The canonical CHSH settings for both models, 5e6 pairs per setting."""

    name = "chsh"
    models = ("reference", "belinfante")

    def processes(self, seed, out):
        return [
            [
                ["simulate", "--model", model, "--n", str(CHSH_PAIRS), "--seed", str(seed),
                 "--out", f"{out}/{model}"]
                for model in self.models
            ]
        ]

    def check(self, out, records, frozen):
        oracles = {
            "reference": frozen["MC_REFERENCE"]["S_ps"],
            "belinfante": frozen["MC_BELINFANTE"]["S_ps"],
        }
        failures = [_guarded(check_simulate, f"{out}/{m}", oracles[m]) for m in self.models]
        if any(failures) or any(r["rc"] != 0 for r in records):
            return failures, {}
        seconds = sum(r["seconds"] for r in records)
        return failures, {"pairs_per_s": 4 * CHSH_PAIRS * len(self.models) / seconds}


class Bounds(Workload):
    """Bound searches over every regime and dimension for search seed 0, in
    one process.

    The workload seed does not enter: the search seed changes the work done
    several-fold (the eight searches of one seed took 1.3 to 3.9 s; 12 of 90
    unrestricted d=16 searches end on a Hermitian witness and skip the
    numerical radius), which would hide any change in the code's speed.  One
    seed per op keeps ops short, so a run holds enough of them for a steady
    median.
    """

    name = "bounds"

    def processes(self, seed, out):
        return [
            [
                ["bounds", "--regime", regime, "--dim", str(dim), "--seed", "0",
                 "--out", f"{out}/{regime}_d{dim}"]
                for regime, dim in BOUNDS_CASES
            ]
        ]

    def check(self, out, records, frozen):
        failures, gaps = [], []
        for record in records:
            argv = record["argv"]
            regime, stem = argv[argv.index("--regime") + 1], argv[argv.index("--out") + 1]
            failure = _guarded(check_bounds, stem, regime)
            failures.append(failure)
            if failure is None and regime != "classical":
                gaps.append(max(0.0, SQRT8 - _json(f"{stem}.json")["best_expectation"]))
        return failures, ({"bound_gap": max(gaps)} if gaps else {})


class CliShort(Workload):
    """Eight short commands, each in a fresh interpreter: four runs, then a
    replay of each run's manifest."""

    name = "cli_short"
    runs = ("curve_ref", "curve_bel", "simulate", "bounds")

    def processes(self, seed, out):
        commands = [
            ["curve", "--out", f"{out}/curve_ref"],
            ["curve", "--model", "belinfante", "--out", f"{out}/curve_bel"],
            ["simulate", "--alpha", "30", "--n", "200000", "--seed", str(seed),
             "--out", f"{out}/simulate"],
            ["bounds", "--regime", "commuting", "--dim", "2", "--seed", str(seed),
             "--out", f"{out}/bounds"],
        ] + [
            ["replay", f"{out}/{stem}.manifest.json", "--out-dir", f"{out}/replay_{stem}"]
            for stem in self.runs
        ]
        return [[command] for command in commands]

    def check(self, out, records, frozen):
        reference = frozen["REFERENCE"]["ratio_curve"]
        belinfante_90 = {"90": 1.0 / 6.0}
        failures = [
            _guarded(check_curve, f"{out}/curve_ref", reference),
            _guarded(check_curve, f"{out}/curve_bel", belinfante_90),
            _guarded(check_simulate, f"{out}/simulate", None),
            _guarded(check_bounds, f"{out}/bounds", "commuting"),
        ] + [check_replay(r["stdout"]) for r in records[len(self.runs):]]
        figures = {}
        if failures[0] is None and failures[1] is None:
            errors = list(curve_errors(f"{out}/curve_ref", reference).values())
            errors += curve_errors(f"{out}/curve_bel", belinfante_90).values()
            figures["curve_max_err"] = max(errors)
        return failures, figures


WORKLOADS = {w.name: w for w in (Fit(), Chsh(), Bounds(), CliShort())}
