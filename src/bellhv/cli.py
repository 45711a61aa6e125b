"""Command line front-end.

Subcommands expose the library operations as batch runs that write
machine-readable files:

  curve     transmission curves on a degree grid            -> <out>.csv
  bounds    randomized bound search for one regime          -> <out>.json
  simulate  coincidence Monte Carlo (one angle or CHSH set) -> <out>.csv + <out>.json
  fit       parameter recovery against the cos^2 law        -> <out>.json
  replay    re-run a manifest and verify byte equality

`--out` is a path stem; every run also writes `<out>.manifest.json` naming
the resolved parameters, the SHA-256 of each data file, and the numpy
version and platform that wrote them.  Data files are
deterministic functions of the parameters (angles in degrees at this
boundary, 12 significant digits, CSV with LF endings, complex numbers as
[re, im] pairs), so replaying a manifest byte-reproduces them; only the
manifest itself carries a timestamp.

Exit codes: 0 all computations converged, 1 runtime failure (including
non-convergence and replay mismatches), 2 usage errors.

Each subcommand imports only the library modules it runs, when it runs:
importing this module loads `bellhv.errors` and no other, the parser adds
only the chosen subcommand's flags, and `bellhv curve` never compiles the
Bell searches, the sampler or the fit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from . import __version__
from .errors import AngleDomainError, BellhvError, DimensionError, ParameterError

if TYPE_CHECKING:
    from .transmission import StretchedExponentialModel, TabulatedModel, TransmissionModel

# CoincidenceCounts fields a simulate run records per setting
_TALLY_CELLS = ("n11", "n10", "n01", "n00", "n_pairs")


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round12(value: float) -> float:
    return float(_fmt(value))


def _json_ready(obj, round_floats: bool = True):
    """Recursively convert to JSON-safe types; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {k: _json_ready(v, round_floats) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v, round_floats) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist(), round_floats)
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        if round_floats:
            return [_round12(c.real), _round12(c.imag)]
        return [c.real, c.imag]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj)) if round_floats else float(obj)
    return obj


def _json_bytes(document: dict, round_floats: bool = True) -> bytes:
    text = json.dumps(_json_ready(document, round_floats), indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    return buffer.getvalue().encode("utf-8")


def _write_files(directory: Path, files: Dict[str, bytes]) -> Dict[str, str]:
    """Write each named blob into directory; returns each name's SHA-256.

    An OSError (say, a file where the directory should be) becomes a
    ParameterError naming the path, so the run ends with a message and exit
    2 instead of a traceback.
    """
    hashes = {}
    path = directory
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, blob in sorted(files.items()):
            path = directory / name
            path.write_bytes(blob)
            hashes[name] = hashlib.sha256(blob).hexdigest()
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from None
    return hashes


def _is_plain_name(name) -> bool:
    """A file name with no directory part, so it lands where it is written."""
    return isinstance(name, str) and name not in ("", ".", "..") and os.path.basename(name) == name


# ---------------------------------------------------------------------------
# library entry points
#
# Each subcommand imports the library modules it runs, when it runs.  The
# executors call these five through this module's names, which the
# benchmark's tracer (perfbench/layers.py) rebinds to record their spans.


def normalized_pair_curve(model, alphas):
    from .transmission import normalized_pair_curve

    return normalized_pair_curve(model, alphas)


def search_bound(regime, dim, config):
    from .bell import search_bound

    return search_bound(regime, dim, config)


def run_pairs(config):
    from .montecarlo import run_pairs

    return run_pairs(config)


def expected_coincidence_probability(model, angle_a, angle_b):
    from .montecarlo import expected_coincidence_probability

    return expected_coincidence_probability(model, angle_a, angle_b)


def run_fit(start, grid, config, objective):
    from .malusfit import fit

    return fit(start, grid, config, objective)


# ---------------------------------------------------------------------------
# model resolution


def _load_table(path: str) -> TabulatedModel:
    from .transmission import TabulatedModel

    source = Path(path)
    if not source.is_file():
        raise ParameterError(f"table file not found: {path}")
    # utf-8-sig: a byte-order mark (as spreadsheet exports write) is not
    # part of the first cell
    try:
        with source.open(newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].strip().startswith("#")]
    except UnicodeDecodeError:
        raise ParameterError(f"table file is not UTF-8 text: {path}") from None
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]  # the first row is a header only if it starts with a non-number
    angles_deg = []
    values = []
    for row in rows:
        try:
            angle, value = map(float, row)
        except ValueError:  # a non-number, or other than two cells
            raise ParameterError(f"malformed table row: {row!r}")
        angles_deg.append(angle)
        values.append(value)
    return TabulatedModel(np.deg2rad(angles_deg), values)


def _closed_form_overrides(params: dict) -> dict:
    """The closed-form parameters (a, e, c) that the parameter dict sets."""
    from .transmission import StretchedExponentialModel

    names = (field.name for field in dataclasses.fields(StretchedExponentialModel))
    return {name: params[name] for name in names if params.get(name) is not None}


def _reference_triple(params: dict) -> StretchedExponentialModel:
    """REFERENCE_MODEL with every closed-form parameter the dict sets."""
    from .transmission import REFERENCE_MODEL

    return dataclasses.replace(REFERENCE_MODEL, **_closed_form_overrides(params))


def _resolve_model(params: dict) -> TransmissionModel:
    """Build the transmission model named by the parameter dict.

    `model` is one of: 'reference' (the closed-form stretched-exponential
    family, with a/e/c overridable), 'belinfante' (cos^2 profile), or
    'table:<path>' (interpolated samples, angle_deg/probability CSV).
    """
    from .transmission import CosineSquaredModel

    kind = params["model"]
    if kind == "reference":
        return _reference_triple(params)
    if _closed_form_overrides(params):
        raise ParameterError("--a/--e/--c apply only to the closed-form model")
    if kind == "belinfante":
        return CosineSquaredModel()
    if isinstance(kind, str) and kind.startswith("table:"):
        return _load_table(kind[len("table:") :])
    raise ParameterError(
        f"unknown model {kind!r} (expected reference, belinfante, table:<path>)"
    )


# ---------------------------------------------------------------------------
# subcommand execution: parameters dict -> {basename suffix: bytes}, converged


def _require_window(flag: str, degrees: float, radians) -> None:
    """AngleDomainError naming `flag` and its value in degrees, unless the
    radians lie in the window the library accepts (`require_deviation_angle`)."""
    from .angles import require_deviation_angle

    try:
        require_deviation_angle(radians)
    except AngleDomainError:
        raise AngleDomainError(
            f"{flag} must lie in [-90, 90] degrees; got {_fmt(degrees)}"
        ) from None


def _grid(params: dict) -> Tuple[np.ndarray, np.ndarray]:
    """The run's angle grid in degrees, as written (start + step * i), and in radians."""
    from .angles import degrees_grid

    radians = degrees_grid(params["grid_start"], params["grid_stop"], params["grid_step"])
    # the grid ascends, so if it leaves the window below, it does so at its start
    _require_window("--grid-start", params["grid_start"], radians[0])
    _require_window("--grid-stop", params["grid_stop"], radians)
    return params["grid_start"] + params["grid_step"] * np.arange(radians.size), radians


def _execute_curve(params: dict, stem_name: str) -> Tuple[Dict[str, bytes], bool]:
    from .transmission import malus

    model = _resolve_model(params)
    degrees, grid = _grid(params)
    ratios = normalized_pair_curve(model, grid)
    rows = list(zip(degrees, model.probabilities(grid), ratios, malus(grid)))
    blob = _csv_bytes(("angle_deg", "p1", "pair_ratio", "malus"), rows)
    # converged: integrate_rows raises QuadratureConvergenceError when a row
    # misses its target, and main then exits 1
    return {f"{stem_name}.csv": blob}, True


def _execute_bounds(params: dict, stem_name: str) -> Tuple[Dict[str, bytes], bool]:
    from .bell import Regime
    from .rng import RngStream, SearchConfig

    regime = Regime(params["regime"])
    config = SearchConfig(
        restarts=params["restarts"], rng=RngStream(params["seed"])
    )
    report = search_bound(regime, params["dim"], config)
    document = {
        "regime": report.regime.value,
        "dim": report.dim,
        "seed": params["seed"],
        "restarts": report.restarts,
        "best_restart": report.best_restart,
        "iterations": report.iterations,
        "best_expectation": report.best_expectation,
        "best_bb_dagger": report.best_bb_dagger,
        "theoretical_limit_expectation": report.theoretical_limit_expectation,
        "theoretical_limit_bb": report.theoretical_limit_bb,
        "witness": {
            name: getattr(report.witness, name) for name in ("a1", "a2", "b1", "b2")
        },
        "witness_state": report.witness_state,
    }
    return {f"{stem_name}.json": _json_bytes(document)}, True


def _z_score(estimate: float, stderr: float, expected: float, n: int) -> float:
    """Deviation of the observed p11 from the expected one, in standard errors.

    A tally of no coincidences, or of nothing else, has no binomial spread
    of its own; it is scored against the spread at the expected rate, so it
    does not read as perfect agreement.
    """
    if stderr == 0.0:
        rate = min(max(expected, 0.0), 1.0)
        stderr = float(np.sqrt(rate * (1.0 - rate) / n))
    return 0.0 if stderr == 0.0 else (estimate - expected) / stderr


def _execute_simulate(params: dict, stem_name: str) -> Tuple[Dict[str, bytes], bool]:
    from .montecarlo import (
        CANONICAL_SETTINGS,
        chsh_estimates,
        coincidence_probability_estimate,
        setting_configs,
    )
    from .rng import RngStream

    model = _resolve_model(params)
    if params.get("alpha") is not None:
        alpha = float(params["alpha"])
        _require_window("--alpha", alpha, np.deg2rad(alpha))
        settings = [(0.0, alpha)]
    else:
        settings = np.rad2deg(CANONICAL_SETTINGS).tolist()  # exact: 0, 45, +/-22.5 degrees

    configs = setting_configs(model, np.deg2rad(settings), params["n"], RngStream(params["seed"]))
    tallies = []
    summaries = []
    for config, (deg_a, deg_b) in zip(configs, settings):
        counts = run_pairs(config)
        estimate, stderr = coincidence_probability_estimate(counts)
        expected = expected_coincidence_probability(config.model, config.angle_a, config.angle_b)
        tallies.append(counts)
        summaries.append(
            {
                "angle_a_deg": deg_a,
                "angle_b_deg": deg_b,
                **{cell: getattr(counts, cell) for cell in _TALLY_CELLS},
                "p11": estimate,
                "p11_stderr": stderr,
                "p11_expected": expected,
                "z_score": _z_score(estimate, stderr, expected, config.n_pairs),
            }
        )

    header = ("setting", "angle_a_deg", "angle_b_deg", *_TALLY_CELLS)
    rows = [
        (index, s["angle_a_deg"], s["angle_b_deg"], *(str(s[cell]) for cell in _TALLY_CELLS))
        for index, s in enumerate(summaries)
    ]
    document = {"settings": summaries}

    if len(tallies) == 4:
        all_events, post = chsh_estimates(tallies)
        document["chsh"] = {
            "all_events_S": all_events.value,
            "all_events_stderr": all_events.stderr,
            "post_selected_S": post.value,
            "post_selected_stderr": post.stderr,
            "retained_fraction": post.retained_fraction,
            "correlations_all_events": all_events.correlations,
            "correlations_post_selected": post.correlations,
        }

    # converged: integrate_rows raises QuadratureConvergenceError when a row
    # misses its target (here in p11_expected), and main then exits 1
    return {
        f"{stem_name}.csv": _csv_bytes(header, rows),
        f"{stem_name}.json": _json_bytes(document),
    }, True


def _execute_fit(params: dict, stem_name: str) -> Tuple[Dict[str, bytes], bool]:
    from .malusfit import FIT_SEARCH
    from .rng import RngStream

    start = _reference_triple(params)
    degrees, grid = _grid(params)
    config = dataclasses.replace(
        FIT_SEARCH, restarts=params["restarts"], rng=RngStream(params["seed"])
    )
    result = run_fit(
        start=start, grid=grid, config=config, objective=params["objective"]
    )
    document = {
        "start": dataclasses.asdict(start),
        "params": dataclasses.asdict(result.params),
        "residual": result.residual,
        "objective": result.objective,
        "grid_deg": degrees,
        "intensity_ratio_at_fit": result.intensity_ratio_at_fit,
        "converged": result.converged,
        "stationarity_gap": result.stationarity_gap,
        "active_angles_deg": [degrees[k] for k in result.active],
        "best_restart": result.best_restart,
        "iterations": result.iterations,
    }
    return {f"{stem_name}.json": _json_bytes(document)}, result.converged


_EXECUTORS = {
    "curve": _execute_curve,
    "bounds": _execute_bounds,
    "simulate": _execute_simulate,
    "fit": _execute_fit,
}


def _write_run(stem: Path, subcommand: str, params: dict) -> Tuple[Path, bool]:
    """Execute and write data files plus the manifest; returns manifest path."""
    files, converged = _EXECUTORS[subcommand](params, stem.name)
    outputs = _write_files(stem.parent, files)
    # system, kernel release, machine and C library, read without the
    # processor that platform.platform() also looks up, which runs `uname -p`
    # in a subprocess (about 10 ms a run on Linux)
    uname = platform.uname()
    host = (uname.system, uname.release, uname.machine, *platform.libc_ver())
    manifest = {
        "artifact": "bellhv",
        "version": __version__,
        # a replay MISMATCH on another host may come from its numpy or LAPACK
        "numpy_version": np.__version__,
        "platform": "-".join(filter(None, host)),
        "subcommand": subcommand,
        "stem": stem.name,
        "parameters": params,
        "outputs": outputs,
        "converged": converged,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest_name = f"{stem.name}.manifest.json"
    _write_files(stem.parent, {manifest_name: _json_bytes(manifest, round_floats=False)})
    return stem.parent / manifest_name, converged


class _Parser(argparse.ArgumentParser):
    """argparse, reading a negative number in exponent form (-1e-5) as a value.

    `add_flags(parser)`, if given, adds the parser's flags when it first
    parses: a subcommand's flags read defaults and choices from the modules
    that run it, so only the chosen subcommand's modules are imported.
    """

    def __init__(self, *args, add_flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        self._add_flags = add_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            add_flags, self._add_flags = self._add_flags, None
            add_flags(self)
        return super().parse_known_args(args, namespace)


class _ReplayParser(_Parser):
    """The command-line parser, with a bad replayed parameter as a usage error."""

    def error(self, message):
        raise ParameterError(f"manifest parameters: {message}")


def _replayed_params(subcommand: str, stem_name: str, recorded) -> dict:
    """The parameters a command-line run would record for `recorded`.

    Each recorded value goes back through the command-line parser as
    `--name=value`, so types, choices and unknown names are checked exactly
    as for a fresh run, and `_params_from_args` then names every parameter
    the run records; any that `recorded` lacks or adds is a usage error.
    """
    if not isinstance(recorded, dict):
        raise ParameterError("manifest parameters must be a JSON object")
    argv = [subcommand, f"--out={stem_name}"] + [
        f"--{name.replace('_', '-')}={value}"
        for name, value in recorded.items()
        if value is not None
    ]
    params = _params_from_args(_build_parser(_ReplayParser).parse_args(argv))
    missing = sorted(set(params) - set(recorded))
    unknown = sorted(set(recorded) - set(params))
    if missing or unknown:
        raise ParameterError(
            f"manifest parameters: missing {missing or 'none'}, unknown {unknown or 'none'}"
        )
    return params


def _run_replay(manifest_path: str, out_dir: str) -> int:
    source = Path(manifest_path)
    if not source.is_file():
        raise ParameterError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"manifest is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParameterError("manifest must be a JSON object")
    for key in ("subcommand", "parameters", "outputs"):
        if key not in manifest:
            raise ParameterError(f"manifest is missing the {key!r} field")
    subcommand, outputs, stem = manifest["subcommand"], manifest["outputs"], manifest.get("stem")
    if not isinstance(subcommand, str) or subcommand not in _EXECUTORS:
        raise ParameterError(f"manifest names unknown subcommand {subcommand!r}")
    if not isinstance(outputs, dict):
        raise ParameterError("manifest outputs must be a JSON object")
    if not (stem or outputs):
        raise ParameterError("manifest names neither a stem nor any output")
    # replayed files land in out_dir and nowhere else
    for name in ([] if stem is None else [stem]) + list(outputs):
        if not _is_plain_name(name):
            raise ParameterError(f"manifest names {name!r}, which is not a plain file name")
    stem_name = stem or sorted(outputs)[0].split(".")[0]
    params = _replayed_params(subcommand, stem_name, manifest["parameters"])

    files, converged = _EXECUTORS[subcommand](params, stem_name)
    fresh = _write_files(Path(out_dir), files)

    all_match = converged
    for name, recorded_hash in sorted(outputs.items()):
        if name not in fresh:
            print(f"{name}: missing from replay", file=sys.stderr)
            all_match = False
        elif fresh[name] == recorded_hash:
            print(f"{name}: ok")
        else:
            print(f"{name}: MISMATCH")
            all_match = False
    return 0 if all_match else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_closed_form_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--a", type=float, default=None, help="closed-form scale a > 0")
    parser.add_argument("--e", type=float, default=None, help="closed-form exponent e > 0")
    parser.add_argument("--c", type=float, default=None, help="closed-form weight c >= 0")


def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--model",
        default="reference",
        metavar="{reference|belinfante|table:<path>}",
        help="transmission profile: closed-form family (reference), cos^2 "
        "(belinfante), or interpolated angle_deg,probability samples "
        "(table:<path>)",
    )
    _add_closed_form_flags(parser)


def _add_grid_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--grid-start", type=float, default=0.0, help="first angle, degrees")
    parser.add_argument("--grid-stop", type=float, default=90.0, help="last angle, degrees")
    parser.add_argument("--grid-step", type=float, default=5.0, help="step, degrees")


def _add_run_flags(parser: argparse.ArgumentParser, seeded: bool = True):
    if seeded:
        parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--out", required=True, help="output path stem")


def _curve_flags(parser: argparse.ArgumentParser):
    _add_model_flags(parser)
    _add_grid_flags(parser)
    _add_run_flags(parser, seeded=False)


def _bounds_flags(parser: argparse.ArgumentParser):
    from .bell import Regime
    from .rng import SearchConfig

    parser.add_argument(
        "--regime",
        required=True,
        choices=[r.value for r in Regime],
        help="commutation constraints on the four operators",
    )
    parser.add_argument(
        "--dim",
        type=int,
        default=2,
        help="space dimension (per subsystem for the commuting regime)",
    )
    parser.add_argument(
        "--restarts", type=int, default=SearchConfig().restarts, help="search restarts"
    )
    _add_run_flags(parser)


def _simulate_flags(parser: argparse.ArgumentParser):
    from .montecarlo import CANONICAL_ANGLES

    _add_model_flags(parser)
    parser.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="relative analyzer angle in degrees (omit to run the canonical "
        f"CHSH settings {'/'.join(map(_fmt, np.rad2deg(CANONICAL_ANGLES)))})",
    )
    parser.add_argument("--n", type=int, default=10**6, help="pairs per setting")
    _add_run_flags(parser)


def _fit_flags(parser: argparse.ArgumentParser):
    from .malusfit import FIT_SEARCH, OBJECTIVES

    _add_closed_form_flags(parser)
    _add_grid_flags(parser)
    parser.add_argument(
        "--objective",
        default=OBJECTIVES[0],
        choices=OBJECTIVES,
        help="deviation measure over the grid",
    )
    parser.add_argument("--restarts", type=int, default=FIT_SEARCH.restarts, help="search restarts")
    _add_run_flags(parser)


def _replay_flags(parser: argparse.ArgumentParser):
    parser.add_argument("manifest", help="path to a <stem>.manifest.json file")
    parser.add_argument("--out-dir", required=True, help="directory for replayed files")


# (name, help, flags) of each subcommand, in the order `bellhv --help` lists them
_SUBCOMMANDS = (
    ("curve", "p1, pair ratio, and cos^2 on a degree grid", _curve_flags),
    ("bounds", "randomized Bell-operator bound search", _bounds_flags),
    ("simulate", "coincidence Monte Carlo run", _simulate_flags),
    ("fit", "recover (a, e, c) against the cos^2 law", _fit_flags),
    ("replay", "re-run a manifest and verify outputs", _replay_flags),
)


def _build_parser(parser_class=_Parser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="bellhv",
        description="Polarizer-pair transmission curves, coincidence Monte Carlo, "
        "and Bell-operator bound searches.",
    )
    parser.add_argument("--version", action="version", version=f"bellhv {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, summary, add_flags in _SUBCOMMANDS:
        sub.add_parser(name, help=summary, add_flags=add_flags)
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    """The run's parameters: every parsed flag except the output stem."""
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "out")}
    if args.subcommand == "fit":
        params.update(dataclasses.asdict(_reference_triple(params)))
    return params


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "replay":
            return _run_replay(args.manifest, args.out_dir)
        stem = Path(args.out)
        if not _is_plain_name(stem.name):
            # a manifest whose stem is not a plain file name does not replay
            raise ParameterError(f"--out {args.out!r} names no file stem")
        manifest_path, converged = _write_run(stem, args.subcommand, _params_from_args(args))
        print(f"wrote {manifest_path}")
        return 0 if converged else 1
    except (ParameterError, AngleDomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BellhvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
