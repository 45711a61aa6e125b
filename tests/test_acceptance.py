"""End-to-end guarantees of the package, one test per guarantee.

These are the headline behaviors: the reference transmission profile passes
44-46% of unpolarized light through one polarizer yet reproduces the
cosine-squared law for a pair within 0.05; the cos^2 single-polarizer profile
does not; deterministic +/-1 assignments cap the four-correlation combination
at exactly 2; the canonical two-qubit scenario reaches 2*sqrt(2); randomized
searches never exceed the per-regime operator limits; the sampler agrees with
quadrature; the all-events estimator stays local; the operator square
identity holds for involutory commuting scenarios; and every command line run
is byte-reproducible from its manifest.  Each test also enforces a wall-time
budget so the guarantees stay cheap to check.
"""

import math
import time

import numpy as np

from _frozen import BELINFANTE, REFERENCE
from _square_identity import random_involutory_scenario, square_identity_deviation
from bellhv.bell import (
    BB_DAGGER_LIMITS,
    EXPECTATION_LIMITS,
    Regime,
    bb_dagger_expectation,
    canonical_chsh_scenario,
    classical_bound_bruteforce,
    max_expectation,
    search_bound,
)
from bellhv.cli import main as cli_main
from bellhv.montecarlo import ExperimentConfig, chsh, run_pairs
from bellhv.rng import RngStream, SearchConfig
from bellhv.transmission import (
    REFERENCE_MODEL,
    CosineSquaredModel,
    default_angle_grid,
    intensity_ratio,
    malus,
    normalized_pair_curve,
    pair_transmission,
)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_single_polarizer_passes_just_under_half_the_light():
    with Stopwatch() as watch:
        ratio = intensity_ratio(REFERENCE_MODEL)
    assert abs(ratio - 0.45) <= 0.01
    np.testing.assert_allclose(ratio, REFERENCE["intensity_ratio"], atol=1e-9)
    assert watch.elapsed < 1.0


def test_pair_curve_tracks_the_cosine_squared_law():
    grid = default_angle_grid()
    with Stopwatch() as watch:
        curve = normalized_pair_curve(REFERENCE_MODEL, grid)
    deviations = np.abs(curve - malus(grid))
    assert deviations.max() <= 0.05
    frozen = np.array([REFERENCE["ratio_curve"][str(d)] for d in range(0, 91, 5)])
    np.testing.assert_allclose(curve, frozen, atol=1e-9)
    assert watch.elapsed < 1.0


def test_cosine_squared_single_profile_fails_the_pair_law():
    grid = default_angle_grid()
    with Stopwatch() as watch:
        curve = normalized_pair_curve(CosineSquaredModel(), grid)
    worst = float(np.abs(curve - malus(grid)).max())
    assert worst > 0.1
    np.testing.assert_allclose(worst, BELINFANTE["malus_residual"], atol=1e-9)
    assert watch.elapsed < 1.0


def test_deterministic_assignments_cap_the_combination_at_two():
    assert classical_bound_bruteforce() == 2.0


def test_canonical_two_qubit_scenario_reaches_two_root_two():
    with Stopwatch() as watch:
        scenario = canonical_chsh_scenario()
        expectation = max_expectation(scenario)
        bb = bb_dagger_expectation(scenario)
    assert abs(expectation - 2.0 * math.sqrt(2.0)) <= 1e-10
    assert abs(bb - 8.0) <= 1e-9
    assert watch.elapsed < 1.0


def test_randomized_searches_respect_every_regime_limit():
    best = {regime: 0.0 for regime in Regime}
    with Stopwatch() as watch:
        for seed in range(100):
            for regime in Regime:
                for dim in (2, 4):
                    report = search_bound(
                        regime,
                        dim,
                        SearchConfig(restarts=2, max_iterations=60, rng=RngStream(seed)),
                    )
                    limit = EXPECTATION_LIMITS[regime]
                    assert report.best_expectation <= limit + 1e-6, (
                        f"{regime.value} dim {dim} seed {seed}: "
                        f"{report.best_expectation} exceeds {limit}"
                    )
                    assert report.best_bb_dagger <= BB_DAGGER_LIMITS[regime] + 1e-6
                    best[regime] = max(best[regime], report.best_expectation)
    tsirelson = 2.0 * math.sqrt(2.0)
    assert best[Regime.COMMUTING_SUBSYSTEMS] >= tsirelson - 1e-3
    assert best[Regime.UNRESTRICTED] >= tsirelson - 1e-3
    print(
        "best values: "
        + ", ".join(f"{regime.value}={value:.12f}" for regime, value in best.items())
    )
    assert watch.elapsed < 60.0


def test_sampler_agrees_with_quadrature_across_the_angle_range():
    n = 10**6
    angles = RngStream(2026).generator().uniform(0.0, math.radians(75.0), size=10)
    with Stopwatch() as watch:
        for index, alpha in enumerate(angles):
            counts = run_pairs(
                ExperimentConfig(
                    model=REFERENCE_MODEL,
                    angle_a=0.0,
                    angle_b=float(alpha),
                    n_pairs=n,
                    rng=RngStream(1000 + index),
                )
            )
            expected = pair_transmission(REFERENCE_MODEL, float(alpha)) / math.pi
            sigma = math.sqrt(expected * (1.0 - expected) / n)
            observed = counts.n11 / n
            assert abs(observed - expected) <= 4.0 * sigma, (
                f"angle {math.degrees(alpha):.2f} deg: observed {observed}, "
                f"expected {expected}, sigma {sigma}"
            )
    assert watch.elapsed < 10.0


def test_all_events_estimator_never_crosses_the_local_limit():
    with Stopwatch() as watch:
        for seed in range(20):
            estimate, _ = chsh(REFERENCE_MODEL, 10**5, RngStream(seed))
            assert estimate.value <= 2.0 + 5.0 * estimate.stderr
    assert watch.elapsed < 30.0


def test_square_identity_for_involutory_commuting_scenarios():
    dims = [(2, 2), (2, 2), (2, 2), (2, 4), (4, 2), (2, 4), (4, 4), (4, 4), (3, 3), (3, 4)]
    with Stopwatch() as watch:
        for seed, (dim_a, dim_b) in enumerate(dims):
            scenario = random_involutory_scenario(dim_a, dim_b, RngStream(seed))
            assert square_identity_deviation(scenario) <= 1e-10
    assert watch.elapsed < 1.0


def test_every_subcommand_replays_byte_identically(tmp_path):
    runs = {
        "curve": (["curve", "--grid-step", "15"], ("curve.csv",)),
        "bounds": (
            ["bounds", "--regime", "commuting", "--seed", "3", "--restarts", "2"],
            ("bounds.json",),
        ),
        "simulate": (
            ["simulate", "--alpha", "30", "--n", "20000", "--seed", "5"],
            ("simulate.csv", "simulate.json"),
        ),
        "fit": (["fit"], ("fit.json",)),
    }
    for stem, (args, data_files) in runs.items():
        out = tmp_path / stem / stem
        assert cli_main(args + ["--out", str(out)]) == 0, f"{stem} run failed"
        replay_dir = tmp_path / stem / "replayed"
        code = cli_main(
            ["replay", str(out.parent / f"{stem}.manifest.json"),
             "--out-dir", str(replay_dir)]
        )
        assert code == 0, f"{stem} replay failed"
        for name in data_files:
            original = (out.parent / name).read_bytes()
            replayed = (replay_dir / name).read_bytes()
            assert original == replayed, f"{name} changed under replay"
