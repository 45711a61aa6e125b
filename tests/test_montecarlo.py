import concurrent.futures
import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _chunk_loop
import _simpson_loop
from _constant_model import ConstantModel
from _frozen import MC_BELINFANTE, MC_REFERENCE, REFERENCE, REGRESSIONS
from bellhv import montecarlo
from bellhv.angles import reduce_axis_angle
from bellhv.errors import DegenerateModelError, ParameterError
from bellhv.malusfit import FIT_QUADRATURE
from bellhv.bell import _chsh
from bellhv.montecarlo import (
    CANONICAL_ANGLES,
    CANONICAL_SETTINGS,
    CHUNK_PAIRS,
    CoincidenceCounts,
    ExperimentConfig,
    all_events_correlation,
    chsh,
    chsh_estimates,
    coincidence_probability_estimate,
    expected_coincidence_probability,
    post_selected_correlation,
    run_pairs,
    setting_configs,
)
from bellhv.quadrature import DEFAULT_QUADRATURE
from bellhv.rng import RngStream
from bellhv.transmission import (
    REFERENCE_MODEL,
    CosineSquaredModel,
    StretchedExponentialModel,
    TabulatedModel,
    TransmissionModel,
    _wrapped_profile,
)

BELINFANTE_MODEL = CosineSquaredModel()
TABULATED_MODEL = TabulatedModel([0.0, 0.4, 1.1, math.pi / 2], [1.0, 0.7, 0.2, 0.05])
# not monotone: it turns at every node, 0 to 90 degrees in 11.25-degree steps
BUMPY_MODEL = TabulatedModel(
    np.deg2rad(11.25 * np.arange(9)), [1.0, 0.2, 0.9, 0.1, 0.8, 0.3, 0.7, 0.05, 0.6]
)
# falls from 0.99 to 0.01 between deviations 0.0269 and 0.0276
STEEP_MODEL = StretchedExponentialModel(40.0, 30.0, 1e6)


def tables():
    """Random tables with 2 to 8 nodes, monotone or not."""
    return st.integers(min_value=2, max_value=8).flatmap(
        lambda size: st.builds(
            TabulatedModel,
            st.lists(
                st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
                min_size=size,
                max_size=size,
                unique_by=abs,
            ),
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=size, max_size=size),
        )
    )


def simulate(model, alpha_deg, n, seed):
    return run_pairs(
        ExperimentConfig(
            model=model,
            angle_a=0.0,
            angle_b=math.radians(alpha_deg),
            n_pairs=n,
            rng=RngStream(seed),
        )
    )


def binomial_sigma(p, n):
    return math.sqrt(p * (1.0 - p) / n)


class TestSourceAndConfig:
    def test_config_validation(self):
        good = dict(model=REFERENCE_MODEL, angle_a=0.0, angle_b=0.0, rng=RngStream(0))
        ExperimentConfig(n_pairs=1, **good)
        with pytest.raises(ParameterError):
            ExperimentConfig(n_pairs=0, **good)
        with pytest.raises(ParameterError):
            ExperimentConfig(n_pairs=10**9, **good)


class TestRunPairs:
    def test_certain_transmission(self):
        counts = run_pairs(
            ExperimentConfig(
                model=ConstantModel(1.0), angle_a=0.3, angle_b=-0.9, n_pairs=1000,
                rng=RngStream(2),
            )
        )
        assert counts.n11 == 1000
        assert (counts.n10, counts.n01, counts.n00) == (0, 0, 0)

    def test_certain_absorption(self):
        counts = run_pairs(
            ExperimentConfig(
                model=ConstantModel(0.0), angle_a=0.0, angle_b=0.0, n_pairs=500,
                rng=RngStream(2),
            )
        )
        assert counts.n00 == 500

    @pytest.mark.parametrize(
        "alpha_deg,expected_key",
        [(0.0, "q11_alpha0"), (45.0, "q11_alpha45"), (90.0, "q11_alpha90")],
    )
    def test_coincidence_rate_matches_quadrature(self, alpha_deg, expected_key):
        n = 10**6
        counts = simulate(REFERENCE_MODEL, alpha_deg, n, seed=101)
        p_hat, stderr = coincidence_probability_estimate(counts)
        expected = MC_REFERENCE[expected_key]
        assert abs(p_hat - expected) <= 4.0 * max(stderr, binomial_sigma(expected, n))

    def test_aligned_rate_matches_unnormalized_peak_over_pi(self):
        n = 10**6
        counts = simulate(REFERENCE_MODEL, 0.0, n, seed=55)
        p_hat, stderr = coincidence_probability_estimate(counts)
        assert abs(p_hat - REFERENCE["pair_P0"] / math.pi) <= 4.0 * stderr

    def test_singles_rate_matches_intensity(self):
        n = 10**6
        counts = simulate(REFERENCE_MODEL, 30.0, n, seed=77)
        for singles in (counts.singles_a, counts.singles_b):
            rate = singles / n
            assert abs(rate - MC_REFERENCE["singles_rate"]) <= 4.0 * binomial_sigma(
                MC_REFERENCE["singles_rate"], n
            )

    def test_bit_identical_reproduction(self):
        a = simulate(REFERENCE_MODEL, 25.0, 200_000, seed=9)
        b = simulate(REFERENCE_MODEL, 25.0, 200_000, seed=9)
        assert (a.n11, a.n10, a.n01, a.n00) == (b.n11, b.n10, b.n01, b.n00)

    def test_chunk_boundary_sizes_are_consistent(self):
        # exercising n around the chunking granularity must stay deterministic
        for n in (2**16 - 1, 2**16, 2**16 + 1):
            a = simulate(REFERENCE_MODEL, 10.0, n, seed=4)
            b = simulate(REFERENCE_MODEL, 10.0, n, seed=4)
            assert (a.n11, a.n10, a.n01, a.n00) == (b.n11, b.n10, b.n01, b.n00)
            assert a.n11 + a.n10 + a.n01 + a.n00 == n

    @given(
        seed=st.integers(min_value=0, max_value=500),
        alpha_deg=st.floats(min_value=-90.0, max_value=90.0),
        n=st.integers(min_value=1, max_value=3000),
    )
    def test_tally_conservation(self, seed, alpha_deg, n):
        counts = simulate(REFERENCE_MODEL, alpha_deg, n, seed)
        assert counts.n11 + counts.n10 + counts.n01 + counts.n00 == n

    def test_setting_exchange_symmetry(self):
        n = 10**6
        forward = run_pairs(
            ExperimentConfig(
                model=REFERENCE_MODEL, angle_a=0.2, angle_b=-0.5, n_pairs=n,
                rng=RngStream(31),
            )
        )
        swapped = run_pairs(
            ExperimentConfig(
                model=REFERENCE_MODEL, angle_a=-0.5, angle_b=0.2, n_pairs=n,
                rng=RngStream(32),
            )
        )
        p_f, e_f = coincidence_probability_estimate(forward)
        p_s, e_s = coincidence_probability_estimate(swapped)
        assert abs(p_f - p_s) <= 4.0 * math.hypot(e_f, e_s)
        sigma = binomial_sigma(0.5, n)
        assert abs(forward.singles_a - swapped.singles_b) / n <= 4.0 * math.hypot(sigma, sigma)
        assert abs(forward.singles_b - swapped.singles_a) / n <= 4.0 * math.hypot(sigma, sigma)


def _config(model, n, seed=3, angle_a=0.3, angle_b=-1.2):
    return ExperimentConfig(
        model=model, angle_a=angle_a, angle_b=angle_b, n_pairs=n, rng=RngStream(seed)
    )


class ProfileFailure(Exception):
    pass


class FailsAfter(TransmissionModel):
    """cos^2 profile that raises once `calls` evaluations have been made."""

    def __init__(self, calls):
        self.calls = calls
        self.counter = itertools.count()

    def _profile(self, folded):
        if next(self.counter) >= self.calls:
            raise ProfileFailure("profile failed on a later chunk")
        return np.cos(folded) ** 2


class TestAgainstSerialChunkLoop:
    """Threaded chunk tallies against the serial loop in tests/_chunk_loop.py."""

    @pytest.mark.parametrize(
        "n", [1, CHUNK_PAIRS - 1, CHUNK_PAIRS, CHUNK_PAIRS + 1, 5 * CHUNK_PAIRS + 17]
    )
    @pytest.mark.parametrize(
        "model",
        [REFERENCE_MODEL, BELINFANTE_MODEL, TABULATED_MODEL, ConstantModel(0.37)],
        ids=["reference", "belinfante", "tabulated", "constant"],
    )
    def test_fixed_models_exact(self, model, n):
        config = _config(model, n)
        assert run_pairs(config) == _chunk_loop.run_pairs(config)

    @pytest.mark.parametrize(
        "angle_a,angle_b",
        [(0.0, math.pi / 2), (-math.pi / 2, 0.0), (math.pi / 2, -math.pi / 2), (0.0, 0.0)],
    )
    @pytest.mark.parametrize(
        "model",
        [REFERENCE_MODEL, BELINFANTE_MODEL, BUMPY_MODEL, STEEP_MODEL],
        ids=["reference", "belinfante", "bumpy", "steep"],
    )
    def test_window_edge_angles_exact(self, model, angle_a, angle_b):
        config = _config(model, 2 * CHUNK_PAIRS + 5, 7, angle_a, angle_b)
        assert run_pairs(config) == _chunk_loop.run_pairs(config)

    def test_non_monotone_table_exact(self):
        # a bound table that ignored the table's turning points gave n11 131895
        config = _config(BUMPY_MODEL, 500_000, 1, 0.1, 0.9)
        counts = run_pairs(config)
        assert counts == _chunk_loop.run_pairs(config)
        assert counts.n11 == 131896

    def test_steep_model_exact(self):
        config = _config(STEEP_MODEL, 5 * CHUNK_PAIRS, 2, 0.0, 0.01)
        counts = run_pairs(config)
        assert counts == _chunk_loop.run_pairs(config)
        assert 0 < counts.n11 < counts.singles_a

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        model=tables(),
        angle_a=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
        angle_b=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
        n=st.integers(min_value=1, max_value=20_000),
    )
    def test_random_tables_exact(self, seed, model, angle_a, angle_b, n):
        config = _config(model, n, seed, angle_a, angle_b)
        assert run_pairs(config) == _chunk_loop.run_pairs(config)

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        angle_a=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
        angle_b=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
        n=st.integers(min_value=1, max_value=3000),
    )
    def test_random_angles_and_seeds_exact(self, seed, angle_a, angle_b, n):
        config = _config(REFERENCE_MODEL, n, seed, angle_a, angle_b)
        assert run_pairs(config) == _chunk_loop.run_pairs(config)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_counts_do_not_depend_on_worker_count(self, monkeypatch, cpus):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        config = _config(REFERENCE_MODEL, 5 * CHUNK_PAIRS + 17, seed=11)
        assert run_pairs(config) == _chunk_loop.run_pairs(config)

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        # every worker shares the config and model; fast thread switching
        # must not perturb a tally
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2 * (os.cpu_count() or 1) + 1)
        config = _config(TABULATED_MODEL, 7 * CHUNK_PAIRS + 3, seed=12)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = run_pairs(config)
        finally:
            sys.setswitchinterval(interval)
        assert counts == _chunk_loop.run_pairs(config)

    @pytest.mark.parametrize(
        "cpus,chunks,workers", [(1, 6, 1), (2, 6, 2), (3, 6, 3), (3, 2, 2), (4, 1, 1)]
    )
    def test_worker_count_is_usable_cpus_capped_at_chunks(
        self, monkeypatch, cpus, chunks, workers
    ):
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        run_pairs(_config(BELINFANTE_MODEL, (chunks - 1) * CHUNK_PAIRS + 5))
        assert sizes == [workers]

    def test_workers_call_no_traced_method(self, monkeypatch):
        # streams and validating model methods run in the calling thread only
        callers = []

        def recorded(fn):
            def wrapper(*args, **kwargs):
                callers.append(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for cls, name in [
            (TransmissionModel, "probabilities"),
            (TransmissionModel, "probabilities_wrapped"),
            (RngStream, "generator"),
        ]:
            monkeypatch.setattr(cls, name, recorded(getattr(cls, name)))
        monkeypatch.setattr(
            montecarlo, "require_deviation_angle", recorded(montecarlo.require_deviation_angle)
        )
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        run_pairs(_config(REFERENCE_MODEL, 3 * CHUNK_PAIRS))
        # two angle checks in the config, then one generator per chunk
        assert callers == [threading.get_ident()] * 5

    def test_later_chunk_failure_propagates(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        # FailsAfter declares no turning points, so its bound tables decide
        # no pair: one profile call per arm and chunk, all in the workers
        run_pairs(_config(FailsAfter(calls=2 * 6), 6 * CHUNK_PAIRS))
        # the first two chunks pass, a later one raises
        with pytest.raises(ProfileFailure):
            run_pairs(_config(FailsAfter(calls=2 * 2), 6 * CHUNK_PAIRS))

    def test_usable_cpus_reads_affinity_else_cpu_count(self, monkeypatch):
        assert montecarlo._usable_cpus() >= 1
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
            assert montecarlo._usable_cpus() == 3
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert montecarlo._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1


def _bins_and_axes(raw):
    """The sampler's bin and hidden axis of each raw uniform draw."""
    return (raw * montecarlo._BINS).astype(np.intp), raw * np.pi + -math.pi / 2


def _edge_draws():
    """Raw draws at every bin edge and at their ulp neighbours."""
    edges = np.arange(montecarlo._BINS) / montecarlo._BINS
    return np.concatenate(
        (edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0), [np.nextafter(1.0, 0.0)])
    )


def _bracketed(model, angle, raw):
    lower, upper = montecarlo._bound_table(model, angle)
    bins, axes = _bins_and_axes(raw)
    exact = _wrapped_profile(model, axes - angle)
    return np.all(lower[bins] <= exact) and np.all(exact <= upper[bins])


class TestBoundTables:
    """Each bin's bounds bracket the profile of every axis the sampler puts there."""

    @given(
        model=st.one_of(
            st.builds(
                StretchedExponentialModel,
                a=st.floats(min_value=0.1, max_value=60.0),
                e=st.floats(min_value=0.2, max_value=40.0),
                c=st.floats(min_value=0.0, max_value=1e6),
            ),
            st.just(BELINFANTE_MODEL),
            tables(),
        ),
        angle=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_brackets_random_axes_edges_and_their_neighbours(self, model, angle, seed):
        # the draws nearest the axes where the fold turns: deviation 0 and pi/2
        turns = (reduce_axis_angle(angle + np.array([0.0, math.pi / 2])) + math.pi / 2) / math.pi
        turns = np.clip(turns[:, None] + np.spacing(1.0) * np.arange(-4, 5), 0.0, np.nextafter(1.0, 0.0))
        raw = np.concatenate(
            (np.random.default_rng(seed).random(2000), _edge_draws(), turns.ravel())
        )
        assert _bracketed(model, angle, raw)

    @pytest.mark.parametrize("angle", [-1.0, 0.0, 0.5])
    def test_pad_covers_the_profiles_rounding(self, angle):
        # this profile's floating-point values are not monotone where the
        # formula is: at some draws they pass both edges of their bin by an ulp
        raw = np.concatenate((np.random.default_rng(0).random(5000), _edge_draws()))
        assert _bracketed(StretchedExponentialModel(1.0, 40.0, 1e6), angle, raw)

    def test_turning_point_within_rounding_of_a_bin_edge(self):
        # a spike whose axis lies an ulp or two from a bin edge: the bin its
        # rounded axis is counted in may be the neighbour of the bin of the
        # draws that reach its peak, which the one-bin widening covers
        raw_edges = np.arange(montecarlo._BINS // 2 + 1, montecarlo._BINS) / montecarlo._BINS
        _, edges = _bins_and_axes(raw_edges[::13])
        for edge in edges:
            for step in (-2, -1, 1, 2):
                peak = edge + step * np.spacing(edge)
                model = TabulatedModel(
                    [0.0, peak - 1e-12, peak, peak + 1e-12, math.pi / 2], [0.0, 0.0, 1.0, 0.0, 0.0]
                )
                centre = (peak + math.pi / 2) / math.pi
                raw = centre + np.spacing(centre) * np.arange(-8, 9)
                assert _bracketed(model, 0.0, raw), (edge, step)

    def test_unknown_model_decides_no_pair(self):
        lower, upper = montecarlo._bound_table(FailsAfter(calls=0), 0.3)
        assert np.all(lower == -np.inf) and np.all(upper == np.inf)


class TestCountsValidationAndEstimates:
    def test_tally_sum_enforced(self):
        with pytest.raises(ParameterError):
            CoincidenceCounts(n11=1, n10=0, n01=0, n00=0, n_pairs=5)

    def test_probability_estimate_examples(self):
        counts = CoincidenceCounts(500, 200, 200, 100, 1000)
        p, err = coincidence_probability_estimate(counts)
        assert p == 0.5
        assert err == pytest.approx(0.0158, abs=5e-4)

        empty = CoincidenceCounts(0, 0, 0, 1000, 1000)
        assert coincidence_probability_estimate(empty) == (0.0, 0.0)

        large = CoincidenceCounts(450_000, 0, 0, 550_000, 10**6)
        p, err = coincidence_probability_estimate(large)
        assert p == 0.45
        assert err == pytest.approx(0.000497, abs=5e-6)

    def test_correlation_estimators(self):
        counts = CoincidenceCounts(400, 100, 100, 400, 1000)
        e_all, err_all = all_events_correlation(counts)
        assert e_all == pytest.approx((400 + 400 - 100 - 100) / 1000)
        assert err_all > 0
        e_ps, err_ps = post_selected_correlation(counts)
        assert e_ps == pytest.approx(0.4 / (0.5 * 0.5))
        assert err_ps > 0

    def test_post_selection_needs_detections(self):
        counts = CoincidenceCounts(0, 0, 0, 1000, 1000)
        with pytest.raises(DegenerateModelError):
            post_selected_correlation(counts)


class TestExpectedCoincidenceProbability:
    def test_matches_frozen_setting_expectations(self):
        values = [
            expected_coincidence_probability(REFERENCE_MODEL, a, b)
            for a, b in CANONICAL_SETTINGS
        ]
        np.testing.assert_allclose(values, MC_REFERENCE["q11_settings"], atol=1e-9)

    def test_matches_frozen_relative_angle_expectations(self):
        for alpha_deg, key in ((0.0, "q11_alpha0"), (45.0, "q11_alpha45"), (90.0, "q11_alpha90")):
            value = expected_coincidence_probability(
                REFERENCE_MODEL, 0.0, math.radians(alpha_deg)
            )
            assert value == pytest.approx(MC_REFERENCE[key], abs=1e-9)

    def test_cosine_squared_closed_form(self):
        # for the cos^2 profile the joint rate has the closed form
        # 1/4 + cos(2 alpha)/8
        for alpha in (0.0, 0.4, math.pi / 3, math.pi / 2):
            assert expected_coincidence_probability(
                BELINFANTE_MODEL, 0.0, alpha
            ) == pytest.approx(0.25 + math.cos(2 * alpha) / 8.0, abs=1e-9)


def _same_bits(left, right):
    return np.float64(left).tobytes() == np.float64(right).tobytes()


HALF = math.pi / 2
# canonical settings, equal analyzers, and analyzers on the window edges
ORACLE_SETTINGS = CANONICAL_SETTINGS + (
    (0.0, 0.0),
    (0.7, 0.7),
    (-1.2, -1.2),
    (0.0, HALF),
    (0.0, -HALF),
    (HALF, -HALF),
    (-HALF, HALF),
    (HALF, HALF),
    (HALF, 0.3),
    (-HALF, -0.3),
    (0.2, 0.2 - HALF),
    (-0.4, -0.4 + HALF),
)


class TestExpectedAgainstPerPieceLoop:
    """The shared coincidence kernel against the per-piece loop in tests/_simpson_loop.py."""

    @pytest.mark.parametrize("spec", [FIT_QUADRATURE, DEFAULT_QUADRATURE], ids=["fit", "default"])
    @pytest.mark.parametrize(
        "model",
        [REFERENCE_MODEL, BELINFANTE_MODEL, TABULATED_MODEL, ConstantModel(0.6)],
        ids=["reference", "belinfante", "tabulated", "constant"],
    )
    def test_fixed_settings_bitwise(self, model, spec):
        for angle_a, angle_b in ORACLE_SETTINGS:
            assert _same_bits(
                expected_coincidence_probability(model, angle_a, angle_b, spec),
                _simpson_loop.expected_coincidence_probability(model, angle_a, angle_b, spec),
            ), (angle_a, angle_b)

    @given(
        angle_a=st.floats(min_value=-HALF, max_value=HALF),
        angle_b=st.floats(min_value=-HALF, max_value=HALF),
        model=st.sampled_from([REFERENCE_MODEL, BELINFANTE_MODEL, TABULATED_MODEL]),
        spec=st.sampled_from([FIT_QUADRATURE, DEFAULT_QUADRATURE]),
    )
    def test_random_settings_bitwise(self, angle_a, angle_b, model, spec):
        assert _same_bits(
            expected_coincidence_probability(model, angle_a, angle_b, spec),
            _simpson_loop.expected_coincidence_probability(model, angle_a, angle_b, spec),
        )


class TestChshAngles:
    def test_canonical_values(self):
        angles_a = [a for a, _ in CANONICAL_SETTINGS]
        angles_b = [b for _, b in CANONICAL_SETTINGS]
        assert angles_a == pytest.approx([0.0, 0.0, math.pi / 4, math.pi / 4])
        assert angles_b == pytest.approx(
            [math.pi / 8, 3 * math.pi / 8, math.pi / 8, 3 * math.pi / 8]
        )

    def test_settings_order_and_signs(self):
        # terms a1b1, a1b2, a2b1, a2b2: the minus sign falls on a2b2
        a1, a2, b1, b2 = CANONICAL_ANGLES
        assert CANONICAL_SETTINGS == ((a1, b1), (a1, b2), (a2, b1), (a2, b2))
        assert a1 < a2 and b1 < b2
        assert [_chsh(*term) for term in np.eye(4)] == [1, 1, 1, -1]


class TestSettingConfigs:
    def test_setting_i_draws_from_substream_i(self):
        settings = ((0.0, 0.5), (-1.2, math.pi / 2), (0.3, -0.3))
        rng = RngStream(5, 9)
        configs = setting_configs(TABULATED_MODEL, settings, 321, rng)
        assert len(configs) == len(settings)
        for index, (config, (angle_a, angle_b)) in enumerate(zip(configs, settings)):
            assert config.rng == rng.substream(index)
            assert (config.angle_a, config.angle_b) == (angle_a, angle_b)
            assert config.model is TABULATED_MODEL
            assert config.n_pairs == 321


@pytest.fixture(scope="module")
def reference_chsh():
    """Both CHSH views of the reference model, 10^6 pairs per setting, seed 12."""
    return chsh(REFERENCE_MODEL, 10**6, RngStream(12))


class TestChshEstimators:
    def test_certain_transmission_gives_exactly_two(self):
        estimate, _ = chsh(ConstantModel(1.0), 1000, RngStream(0))
        assert estimate.value == 2.0
        assert estimate.stderr == 0.0

    def test_certain_absorption_gives_exactly_two(self):
        # the post-selected view is undefined here, so chsh() raises; the
        # all-events view still follows from the tallies
        configs = setting_configs(ConstantModel(0.0), CANONICAL_SETTINGS, 1000, RngStream(0))
        correlations = [all_events_correlation(run_pairs(config))[0] for config in configs]
        assert _chsh(*correlations) == 2.0

    def test_both_views_come_from_one_set_of_tallies(self):
        configs = setting_configs(REFERENCE_MODEL, CANONICAL_SETTINGS, 5000, RngStream(3))
        tallies = [run_pairs(config) for config in configs]
        alls, ps = chsh(REFERENCE_MODEL, 5000, RngStream(3))
        assert chsh_estimates(tallies) == (alls, ps)
        assert ps.retained_fraction == sum(t.n11 for t in tallies) / (4.0 * 5000)

    def test_post_selected_view_needs_detections(self):
        with pytest.raises(DegenerateModelError):
            chsh(ConstantModel(0.0), 1000, RngStream(0))

    def test_certain_transmission_post_selection_discards_nothing(self):
        alls, ps = chsh(ConstantModel(1.0), 1000, RngStream(0))
        assert ps.retained_fraction == 1.0
        assert ps.value == alls.value

    def test_all_events_stays_local(self, reference_chsh):
        estimate, _ = reference_chsh
        assert abs(estimate.value) <= 2.0 + 5.0 * estimate.stderr

    def test_all_events_matches_frozen_expectations(self, reference_chsh):
        estimate, _ = reference_chsh
        for measured, sigma, expected in zip(
            estimate.correlations, estimate.correlation_errors, MC_REFERENCE["E_all_settings"]
        ):
            assert abs(measured - expected) <= 4.0 * sigma
        assert abs(estimate.value - MC_REFERENCE["S_all"]) <= 4.0 * estimate.stderr

    def test_post_selected_matches_frozen_expectations(self, reference_chsh):
        _, estimate = reference_chsh
        for measured, sigma, expected in zip(
            estimate.correlations, estimate.correlation_errors, MC_REFERENCE["E_ps_settings"]
        ):
            assert abs(measured - expected) <= 4.0 * sigma
        assert abs(estimate.value - MC_REFERENCE["S_ps"]) <= 4.0 * estimate.stderr
        expected_retained = float(np.mean(MC_REFERENCE["q11_settings"]))
        assert estimate.retained_fraction == pytest.approx(expected_retained, abs=4e-3)

    def test_post_selection_inflates_the_reference_estimate(self):
        alls, ps = chsh(REFERENCE_MODEL, 10**5, RngStream(21))
        assert ps.value > alls.value + 10.0 * math.hypot(ps.stderr, alls.stderr)

    def test_cosine_squared_post_selection_sits_at_local_boundary(self):
        _, estimate = chsh(BELINFANTE_MODEL, 10**6, RngStream(12))
        assert abs(estimate.value - MC_BELINFANTE["S_ps"]) <= 4.0 * estimate.stderr

    def test_profiles_separate_in_post_selected_estimator(self):
        frozen = REGRESSIONS["post_selection_separation"]
        stream = RngStream(frozen["seed"])
        _, ref = chsh(REFERENCE_MODEL, frozen["n_pairs"], stream)
        _, bel = chsh(BELINFANTE_MODEL, frozen["n_pairs"], stream)
        assert ref.value == pytest.approx(frozen["S_reference"], abs=1e-12)
        assert bel.value == pytest.approx(frozen["S_belinfante"], abs=1e-12)
        difference = abs(ref.value - bel.value)
        assert difference > math.hypot(ref.stderr, bel.stderr)
