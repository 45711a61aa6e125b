import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import _simpson_loop
from _constant_model import ConstantModel
from _frozen import BELINFANTE, GRID_DEG, REFERENCE, STEEP, STEEP_TRIPLE
from bellhv.angles import degrees_grid, require_deviation_angle
from bellhv.errors import (
    AngleDomainError,
    DegenerateModelError,
    ParameterError,
    QuadratureConvergenceError,
)
from bellhv.malusfit import FIT_QUADRATURE
from bellhv.montecarlo import expected_coincidence_probability
from bellhv.quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from bellhv.transmission import (
    REFERENCE_MODEL,
    CosineSquaredModel,
    StretchedExponentialModel,
    TabulatedModel,
    _coincidence_integral,
    default_angle_grid,
    intensity_ratio,
    malus,
    normalized_pair_curve,
    pair_transmission,
)

STEEP_MODEL = StretchedExponentialModel(**STEEP_TRIPLE)
BELINFANTE_MODEL = CosineSquaredModel()


class TestStretchedExponentialModel:
    def test_reference_triple(self):
        assert (REFERENCE_MODEL.a, REFERENCE_MODEL.e, REFERENCE_MODEL.c) == (2.6, 2.2, 45.0)

    def test_zero_weight_allowed(self):
        StretchedExponentialModel(1.0, 1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            StretchedExponentialModel(0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            StretchedExponentialModel(1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            StretchedExponentialModel(1.0, 1.0, -0.1)
        with pytest.raises(ParameterError):
            StretchedExponentialModel(float("nan"), 1.0, 1.0)

    def test_replace_is_validated(self):
        # the path of the command line's --a/--e/--c overrides
        with pytest.raises(ParameterError, match="a must be positive"):
            dataclasses.replace(REFERENCE_MODEL, a=0.0)


class TestSinglePolarizerProbability:
    def test_unit_at_zero(self):
        assert REFERENCE_MODEL.probabilities(0.0) == 1.0
        assert STEEP_MODEL.probabilities(0.0) == 1.0

    @pytest.mark.parametrize(
        "key,angle",
        [("pi/8", math.pi / 8), ("pi/4", math.pi / 4), ("3pi/8", 3 * math.pi / 8), ("pi/2", math.pi / 2)],
    )
    def test_reference_profile_values(self, key, angle):
        expected = REFERENCE["p1_at"][key]
        assert REFERENCE_MODEL.probabilities(angle) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "key,angle",
        [("pi/8", math.pi / 8), ("pi/4", math.pi / 4), ("3pi/8", 3 * math.pi / 8), ("pi/2", math.pi / 2)],
    )
    def test_steep_profile_values(self, key, angle):
        expected = STEEP["p1_at"][key]
        assert STEEP_MODEL.probabilities(angle) == pytest.approx(expected, rel=1e-12)

    def test_steep_profile_vanishes_at_edge(self):
        assert STEEP_MODEL.probabilities(math.pi / 2) < 1e-20

    def test_cosine_squared_model(self):
        assert BELINFANTE_MODEL.probabilities(math.pi / 4) == pytest.approx(0.5, abs=1e-15)
        assert BELINFANTE_MODEL.probabilities(0.0) == 1.0

    def test_zero_weight_reduces_to_pure_exponential(self):
        model = StretchedExponentialModel(1.7, 2.3, 0.0)
        lam = np.linspace(0.0, math.pi / 2, 101)
        np.testing.assert_allclose(
            model.probabilities(lam), np.exp(-((1.7 * np.abs(lam)) ** 2.3)), atol=1e-15
        )

    def test_domain_error_beyond_window(self):
        with pytest.raises(AngleDomainError):
            REFERENCE_MODEL.probabilities(2.0)

    @pytest.mark.parametrize(
        "model",
        [REFERENCE_MODEL, STEEP_MODEL, BELINFANTE_MODEL,
         TabulatedModel([0.0, 0.4, 1.1, math.pi / 2], [1.0, 0.7, 0.2, 0.05])],
    )
    @pytest.mark.parametrize("start, step", [(0.0, 0.1), (0.0, 5.0), (0.0, 7.5), (-90.0, 2.5)])
    def test_array_form_is_bitwise_the_pointwise_form(self, model, start, step):
        # the curve writers evaluate a whole grid per call; their files were
        # written one angle per call before, and must not change
        grid = degrees_grid(start, 90.0, step)
        pointwise = [model.probabilities(angle) for angle in grid]
        np.testing.assert_array_equal(model.probabilities(grid), pointwise)
        np.testing.assert_array_equal(malus(grid), [malus(angle) for angle in grid])

    def test_extension_and_wrapping(self):
        assert REFERENCE_MODEL.probabilities_wrapped(math.pi) == pytest.approx(
            REFERENCE_MODEL.probabilities(0.0), abs=1e-12
        )

    @given(
        a=st.floats(min_value=0.2, max_value=6.0),
        e=st.floats(min_value=0.3, max_value=6.0),
        c=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_profile_family_invariants(self, a, e, c):
        model = StretchedExponentialModel(a, e, c)
        lam = np.linspace(0.0, math.pi / 2, 10_001)
        probs = model.probabilities(lam)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        # even in the deviation
        np.testing.assert_array_equal(probs, model.probabilities(-lam))
        # non-increasing away from alignment
        assert np.all(np.diff(probs) <= 1e-12)


class TestTabulatedModel:
    def test_interpolates_and_mirrors(self):
        model = TabulatedModel([0.0, math.pi / 2], [1.0, 0.0])
        assert model.probabilities(0.0) == 1.0
        assert model.probabilities(math.pi / 4) == pytest.approx(0.5, abs=1e-15)
        assert model.probabilities(-math.pi / 4) == model.probabilities(math.pi / 4)

    def test_duplicate_nodes_averaged(self):
        model = TabulatedModel([0.0, 0.0, 1.0], [0.2, 0.4, 1.0])
        assert model.probabilities(0.0) == pytest.approx(0.3, abs=1e-15)

    def test_requires_two_distinct_nodes(self):
        with pytest.raises(ParameterError):
            TabulatedModel([0.5, 0.5], [0.1, 0.2])

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ParameterError):
            TabulatedModel([0.0, 1.0], [0.0, 1.5])

    def test_rejects_out_of_window_nodes(self):
        with pytest.raises(AngleDomainError, match="table nodes"):
            TabulatedModel([0.0, math.pi / 2 + 1e-6], [1.0, 0.0])
        # a non-finite node is a parameter error, checked before the window
        with pytest.raises(ParameterError, match="finite"):
            TabulatedModel([0.0, math.inf], [1.0, 0.0])
        # an ulp past the window edge folds onto it
        model = TabulatedModel([0.0, -(math.pi / 2 + 1e-12)], [1.0, 0.0])
        np.testing.assert_array_equal(model.nodes, [0.0, math.pi / 2])


def sorted_average(nodes, values):
    """TabulatedModel's duplicate averaging before np.bincount: a stable sort,
    then np.add.at per folded node, kept as the oracle for the bincount form."""
    folded = np.abs(require_deviation_angle(np.asarray(nodes, dtype=float), "table nodes"))
    values = np.asarray(values, dtype=float)
    order = np.argsort(folded, kind="stable")
    folded = folded[order]
    values = values[order]
    unique, inverse = np.unique(folded, return_inverse=True)
    averaged = np.zeros_like(unique)
    counts = np.zeros_like(unique)
    np.add.at(averaged, inverse, values)
    np.add.at(counts, inverse, 1.0)
    return unique, averaged / counts


@st.composite
def tables_with_repeats(draw):
    """(nodes, values) drawn from a few distinct |node|s, each node repeated
    and mirrored at will, with at least two distinct folded nodes."""
    magnitudes = draw(
        st.lists(st.floats(0.0, math.pi / 2), min_size=2, max_size=5, unique=True)
    )
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(magnitudes), st.booleans(), st.floats(0.0, 1.0)),
            min_size=2,
            max_size=40,
        )
    )
    assume(len({magnitude for magnitude, _, _ in rows}) >= 2)
    nodes = [-magnitude if mirrored else magnitude for magnitude, mirrored, _ in rows]
    return nodes, [value for _, _, value in rows]


class TestTabulatedAveraging:
    @given(tables_with_repeats())
    def test_bitwise_equal_to_the_sorted_average(self, table):
        nodes, values = table
        model = TabulatedModel(nodes, values)
        expected_nodes, expected_values = sorted_average(nodes, values)
        # compared as bit patterns: 0.0 and -0.0, or a last-ulp change, differ
        np.testing.assert_array_equal(model.nodes.view(np.uint64), expected_nodes.view(np.uint64))
        np.testing.assert_array_equal(
            model.values.view(np.uint64), expected_values.view(np.uint64)
        )


class TestConstantModel:
    def test_levels(self):
        assert ConstantModel(1.0).probabilities(0.7) == 1.0
        assert ConstantModel(0.0).probabilities(0.7) == 0.0
        with pytest.raises(ParameterError):
            ConstantModel(1.2)


class TestMalus:
    def test_values(self):
        assert malus(0.0) == 1.0
        assert malus(math.pi / 2) == pytest.approx(0.0, abs=1e-30)
        assert malus(math.pi / 3) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(AngleDomainError):
            malus(float("nan"))


class TestIntensityRatio:
    def test_reference_value(self):
        assert intensity_ratio(REFERENCE_MODEL) == pytest.approx(
            REFERENCE["intensity_ratio"], abs=1e-10
        )

    def test_reference_band(self):
        assert 0.44 <= intensity_ratio(REFERENCE_MODEL) <= 0.46

    def test_steep_value(self):
        assert intensity_ratio(STEEP_MODEL) == pytest.approx(STEEP["intensity_ratio"], abs=1e-10)

    def test_cosine_squared_is_half(self):
        assert intensity_ratio(BELINFANTE_MODEL) == pytest.approx(0.5, abs=1e-12)

    def test_full_transmission_is_one(self):
        model = TabulatedModel([0.0, math.pi / 2], [1.0, 1.0])
        assert intensity_ratio(model) == pytest.approx(1.0, abs=1e-12)


class TestPairTransmission:
    def test_reference_peak_and_edge(self):
        assert pair_transmission(REFERENCE_MODEL, 0.0) == pytest.approx(
            REFERENCE["pair_P0"], abs=1e-9
        )
        assert pair_transmission(REFERENCE_MODEL, math.pi / 2) == pytest.approx(
            REFERENCE["pair_P_90"], abs=1e-9
        )

    def test_steep_peak_and_edge(self):
        assert pair_transmission(STEEP_MODEL, 0.0) == pytest.approx(STEEP["pair_P0"], abs=1e-9)
        assert pair_transmission(STEEP_MODEL, math.pi / 2) == pytest.approx(
            STEEP["pair_P_90"], abs=1e-9
        )

    def test_crossed_analyzers_ratio(self):
        ratio = pair_transmission(REFERENCE_MODEL, math.pi / 2) / pair_transmission(
            REFERENCE_MODEL, 0.0
        )
        assert ratio == pytest.approx(REFERENCE["ratio_curve"]["90"], abs=1e-9)

    def test_zero_model_integrates_to_zero(self):
        model = TabulatedModel([0.0, math.pi / 2], [0.0, 0.0])
        assert pair_transmission(model, 0.3) == 0.0

    def test_even_in_relative_angle(self):
        for alpha in (0.2, 0.9, 1.4):
            assert pair_transmission(REFERENCE_MODEL, alpha) == pytest.approx(
                pair_transmission(REFERENCE_MODEL, -alpha), abs=1e-9
            )

    def test_domain_error(self):
        with pytest.raises(AngleDomainError):
            pair_transmission(REFERENCE_MODEL, 2.0)

    def test_broad_profile_converges(self):
        # broad profiles keep substantial transmission at the window edge;
        # the piecewise integration must still meet its refinement target
        model = StretchedExponentialModel(1.0, 2.0, 100.0)
        spec = QuadratureSpec(panels=512, refine_until=1e-7, max_refinements=6)
        value = pair_transmission(model, math.pi / 2, spec)
        assert value == pytest.approx(pair_transmission(model, math.pi / 2), abs=1e-6)


class TestNormalizedPairCurve:
    def test_reference_curve_matches_frozen_grid(self):
        grid = np.deg2rad(np.asarray(GRID_DEG, dtype=float))
        ratios = normalized_pair_curve(REFERENCE_MODEL, grid)
        expected = np.array([REFERENCE["ratio_curve"][str(d)] for d in GRID_DEG])
        np.testing.assert_allclose(ratios, expected, atol=1e-9)

    def test_exactly_one_at_zero(self):
        assert normalized_pair_curve(REFERENCE_MODEL, [0.0])[0] == 1.0

    def test_steep_curve_spot_values(self):
        ratios = normalized_pair_curve(STEEP_MODEL, np.deg2rad([5.0, 45.0, 90.0]))
        np.testing.assert_allclose(
            ratios,
            [STEEP["ratio_curve"]["5"], STEEP["ratio_curve"]["45"], STEEP["ratio_curve"]["90"]],
            atol=1e-9,
        )

    def test_peak_dominates_curve(self):
        grid = np.deg2rad(np.asarray(GRID_DEG, dtype=float))
        ratios = normalized_pair_curve(REFERENCE_MODEL, grid)
        assert np.all(ratios <= 1.0 + 1e-9)

    def test_cosine_squared_model_deviates_strongly(self):
        grid = np.deg2rad(np.asarray(GRID_DEG, dtype=float))
        deviation = np.abs(normalized_pair_curve(BELINFANTE_MODEL, grid) - malus(grid))
        assert deviation.max() > 0.1
        assert deviation.max() == pytest.approx(BELINFANTE["malus_residual"], abs=1e-9)
        assert GRID_DEG[int(deviation.argmax())] == BELINFANTE["malus_residual_argmax_deg"]

    def test_invariant_under_refinement(self):
        grid = np.deg2rad([0.0, 15.0, 40.0, 65.0, 90.0])
        base = normalized_pair_curve(REFERENCE_MODEL, grid)
        doubled = normalized_pair_curve(
            REFERENCE_MODEL, grid, QuadratureSpec(panels=8192, refine_until=1e-9)
        )
        assert np.abs(base - doubled).max() < 1e-6

    def test_degenerate_model_rejected(self):
        model = TabulatedModel([0.0, math.pi / 2], [0.0, 0.0])
        with pytest.raises(DegenerateModelError):
            normalized_pair_curve(model, [0.0, 0.5])


def _same_bits(left, right):
    return np.asarray(left, dtype=float).tobytes() == np.asarray(right, dtype=float).tobytes()


class TestAgainstPerPieceLoop:
    """The batched kernel against the per-piece loop in tests/_simpson_loop.py."""

    @pytest.mark.parametrize("spec", [FIT_QUADRATURE, DEFAULT_QUADRATURE], ids=["fit", "default"])
    @pytest.mark.parametrize(
        "model",
        [
            REFERENCE_MODEL,
            BELINFANTE_MODEL,
            TabulatedModel([0.0, 0.4, 1.1, math.pi / 2], [1.0, 0.7, 0.2, 0.05]),
        ],
        ids=["reference", "belinfante", "tabulated"],
    )
    def test_fixed_models_bitwise(self, model, spec):
        grid = default_angle_grid()
        assert _same_bits(
            normalized_pair_curve(model, grid, spec),
            _simpson_loop.normalized_pair_curve(model, grid, spec),
        )
        assert intensity_ratio(model, spec) == (
            _simpson_loop.integrate(model.probabilities, -math.pi / 2, math.pi / 2, spec)[0]
            / math.pi
        )

    @given(
        log_a=st.floats(min_value=-1.5, max_value=4.0),
        log_e=st.floats(min_value=-1.5, max_value=3.0),
        log_c=st.floats(min_value=-8.0, max_value=10.0),
        spec=st.sampled_from([FIT_QUADRATURE, DEFAULT_QUADRATURE]),
    )
    def test_random_triples_bitwise(self, log_a, log_e, log_c, spec):
        model = StretchedExponentialModel(math.exp(log_a), math.exp(log_e), math.exp(log_c))
        grid = default_angle_grid()
        try:
            expected = _simpson_loop.normalized_pair_curve(model, grid, spec)
        except QuadratureConvergenceError as err:
            with pytest.raises(QuadratureConvergenceError) as batched:
                normalized_pair_curve(model, grid, spec)
            assert (batched.value.value, batched.value.error_estimate) == (
                err.value,
                err.error_estimate,
            )
        else:
            assert _same_bits(normalized_pair_curve(model, grid, spec), expected)

    @pytest.mark.parametrize("max_refinements", [0, 1, 3])
    def test_non_convergence_matches_loop(self, max_refinements):
        spec = QuadratureSpec(panels=8, refine_until=1e-13, max_refinements=max_refinements)
        grid = default_angle_grid()
        with pytest.raises(QuadratureConvergenceError) as expected:
            _simpson_loop.normalized_pair_curve(REFERENCE_MODEL, grid, spec)
        with pytest.raises(QuadratureConvergenceError) as batched:
            normalized_pair_curve(REFERENCE_MODEL, grid, spec)
        assert (batched.value.value, batched.value.error_estimate) == (
            expected.value.value,
            expected.value.error_estimate,
        )

    def test_array_matches_scalar_calls(self):
        # ~3 pieces per angle, far more rows than one block at either spec
        alphas = np.concatenate(
            (np.linspace(-math.pi / 2, math.pi / 2, 41), [0.0, -0.0, 1e-17, math.pi / 2 + 1e-10])
        )
        for spec in (FIT_QUADRATURE, DEFAULT_QUADRATURE):
            batched = pair_transmission(REFERENCE_MODEL, alphas, spec)
            assert batched.shape == alphas.shape
            assert _same_bits(batched, [pair_transmission(REFERENCE_MODEL, a, spec) for a in alphas])
            assert _same_bits(
                batched, [_simpson_loop.pair_transmission(REFERENCE_MODEL, a, spec) for a in alphas]
            )

    def test_scalar_in_scalar_out(self):
        assert isinstance(pair_transmission(REFERENCE_MODEL, 0.4), float)
        assert pair_transmission(REFERENCE_MODEL, np.array([0.4])).shape == (1,)

    def test_bad_angle_shapes_rejected(self):
        with pytest.raises(ParameterError):
            pair_transmission(REFERENCE_MODEL, np.zeros((2, 2)))
        with pytest.raises(AngleDomainError):
            pair_transmission(REFERENCE_MODEL, [0.1, 2.0])


class TestCoincidenceIntegralConventions:
    """Both conventions of the shared kernel against closed forms for a constant profile.

    With p1 = v everywhere, the absorbing product is v^2 wherever the second
    deviation b - lambda stays in the window, a range of length pi - |b|;
    the wrapped product is v^2 over the whole half turn.
    """

    @pytest.mark.parametrize("value", [1.0, 0.6, 0.25])
    def test_constant_profile(self, value):
        model = ConstantModel(value)
        angle_b = np.array([0.0, 0.3, -0.3, 1.0, -math.pi / 4, math.pi / 2, -math.pi / 2])
        angle_a = np.zeros_like(angle_b)
        absorbing = _coincidence_integral(model, angle_a, angle_b, None, absorbing=True)
        np.testing.assert_allclose(
            absorbing, value**2 * (math.pi - np.abs(angle_b)), rtol=1e-13, atol=1e-15
        )
        np.testing.assert_allclose(
            pair_transmission(model, angle_b), value**2 * (math.pi - np.abs(angle_b)), rtol=1e-13
        )
        angle_a = np.array([0.0, 0.5, -0.5, 1.0, math.pi / 2, -math.pi / 2, 0.2])
        wrapped = _coincidence_integral(model, angle_a, angle_b, None, absorbing=False)
        np.testing.assert_allclose(wrapped, np.full(angle_b.shape, value**2 * math.pi), rtol=1e-13)
        for a, b in zip(angle_a, angle_b):
            assert expected_coincidence_probability(model, a, b) == pytest.approx(
                value**2, rel=1e-13
            )


def test_default_angle_grid_matches_frozen_grid():
    np.testing.assert_allclose(np.rad2deg(default_angle_grid()), GRID_DEG, atol=1e-12)
