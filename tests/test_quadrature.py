import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _simpson_loop
from _frozen import REFERENCE
from bellhv.errors import ParameterError, QuadratureConvergenceError
from bellhv.quadrature import DEFAULT_QUADRATURE, QuadratureSpec, integrate, integrate_rows
from bellhv.transmission import REFERENCE_MODEL


def gauss_legendre(f, lo, hi, nodes=64):
    """Independent oracle: (value, |G_2n - G_n|) from n- and 2n-node rules.

    Gauss-Legendre converges super-algebraically on smooth integrands, so
    the plain difference of the two levels is, if anything, pessimistic.
    """

    def rule(n):
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (hi - lo)
        return float(half * np.dot(w, f(0.5 * (lo + hi) + half * x)))

    coarse, fine = rule(nodes), rule(2 * nodes)
    return fine, abs(fine - coarse)


def simpson(f, lo, hi):
    return integrate(f, lo, hi, None)


class TestSpecValidation:
    def test_defaults(self):
        assert DEFAULT_QUADRATURE.panels == 4096
        assert DEFAULT_QUADRATURE.refine_until == 1e-9
        assert DEFAULT_QUADRATURE.max_refinements == 8

    def test_rejects_odd_simpson_panels(self):
        with pytest.raises(ParameterError):
            QuadratureSpec(panels=7)

    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            QuadratureSpec(panels=1)
        with pytest.raises(ParameterError):
            QuadratureSpec(refine_until=0.0)
        with pytest.raises(ParameterError):
            QuadratureSpec(refine_until=float("nan"))
        with pytest.raises(ParameterError):
            QuadratureSpec(max_refinements=-1)


class TestIntegrate:
    # the gauss cases check the oracle that test_simpson_and_gauss_agree uses
    @pytest.mark.parametrize("rule", [simpson, gauss_legendre], ids=["simpson", "gauss"])
    def test_constant_over_half_turn(self, rule):
        value, estimate = rule(lambda x: np.ones_like(x), 0.0, math.pi)
        assert value == pytest.approx(math.pi, abs=1e-12)
        assert estimate <= 1e-9

    @pytest.mark.parametrize("rule", [simpson, gauss_legendre], ids=["simpson", "gauss"])
    def test_cosine_squared(self, rule):
        value, _ = rule(lambda x: np.cos(x) ** 2, -math.pi / 2, math.pi / 2)
        assert value == pytest.approx(math.pi / 2, abs=1e-10)

    def test_transmission_profile_integral(self):
        value, _ = integrate(REFERENCE_MODEL.probabilities, -math.pi / 2, math.pi / 2, None)
        assert value == pytest.approx(math.pi * REFERENCE["intensity_ratio"], abs=1e-9)
        assert math.pi * 0.44 < value < math.pi * 0.46

    def test_empty_interval(self):
        assert integrate(lambda x: x, 2.0, 2.0, None) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ParameterError):
            integrate(lambda x: x, 1.0, 0.0, None)

    def test_non_finite_limits_rejected(self):
        with pytest.raises(ParameterError):
            integrate(lambda x: x, 0.0, float("inf"), None)

    def test_non_finite_integrand_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ParameterError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, None)

    @pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: x[:-1]], ids=["scalar", "short"])
    def test_integrand_of_the_wrong_shape_rejected(self, f):
        with pytest.raises(ParameterError, match="integrand returned shape"):
            integrate(f, 0.0, 1.0, None)

    def test_non_convergence_carries_best_value(self):
        # panels=2 with a single doubling leaves only the coarse 4-panel
        # value; it is carried on the error rather than discarded
        spec = QuadratureSpec(panels=2, refine_until=1e-30, max_refinements=1)
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate(lambda x: np.exp(np.sin(3 * x)), 0.0, 2.0, spec)
        err = excinfo.value
        truth = integrate(lambda x: np.exp(np.sin(3 * x)), 0.0, 2.0, None)[0]
        assert err.value == pytest.approx(truth, rel=0.1)
        assert err.error_estimate > 1e-30
        assert np.isfinite(err.value) and np.isfinite(err.error_estimate)


class TestBatchedKernel:
    @pytest.mark.parametrize("refinements", [0, 1, 2, 3])
    def test_each_node_evaluated_once(self, refinements):
        # an unreachable target forces every allowed refinement
        seen = []

        def counting(x):
            seen.extend(x.tolist())
            return np.exp(np.sin(3 * x))

        spec = QuadratureSpec(panels=6, refine_until=1e-300, max_refinements=refinements)
        with pytest.raises(QuadratureConvergenceError):
            integrate(counting, 0.0, 2.0, spec)
        nodes = 6 * 2**refinements + 1
        assert len(seen) == nodes
        assert sorted(seen) == np.linspace(0.0, 2.0, nodes).tolist()

    def test_rows_match_single_integrals_bitwise(self):
        lo = np.array([0.0, -1.0, 0.5, 0.5, -0.3])
        hi = np.array([1.0, 2.5, 0.5, 0.5000001, 1.7])
        omega = np.array([1.0, 3.0, 2.0, 5.0, 0.7])

        def batched(x, rows):
            return np.cos(omega[rows, None] * x) * np.exp(-0.5 * x**2)

        spec = QuadratureSpec(panels=4, refine_until=1e-11, max_refinements=10)
        values, estimates = integrate_rows(batched, lo, hi, spec)
        for i in range(lo.size):
            alone = _simpson_loop.integrate(
                lambda x: np.cos(omega[i] * x) * np.exp(-0.5 * x**2), lo[i], hi[i], spec
            )
            assert (values[i], estimates[i]) == alone

    def test_one_stalled_row_fails_the_batch(self):
        lo, hi = np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 1.0])
        rough = lambda x: np.sin(40.0 * x)

        def batched(x, rows):
            return np.where(rows[:, None] == 1, rough(x), x**2)

        spec = QuadratureSpec(panels=4, refine_until=1e-12, max_refinements=3)
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate_rows(batched, lo, hi, spec)
        with pytest.raises(QuadratureConvergenceError) as alone:
            _simpson_loop.integrate(rough, 0.0, 2.0, spec)
        assert excinfo.value.value == alone.value.value
        assert excinfo.value.error_estimate == alone.value.error_estimate

    def test_bad_limits_rejected(self):
        with pytest.raises(ParameterError):
            integrate_rows(lambda x, rows: x, [0.0, 1.0], [1.0], None)
        with pytest.raises(ParameterError):
            integrate_rows(lambda x, rows: x, [0.0, 1.0], [1.0, 0.5], None)


@given(
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
    omega=st.floats(min_value=0.5, max_value=4.0),
)
def test_linearity_within_twice_summed_estimates(a, b, omega):
    f = lambda x: np.sin(omega * x)
    g = lambda x: x**2
    lo, hi = -1.0, 2.0
    vf, ef = integrate(f, lo, hi, None)
    vg, eg = integrate(g, lo, hi, None)
    vsum, esum = integrate(lambda x: a * f(x) + b * g(x), lo, hi, None)
    budget = 2.0 * (abs(a) * ef + abs(b) * eg + esum) + 1e-12
    assert abs(vsum - (a * vf + b * vg)) <= budget


@given(omega=st.floats(min_value=0.25, max_value=6.0))
def test_simpson_and_gauss_agree(omega):
    f = lambda x: np.cos(omega * x) * np.exp(-0.25 * x**2)
    vs, _ = simpson(f, -2.0, 2.0)
    vg, estimate = gauss_legendre(f, -2.0, 2.0)
    assert estimate <= 1e-9
    assert vs == pytest.approx(vg, abs=5e-9)
