import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellhv
from _square_identity import random_involutory_scenario, square_identity_deviation
from bellhv.bell import (
    _ascend_unrestricted,
    _canonical_block_tuple,
    _rank_two_sign,
    _sign_operator,
    BB_DAGGER_LIMITS,
    EXPECTATION_LIMITS,
    MAX_TOTAL_DIM,
    BellScenario,
    Regime,
    bb_dagger_expectation,
    bell_operator,
    classical_bound_bruteforce,
    haar_unitary,
    max_expectation,
    random_contraction,
    search_bound,
)
from bellhv.errors import DimensionError, HermiticityError, ParameterError, RegimeError
from bellhv.linalg import symmetric_extreme_eigen
from bellhv.montecarlo import CANONICAL_ANGLES
from bellhv.rng import RngStream, SearchConfig

ROOT8 = 2.0 * math.sqrt(2.0)
ROOT12 = 2.0 * math.sqrt(3.0)


def unrestricted(a1, a2, b1, b2):
    return BellScenario(regime=Regime.UNRESTRICTED, a1=a1, a2=a2, b1=b1, b2=b2)


SLOTS = ("a1", "a2", "b1", "b2")


def in_each_slot(op):
    """The four operator tuples with `op` in one slot and I in the others."""
    identity = np.eye(op.shape[0])
    return [tuple(op if k == slot else identity for k in range(4)) for slot in range(4)]


class TestLimitsTables:
    def test_expectation_limits(self):
        assert EXPECTATION_LIMITS[Regime.CLASSICAL] == 2.0
        assert EXPECTATION_LIMITS[Regime.COMMUTING_SUBSYSTEMS] == pytest.approx(ROOT8)
        assert EXPECTATION_LIMITS[Regime.UNRESTRICTED] == pytest.approx(ROOT12)

    def test_bb_dagger_limits(self):
        assert BB_DAGGER_LIMITS[Regime.CLASSICAL] == 4.0
        assert BB_DAGGER_LIMITS[Regime.COMMUTING_SUBSYSTEMS] == 8.0
        assert BB_DAGGER_LIMITS[Regime.UNRESTRICTED] == 12.0


class TestBellScenarioValidation:
    def test_rejects_non_hermitian(self):
        for slot, ops in zip(SLOTS, in_each_slot(np.array([[0.0, 1.0], [0.0, 0.0]]))):
            with pytest.raises(HermiticityError, match=f"^measurement operator {slot} deviates"):
                unrestricted(*ops)

    def test_rejects_expansive_operator(self):
        for slot, ops in zip(SLOTS, in_each_slot(np.diag([1.5, 0.0]))):
            with pytest.raises(
                ParameterError, match=f"^measurement operator {slot} norm 1.500000 exceeds 1$"
            ):
                unrestricted(*ops)

    @pytest.mark.parametrize("bad", ["x", [[1, 2], [3]], {"a": 1}], ids=["str", "ragged", "dict"])
    def test_rejects_non_numeric_operator(self, bad):
        identity = np.eye(2)
        for k, slot in enumerate(SLOTS):
            ops = [identity] * 4
            ops[k] = bad
            with pytest.raises(
                ParameterError, match=f"^measurement operator {slot} must be a numeric matrix$"
            ):
                unrestricted(*ops)

    def test_accepts_boundary_norm(self):
        for ops in in_each_slot(np.diag([1.0, -1.0])):
            unrestricted(*ops)

    def test_matrices_are_write_locked(self):
        s = unrestricted(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        for op in (s.a1, s.a2, s.b1, s.b2):
            with pytest.raises(ValueError):
                op[0, 0] = 5.0

    def test_near_hermitian_matrix_is_stored_symmetrized(self):
        m = np.array([[0.0, 0.5 + 1e-13], [0.5, 0.0]])
        s = unrestricted(m, np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_array_equal(s.a1, 0.5 * (m + m.T))
        np.testing.assert_array_equal(s.a1, s.a1.conj().T)
        # the caller's array is neither stored nor locked
        assert s.a1 is not m and m.flags.writeable

    def test_validates_operators_before_the_regime(self):
        with pytest.raises(HermiticityError):
            BellScenario("unrestricted", np.array([[0.0, 1.0], [0.0, 0.0]]), *[np.eye(2)] * 3)
        with pytest.raises(ParameterError, match="regime must be a Regime"):
            BellScenario("unrestricted", *[np.eye(2)] * 4)

    def test_side_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            BellScenario(
                regime=Regime.UNRESTRICTED,
                a1=np.eye(2),
                a2=np.eye(3),
                b1=np.eye(2),
                b2=np.eye(2),
            )

    def test_cross_side_mismatch_outside_product_regime(self):
        with pytest.raises(DimensionError):
            BellScenario(
                regime=Regime.UNRESTRICTED,
                a1=np.eye(2),
                a2=np.eye(2),
                b1=np.eye(3),
                b2=np.eye(3),
            )

    def test_product_regime_allows_unequal_sides_within_cap(self):
        s = BellScenario(
            regime=Regime.COMMUTING_SUBSYSTEMS,
            a1=np.eye(2),
            a2=np.eye(2),
            b1=np.eye(4),
            b2=np.eye(4),
        )
        assert bell_operator(s).shape == (8, 8)

    def test_total_dimension_cap(self):
        with pytest.raises(DimensionError):
            BellScenario(
                regime=Regime.COMMUTING_SUBSYSTEMS,
                a1=np.eye(5),
                a2=np.eye(5),
                b1=np.eye(4),
                b2=np.eye(4),
            )

    def test_classical_requires_commuting_operators(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        with pytest.raises(RegimeError):
            BellScenario(
                regime=Regime.CLASSICAL,
                a1=z,
                a2=x,
                b1=z,
                b2=z,
            )


class TestBellOperator:
    def test_all_identity_collapses_to_twice_identity(self):
        s = unrestricted(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(bell_operator(s), 2.0 * np.eye(2), atol=1e-15)
        assert max_expectation(s) == pytest.approx(2.0, abs=1e-12)
        assert bb_dagger_expectation(s) == pytest.approx(4.0, abs=1e-12)

    def test_scalar_sign_assignment(self):
        one = np.array([[1.0]])
        s = unrestricted(one, one, one, -one)
        np.testing.assert_allclose(bell_operator(s), [[2.0]], atol=0.0)

    def test_canonical_matrix_reaches_tsirelson_eigenvalue(self):
        s = BellScenario(Regime.COMMUTING_SUBSYSTEMS, *_canonical_block_tuple(2))
        matrix = bell_operator(s)
        extremes = symmetric_extreme_eigen(matrix)
        assert extremes.largest == pytest.approx(ROOT8, abs=1e-10)

    def test_duplicated_first_operator_collapses(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            a1 = random_contraction(3, gen)
            s = unrestricted(a1, a1, random_contraction(3, gen), random_contraction(3, gen))
            assert max_expectation(s) <= 2.0 + 1e-9

    def test_sign_flip_in_last_slot_rearranges_terms(self):
        gen = np.random.default_rng(9)
        for _ in range(10):
            a1, a2, b1, b2 = (random_contraction(4, gen) for _ in range(4))
            flipped = bell_operator(unrestricted(a1, a2, b1, -b2))
            rearranged = a1 @ b1 - a1 @ b2 + a2 @ b1 + a2 @ b2
            assert np.abs(flipped - rearranged).max() < 1e-12


class TestClassicalBruteforce:
    def test_exhaustive_maximum_is_exactly_two(self):
        assert classical_bound_bruteforce() == 2.0

    def test_every_assignment_evaluates_to_exactly_two(self):
        # a1(b1 + b2) + a2(b1 - b2): one bracket is 0 and the other +/-2,
        # so |combination| is 2 for every one of the sixteen assignments
        values = {
            abs(a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2)
            for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4)
        }
        assert values == {2}


class TestCanonicalScenario:
    def test_operators_are_involutory(self):
        s = BellScenario(Regime.COMMUTING_SUBSYSTEMS, *_canonical_block_tuple(2))
        for op in (s.a1, s.a2, s.b1, s.b2):
            np.testing.assert_allclose(op @ op, np.eye(op.shape[0]), atol=1e-12)

    def test_tsirelson_point(self):
        s = BellScenario(Regime.COMMUTING_SUBSYSTEMS, *_canonical_block_tuple(2))
        assert max_expectation(s) == pytest.approx(ROOT8, abs=1e-10)
        assert bb_dagger_expectation(s) == pytest.approx(8.0, abs=1e-9)

    def test_square_identity(self):
        s = BellScenario(Regime.COMMUTING_SUBSYSTEMS, *_canonical_block_tuple(2))
        assert square_identity_deviation(s) <= 1e-10

    def test_operators_are_the_analyzers_at_the_sampler_angles(self):
        # one table: the analyzer at theta is cos 2 theta Z + sin 2 theta X
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for block, theta in zip(_canonical_block_tuple(2), CANONICAL_ANGLES):
            expected = math.cos(2.0 * theta) * z + math.sin(2.0 * theta) * x
            np.testing.assert_allclose(block, expected, rtol=0.0, atol=1e-15)


class TestSquareIdentity:
    def test_duplicated_side_gives_flat_square(self):
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = BellScenario(
            regime=Regime.COMMUTING_SUBSYSTEMS,
            a1=z,
            a2=z,
            b1=z,
            b2=x,
        )
        assert square_identity_deviation(s) <= 1e-10
        assert max_expectation(s) <= 2.0 + 1e-9

    def test_ten_random_involutory_scenarios(self):
        for seed in range(10):
            s = random_involutory_scenario(2, 2, RngStream(seed))
            assert square_identity_deviation(s) <= 1e-10


class TestRandomOperatorFactories:
    def test_haar_unitary_is_unitary(self):
        gen = np.random.default_rng(3)
        u = haar_unitary(4, gen)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_random_contraction_is_hermitian_contraction(self):
        gen = np.random.default_rng(6)
        for _ in range(20):
            m = random_contraction(3, gen)
            assert np.abs(m - m.conj().T).max() < 1e-12
            assert np.linalg.norm(m, 2) <= 1.0 + 1e-12


LIGHT = SearchConfig(restarts=2, max_iterations=200, rng=RngStream(0))


class TestSearchBound:
    def test_classical_search_saturates_two(self, monkeypatch):
        # the +/-1 enumeration's first optimum, all +1, read once with no
        # restart and no generator: four identities and state e_0, whatever
        # the seed or restart count, which is still reported
        def no_generator(self):
            raise AssertionError("the classical search draws no random numbers")

        monkeypatch.setattr(RngStream, "generator", no_generator)
        for seed, restarts in itertools.product(range(5), (1, 3, 8)):
            config = SearchConfig(restarts=restarts, max_iterations=200, rng=RngStream(seed))
            for dim in (1, 2, 3, 16):
                report = search_bound(Regime.CLASSICAL, dim, config)
                assert report.best_expectation == 2.0
                assert report.certified_expectation == 2.0
                assert report.best_bb_dagger == 4.0
                assert report.restarts == restarts
                assert report.best_restart == 0
                assert report.iterations == 1
                for slot in SLOTS:
                    np.testing.assert_array_equal(getattr(report.witness, slot), np.eye(dim))
                np.testing.assert_array_equal(report.witness_state, np.eye(dim)[0])
                assert report.theoretical_limit_expectation == 2.0
                assert report.theoretical_limit_bb == 4.0

    def test_product_regime_search_reaches_tsirelson(self):
        report = search_bound(Regime.COMMUTING_SUBSYSTEMS, 2, LIGHT)
        assert ROOT8 - 1e-3 <= report.best_expectation <= ROOT8 + 1e-6
        assert report.best_bb_dagger <= 8.0 + 1e-6
        for dim, seed in itertools.product((2, 3, 4), range(20)):
            config = SearchConfig(rng=RngStream(seed))
            report = search_bound(Regime.COMMUTING_SUBSYSTEMS, dim, config)
            assert report.best_expectation == pytest.approx(ROOT8, abs=1e-9)

    def test_unrestricted_search_bracketed(self):
        report = search_bound(Regime.UNRESTRICTED, 4, LIGHT)
        assert ROOT8 - 1e-3 <= report.best_expectation <= ROOT12 + 1e-6
        assert report.best_bb_dagger <= 12.0 + 1e-6

    def test_witness_reproduces_reported_values(self):
        for regime in Regime:
            report = search_bound(regime, 2, LIGHT)
            assert max_expectation(report.witness) == pytest.approx(
                report.best_expectation, abs=1e-9
            )
            assert bb_dagger_expectation(report.witness) == pytest.approx(
                report.best_bb_dagger, abs=1e-9
            )
            state = report.witness_state
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)

    def test_round_off_at_the_limit_is_no_violation(self):
        # the default commuting d=4 search lands a few ulp above 2*sqrt(2)
        report = search_bound(Regime.COMMUTING_SUBSYSTEMS, 4)
        assert report.best_expectation == pytest.approx(ROOT8, abs=1e-12)

    def test_regime_monotonicity_chain(self):
        for seed in range(5):
            cfg = SearchConfig(restarts=2, max_iterations=200, rng=RngStream(seed))
            for dim in (2, 4):
                classical = search_bound(Regime.CLASSICAL, dim, cfg).best_expectation
                commuting = search_bound(Regime.COMMUTING_SUBSYSTEMS, dim, cfg).best_expectation
                unrestricted_best = search_bound(Regime.UNRESTRICTED, dim, cfg).best_expectation
                assert classical <= commuting + 1e-6
                assert commuting <= unrestricted_best + 2e-6

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            search_bound(Regime.UNRESTRICTED, 17, LIGHT)
        with pytest.raises(DimensionError):
            search_bound(Regime.COMMUTING_SUBSYSTEMS, 5, LIGHT)
        with pytest.raises(DimensionError):
            search_bound(Regime.CLASSICAL, 0, LIGHT)

    def test_product_regime_dim_counts_one_side(self):
        report = search_bound(Regime.COMMUTING_SUBSYSTEMS, 4, LIGHT)
        assert bell_operator(report.witness).shape == (16, 16)

    def test_deterministic_given_config(self):
        r1 = search_bound(Regime.UNRESTRICTED, 2, LIGHT)
        r2 = search_bound(Regime.UNRESTRICTED, 2, LIGHT)
        assert r1.best_expectation == r2.best_expectation
        assert r1.best_restart == r2.best_restart


def rank_two_case(dim, gen):
    """A random unit psi and x = phase X psi, X Hermitian with norm <= 2, as
    the ascent's (b1 +/- b2) and (a1 +/- a2) are."""
    psi = haar_unitary(dim, gen)[:, 0]
    phase = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi))
    x = phase * ((random_contraction(dim, gen) + random_contraction(dim, gen)) @ psi)
    return psi, x


def rank_two_matrix(psi, x):
    return 0.5 * (np.outer(x, psi.conj()) + np.outer(psi, x.conj()))


class TestRankTwoSign:
    @pytest.mark.parametrize("dim", range(1, MAX_TOTAL_DIM + 1))
    def test_hermitian_involution_attaining_the_trace_norm(self, dim):
        gen = np.random.default_rng(100 + dim)
        for _ in range(20):
            psi, x = rank_two_case(dim, gen)
            sign = _rank_two_sign(psi, x)
            np.testing.assert_allclose(sign, sign.conj().T, rtol=0, atol=1e-15)
            np.testing.assert_allclose(sign @ sign, np.eye(dim), rtol=0, atol=1e-12)
            # tr(S H) is largest, sum |lambda(H)|, exactly when S = sign(H)
            h = rank_two_matrix(psi, x)
            trace_norm = np.abs(np.linalg.eigvalsh(h)).sum()
            assert abs(np.trace(sign @ h) - trace_norm) <= 1e-12

    @pytest.mark.parametrize("dim", range(3, MAX_TOTAL_DIM + 1))
    def test_identity_off_the_span_of_psi_and_x(self, dim):
        gen = np.random.default_rng(200 + dim)
        for _ in range(20):
            psi, x = rank_two_case(dim, gen)
            span, _ = np.linalg.qr(np.column_stack([psi, x]))
            v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            v -= span @ (span.conj().T @ v)
            np.testing.assert_allclose(_rank_two_sign(psi, x) @ v, v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", range(1, MAX_TOTAL_DIM + 1))
    def test_sign_equals_the_eigendecomposition_sign(self, dim):
        # one sign rule, taken in closed form and from the eigensolver, with
        # scale ||x||: they agree also where H has eigenvalues that are pure
        # round-off, as for x = c psi (H = Re(c) psi psi^dag) and x = 0
        gen = np.random.default_rng(400 + dim)
        zero = np.zeros(dim, dtype=complex)
        for _ in range(20):
            psi, x = rank_two_case(dim, gen)
            # at d = 1 nothing but 0 is orthogonal to psi
            x_perp = x - np.vdot(psi, x) * psi if dim > 1 else zero
            for y in (x, 2.0 * psi, -2.0 * psi, 3j * psi, zero, x_perp, x_perp - 0.5 * psi):
                eigen_sign = _sign_operator(rank_two_matrix(psi, y), np.linalg.norm(y))
                np.testing.assert_allclose(_rank_two_sign(psi, y), eigen_sign, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("dim", range(1, MAX_TOTAL_DIM + 1))
    def test_degenerate_inputs(self, dim):
        # x = c psi gives H = Re(c) psi psi^dag: the sign flips psi only for
        # Re c < 0; x = 0 and x = i psi give H = 0, whose sign is I
        psi = haar_unitary(dim, np.random.default_rng(300 + dim))[:, 0]
        identity = np.eye(dim)
        flip = identity - 2.0 * np.outer(psi, psi.conj())
        cases = [
            (np.zeros(dim, dtype=complex), identity),
            ((0.7 - 2.0j) * psi, identity),
            ((-0.7 + 2.0j) * psi, flip),
            (1j * psi, identity),
        ]
        for x, expected in cases:
            np.testing.assert_allclose(_rank_two_sign(psi, x), expected, rtol=0, atol=1e-12)


class TestCommutingSign:
    @pytest.mark.parametrize("seed", range(10))
    def test_identity_off_the_support_of_the_state(self, seed):
        # a maximally entangled qubit pair in the first 2x2 corner of d = 4,
        # turned by U (x) V, has the rank-two Schmidt matrix
        # m = U diag(1, 1, 0, 0) V^T / sqrt(2); the a-side inputs m X m^dag,
        # with the scale 2 of `_ascend_commuting`, are round-off off the
        # range of U[:, :2], so their signs must be I there
        gen = np.random.default_rng(seed)
        u, v = haar_unitary(4, gen), haar_unitary(4, gen)
        m = u @ np.diag([1.0, 1.0, 0.0, 0.0]) @ v.T / math.sqrt(2.0)
        _, _, b1, b2 = _canonical_block_tuple(4)
        off_support = u[:, 2:]
        for x in (b1 + b2, b1 - b2):
            sign = _sign_operator(m @ x.T @ m.conj().T, 2.0)
            np.testing.assert_allclose(sign @ off_support, off_support, rtol=0, atol=1e-12)


class TestUnrestrictedAscentCost:
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "random"])
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_one_eigendecomposition_per_iteration(self, monkeypatch, dim, warm):
        # the operator updates take closed-form signs; only the state update
        # (and a warm start's first state) runs an eigensolver
        eigh = np.linalg.eigh
        calls = []

        def counted(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        _, _, _, iterations = _ascend_unrestricted(dim, np.random.default_rng(dim), 400, warm)
        assert iterations >= 2
        assert len(calls) <= iterations + 1


def random_contraction_scenario(regime, dim_a, dim_b, gen):
    """Four random Hermitian contractions, commuting diagonals if CLASSICAL."""
    if regime is Regime.CLASSICAL:
        ops = [np.diag(gen.uniform(-1.0, 1.0, size=dim_a)) for _ in range(4)]
    else:
        ops = [random_contraction(d, gen) for d in (dim_a, dim_a, dim_b, dim_b)]
    return BellScenario(regime, *ops)


def side_dims(regime):
    if regime is Regime.COMMUTING_SUBSYSTEMS:
        return [
            (a, b)
            for a in range(1, MAX_TOTAL_DIM + 1)
            for b in range(1, MAX_TOTAL_DIM + 1)
            if a * b <= MAX_TOTAL_DIM
        ]
    return [(d, d) for d in range(1, MAX_TOTAL_DIM + 1)]


class TestCertifiedExpectation:
    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_bounds_random_contraction_scenarios(self, regime):
        template = search_bound(regime, 2, LIGHT)
        gen = np.random.default_rng(17)
        for dim_a, dim_b in side_dims(regime):
            for _ in range(2):
                scenario = random_contraction_scenario(regime, dim_a, dim_b, gen)
                certificate = dataclasses.replace(template, witness=scenario).certified_expectation
                assert max_expectation(scenario) <= certificate * (1.0 + 1e-12)
                # no contraction scenario in any regime gets past 2*sqrt(2)
                assert certificate <= ROOT8 * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "regime", [Regime.UNRESTRICTED, Regime.COMMUTING_SUBSYSTEMS], ids=lambda r: r.value
    )
    def test_seed_zero_witness_attains_its_certificate(self, regime):
        report = search_bound(regime, 4)
        assert report.certified_expectation == pytest.approx(report.best_expectation, abs=1e-12)

    def test_classical_certificate_is_the_bruteforce(self):
        report = search_bound(Regime.CLASSICAL, 4, LIGHT)
        assert report.certified_expectation == classical_bound_bruteforce() == 2.0


def test_bound_search_loads_no_scipy():
    # the numerical radius is numpy only, so a bound search in the regime
    # that needs it never imports scipy
    env = dict(os.environ, PYTHONPATH=str(Path(bellhv.__file__).resolve().parents[1]))
    code = (
        "import sys, numpy as np, bellhv.bell as bell; "
        "bell.search_bound(bell.Regime.UNRESTRICTED, 4); "
        "bell.numerical_radius(np.array([[0.0, 1.0], [0.0, 0.0]])); "
        "print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.strip() == "False"
