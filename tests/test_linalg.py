import numpy as np
import pytest
from hypothesis import given, strategies as st

from _brent_radius import brent_numerical_radius
from _jacobi import jacobi_eigensystem
from bellhv.bell import Regime, bell_operator, search_bound
from bellhv.errors import DimensionError, HermiticityError, ParameterError
from bellhv.linalg import (
    commutator,
    hermitian_part,
    numerical_radius,
    require_hermitian,
    symmetric_extreme_eigen,
)
from bellhv.rng import RngStream, SearchConfig


def random_hermitian(dim, seed):
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


class TestRequireHermitian:
    def test_accepts_and_symmetrizes(self):
        m = random_hermitian(4, 0)
        out = require_hermitian(m)
        np.testing.assert_array_equal(out, out.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            require_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", ["x", [[1, 2], [3]], {"a": 1}], ids=["str", "ragged", "dict"])
    @pytest.mark.parametrize("routine", [numerical_radius, symmetric_extreme_eigen])
    def test_non_numeric_matrix_is_a_parameter_error(self, routine, bad):
        with pytest.raises(ParameterError, match="^matrix must be a numeric matrix$"):
            routine(bad)


class TestHermitianEigensystem:
    """The LAPACK extremes against the cyclic Jacobi oracle in tests/_jacobi.py."""

    @given(dim=st.integers(min_value=1, max_value=16), seed=st.integers(min_value=0, max_value=50))
    def test_matches_reference_decomposition(self, dim, seed):
        m = random_hermitian(dim, seed)
        ext = symmetric_extreme_eigen(m)
        reference, reference_vectors = jacobi_eigensystem(m)
        scale = max(1.0, float(np.abs(reference).max()))
        assert ext.smallest == pytest.approx(reference[0], abs=1e-12 * scale)
        assert ext.largest == pytest.approx(reference[-1], abs=1e-12 * scale)
        # the oracle's columns are eigenvectors: M v = w v
        residual = m @ reference_vectors - reference_vectors * reference[np.newaxis, :]
        assert np.abs(residual).max() < 1e-12 * scale

    def test_degenerate_spectrum_matches_oracle(self):
        # involutions, the operators the Bell searches produce, have only
        # the eigenvalues +/-1, each many times over
        gen = np.random.default_rng(3)
        q, _ = np.linalg.qr(gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16)))
        m = (q * np.repeat([-1.0, 1.0], 8)) @ q.conj().T
        ext = symmetric_extreme_eigen(m)
        reference = jacobi_eigensystem(m)[0]
        np.testing.assert_allclose(reference, np.repeat([-1.0, 1.0], 8), atol=1e-12)
        assert ext.smallest == pytest.approx(reference[0], abs=1e-12)
        assert ext.largest == pytest.approx(reference[-1], abs=1e-12)


class TestSymmetricExtremeEigen:
    def test_identity(self):
        ext = symmetric_extreme_eigen(np.eye(4))
        assert ext.smallest == pytest.approx(1.0, abs=1e-12)
        assert ext.largest == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        ext = symmetric_extreme_eigen(np.diag([-2.0, 0.0, 5.0]))
        assert ext.smallest == pytest.approx(-2.0, abs=1e-12)
        assert ext.largest == pytest.approx(5.0, abs=1e-12)

    def test_sampled_rayleigh_never_exceeds_largest(self):
        m = random_hermitian(6, 11)
        ext = symmetric_extreme_eigen(m)
        gen = np.random.default_rng(2024)
        for _ in range(1000):
            v = gen.standard_normal(6) + 1j * gen.standard_normal(6)
            v /= np.linalg.norm(v)
            q = float(np.real(v.conj() @ m @ v))
            assert q <= ext.largest + 1e-6
            assert q >= ext.smallest - 1e-6


class TestNumericalRadius:
    def test_hermitian_equals_spectral_radius(self):
        m = random_hermitian(4, 5)
        w = np.linalg.eigvalsh(m)
        assert numerical_radius(m) == pytest.approx(float(np.abs(w).max()), abs=1e-10)

    def test_nilpotent_jordan_block(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert numerical_radius(m) == pytest.approx(0.5, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=30))
    def test_classical_sandwich(self, seed):
        gen = np.random.default_rng(seed)
        m = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        r = numerical_radius(m)
        s = np.linalg.norm(m, 2)
        assert s / 2 - 1e-9 <= r <= s + 1e-9


def random_square(dim, seed):
    gen = np.random.default_rng(seed + 2000)
    return gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))


# relative agreement with the Brent oracle: both reach the maximum of the
# support function, so they differ only by eigensolver round-off
ORACLE_RTOL = 1e-14


def assert_matches_brent(m):
    got = numerical_radius(m)
    want = brent_numerical_radius(m)
    assert abs(got - want) <= ORACLE_RTOL * want
    return got, want


# name: (matrix, its radius in closed form)
SPECIAL = {
    "complex-scalar": (np.array([[0.3 - 0.7j]]), abs(0.3 - 0.7j)),
    "nilpotent-jordan": (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5),
    # a normal matrix's numerical radius is its spectral radius
    "normal": (np.diag([1.0, 0.9j, -0.6 + 0.6j]), 1.0),
    # 3e-12 off Hermitian, just past the short-circuit's 1e-12 * scale
    "near-hermitian": (np.diag([1.0, -2.0]) + np.array([[0.0, 3e-12], [0.0, 0.0]]), 2.0),
}


def support_values(m, phases):
    """lambda_max of the Hermitian part of e^{i theta} m, by Jacobi."""
    return np.array(
        [jacobi_eigensystem(hermitian_part(np.exp(1j * t) * m))[0][-1] for t in phases]
    )


class TestNumericalRadiusAgainstBrent:
    """The numpy phase search against scipy's Brent search in tests/_brent_radius.py."""

    @given(dim=st.integers(min_value=1, max_value=16), seed=st.integers(min_value=0, max_value=200))
    def test_random_matrices(self, dim, seed):
        assert_matches_brent(random_square(dim, seed))

    @pytest.mark.parametrize("name", SPECIAL)
    def test_special_matrices(self, name):
        m, radius = SPECIAL[name]
        got, _ = assert_matches_brent(m)
        assert got == pytest.approx(radius, rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_top_eigenvalue(self, seed):
        # a repeated block keeps the top eigenvalue of every H(theta) double,
        # and the maximum is off the coarse grid
        block = random_square(3, seed)
        m = np.kron(np.eye(2), block)
        assert numerical_radius(m) == pytest.approx(numerical_radius(block), rel=1e-14)
        assert_matches_brent(m)

    def test_cost_is_one_batched_solve_per_level(self, monkeypatch):
        # eigenvalues only: one batched eigvalsh over the 96 coarse phases,
        # then one per nested level, whose spacing shrinks 4x from 2 pi / 96
        # rad until it is below 1e-9 rad, which takes 13 levels
        levels = 13
        vectors, batches = [], []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: vectors.append(1) or eigh(a))
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: batches.append(np.shape(a)) or eigvalsh(a)
        )
        for seed in range(50):
            dim = 1 + seed % 16
            batches.clear()
            numerical_radius(random_square(dim, seed))
            assert batches == [(96, dim, dim)] + [(9, dim, dim)] * levels
        assert vectors == []

    @pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1)])
    def test_not_below_a_dense_jacobi_grid(self, dim, seed):
        m = random_square(dim, seed)
        radius = numerical_radius(m)
        grid = support_values(m, 2.0 * np.pi * np.arange(4096) / 4096)
        top = float(grid.max())
        assert radius >= top - 1e-14 * top
        # and it is the grid's maximum, to the grid's resolution
        assert radius <= top * (1.0 + 1e-6)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_unrestricted_witnesses_keep_their_digits(self, dim):
        for seed in range(20):
            report = search_bound(Regime.UNRESTRICTED, dim, SearchConfig(rng=RngStream(seed)))
            got, want = assert_matches_brent(bell_operator(report.witness))
            assert f"{got:.12g}" == f"{want:.12g}"


def test_commutator_and_hermitian_part():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    np.testing.assert_allclose(commutator(x, x), np.zeros((2, 2)))
    np.testing.assert_allclose(commutator(z, x), z @ x - x @ z)
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    h = hermitian_part(m)
    np.testing.assert_array_equal(h, h.conj().T)
    np.testing.assert_allclose(h, [[1.0, 1.0], [1.0, 1.0]])
