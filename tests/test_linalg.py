import numpy as np
import pytest
from hypothesis import given, strategies as st

from _jacobi import jacobi_eigensystem
from bellhv.errors import DimensionError, HermiticityError
from bellhv.linalg import (
    commutator,
    hermitian_eigensystem,
    hermitian_part,
    numerical_radius,
    require_hermitian,
    spectral_norm,
    symmetric_extreme_eigen,
)


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


class TestHermitianEigensystem:
    """The LAPACK path against the cyclic Jacobi oracle in tests/_jacobi.py."""

    @given(dim=st.integers(min_value=1, max_value=16), seed=st.integers(min_value=0, max_value=50))
    def test_matches_reference_decomposition(self, dim, seed):
        m = random_hermitian(dim, seed)
        values, vectors = hermitian_eigensystem(m)
        reference, reference_vectors = jacobi_eigensystem(m)
        scale = max(1.0, float(np.abs(reference).max()))
        np.testing.assert_allclose(values, reference, atol=1e-12 * scale)
        # columns are eigenvectors: M v = w v, for both solvers
        for w, v in ((values, vectors), (reference, reference_vectors)):
            residual = m @ v - v * w[np.newaxis, :]
            assert np.abs(residual).max() < 1e-12 * scale

    def test_degenerate_spectrum_matches_oracle(self):
        # involutions, the operators the Bell searches produce, have only
        # the eigenvalues +/-1, each many times over
        gen = np.random.default_rng(3)
        q, _ = np.linalg.qr(gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16)))
        m = (q * np.repeat([-1.0, 1.0], 8)) @ q.conj().T
        values, vectors = hermitian_eigensystem(m)
        np.testing.assert_allclose(values, jacobi_eigensystem(m)[0], atol=1e-12)
        np.testing.assert_allclose(values, np.repeat([-1.0, 1.0], 8), atol=1e-12)
        assert np.abs(m @ vectors - vectors * values[np.newaxis, :]).max() < 1e-12

    def test_orthonormal_vectors(self):
        m = random_hermitian(6, 7)
        _, vectors = hermitian_eigensystem(m)
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(6), atol=1e-11)


class TestSymmetricExtremeEigen:
    def test_identity(self):
        ext = symmetric_extreme_eigen(np.eye(4))
        assert ext.smallest == pytest.approx(1.0, abs=1e-12)
        assert ext.largest == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(ext.dominant_vector) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        ext = symmetric_extreme_eigen(np.diag([-2.0, 0.0, 5.0]))
        assert ext.smallest == pytest.approx(-2.0, abs=1e-12)
        assert ext.largest == pytest.approx(5.0, abs=1e-12)

    def test_dominant_vector_attains_largest_magnitude(self):
        m = random_hermitian(5, 3)
        ext = symmetric_extreme_eigen(m)
        rayleigh = float(np.real(ext.dominant_vector.conj() @ m @ ext.dominant_vector))
        assert abs(rayleigh) == pytest.approx(
            max(abs(ext.smallest), abs(ext.largest)), abs=1e-10
        )

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


class TestSpectralNorm:
    @given(dim=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=30))
    def test_equals_largest_singular_value(self, dim, seed):
        gen = np.random.default_rng(seed + 1000)
        m = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], abs=1e-8)


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
        s = spectral_norm(m)
        assert s / 2 - 1e-9 <= r <= s + 1e-9


def test_commutator_and_hermitian_part():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    np.testing.assert_allclose(commutator(x, x), np.zeros((2, 2)))
    np.testing.assert_allclose(commutator(z, x), z @ x - x @ z)
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    h = hermitian_part(m)
    np.testing.assert_array_equal(h, h.conj().T)
    np.testing.assert_allclose(h, [[1.0, 1.0], [1.0, 1.0]])
