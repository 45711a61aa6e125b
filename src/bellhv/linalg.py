"""Dense Hermitian eigen-routines and operator functionals.

Eigenproblems go to LAPACK through `np.linalg.eigh`, after the input has
been checked to be Hermitian within round-off and symmetrized.  The tests
check it against an independent cyclic Jacobi solver.

Also provided: Hermiticity validation, spectral norm, commutators, and the
numerical radius max_psi |<psi|M|psi>| needed for non-Hermitian Bell
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DimensionError, HermiticityError


def require_square(matrix, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionError(f"{name} must be a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise DimensionError(f"{name} must contain only finite entries")
    return arr


def require_hermitian(matrix, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within `tol` (max-abs, relative to scale)."""
    arr = require_square(matrix, name)
    scale = max(1.0, float(np.abs(arr).max()))
    deviation = float(np.abs(arr - arr.conj().T).max())
    if deviation > tol * scale:
        raise HermiticityError(
            f"{name} deviates from Hermitian by {deviation:.3e} (tol {tol:.1e} * scale)"
        )
    return 0.5 * (arr + arr.conj().T)


def hermitian_eigensystem(matrix) -> Tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Returns (w, v) with v[:, k] the unit eigenvector for w[k].
    """
    return np.linalg.eigh(require_hermitian(matrix))


@dataclass(frozen=True)
class EigenExtremes:
    """Spectrum endpoints of a Hermitian matrix plus the dominant vector.

    dominant_vector is the unit eigenvector whose eigenvalue has the largest
    magnitude, i.e. the maximizer of |<psi|M|psi>| for Hermitian M.
    """

    smallest: float
    largest: float
    dominant_vector: np.ndarray


def symmetric_extreme_eigen(matrix) -> EigenExtremes:
    w, v = hermitian_eigensystem(matrix)
    dominant = v[:, -1] if abs(w[-1]) >= abs(w[0]) else v[:, 0]
    return EigenExtremes(smallest=float(w[0]), largest=float(w[-1]), dominant_vector=dominant)


def spectral_norm(matrix) -> float:
    """Largest singular value, via the Hermitian eigenproblem for M M^dagger."""
    m = require_square(matrix)
    gram = m @ m.conj().T
    largest = symmetric_extreme_eigen(gram).largest
    return float(np.sqrt(max(largest, 0.0)))


def commutator(x, y) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return x @ y - y @ x


def hermitian_part(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    return 0.5 * (m + m.conj().T)


def numerical_radius(matrix, coarse_points: int = 48, tol: float = 1e-12) -> float:
    """max over unit states of |<psi|M|psi>| for a general square matrix.

    Re(e^{i theta} <M>) traces the support function of the numerical range,
    so the radius is max over theta in [0, pi) of the largest-magnitude
    eigenvalue of the Hermitian part of e^{i theta} M.  The search over
    theta is coarse sampling plus bounded 1-D refinement around the best
    angle; for a Hermitian matrix this collapses to the spectral radius,
    which is short-circuited exactly.
    """
    m = require_square(matrix)
    if float(np.abs(m - m.conj().T).max()) <= 1e-12 * max(1.0, float(np.abs(m).max())):
        ext = symmetric_extreme_eigen(m)
        return float(max(abs(ext.smallest), abs(ext.largest)))

    def support(theta: float) -> float:
        ext = symmetric_extreme_eigen(hermitian_part(np.exp(1j * theta) * m))
        return max(abs(ext.smallest), abs(ext.largest))

    # imported here so that importing bellhv does not pay for scipy.optimize
    import scipy.optimize

    thetas = np.linspace(0.0, np.pi, coarse_points, endpoint=False)
    values = np.array([support(t) for t in thetas])
    k = int(np.argmax(values))
    step = np.pi / coarse_points
    bracket = (thetas[k] - step, thetas[k] + step)
    refined = scipy.optimize.minimize_scalar(
        lambda t: -support(t), bounds=bracket, method="bounded", options={"xatol": tol}
    )
    return float(max(values[k], -refined.fun))
