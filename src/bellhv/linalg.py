"""Dense Hermitian eigen-routines and operator functionals.

Eigenproblems go to LAPACK through `np.linalg.eigh`, after the input has
been checked to be Hermitian within round-off and symmetrized.  The tests
check it against an independent cyclic Jacobi solver.

Also provided: Hermiticity validation, commutators, and the numerical
radius max_psi |<psi|M|psi>| needed for non-Hermitian Bell operators.  The
radius is the maximum over phases theta of the largest eigenvalue of the
Hermitian part of e^{i theta} M, the support function of the numerical
range (Johnson, SIAM J. Numer. Anal. 15, 595 (1978)): one batched
eigenvalue solve over a grid of phases, then nested grids, each sampling
the best phase's bracket at a quarter of the previous spacing.  It uses
numpy only; the tests check it against scipy's bounded Brent search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError, ParameterError

# largest deviation from Hermitian, relative to the matrix's scale, that
# counts as round-off
_HERMITIAN_TOL = 1e-12

# numerical radius: phases over the full turn, steps across the best phase's
# bracket at each nested level, and the spacing (radians) at which h's best
# sample is its maximum to round-off
_PHASES = 96
_LEVEL_STEPS = 8
_PHASE_TOL = 1e-9


def require_square(matrix, name: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a numeric matrix") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionError(f"{name} must be a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise DimensionError(f"{name} must contain only finite entries")
    return arr


def _is_hermitian(arr: np.ndarray) -> bool:
    """max |M - M^dag| within _HERMITIAN_TOL of the scale max(1, max |M|)."""
    scale = max(1.0, float(np.abs(arr).max()))
    return float(np.abs(arr - arr.conj().T).max()) <= _HERMITIAN_TOL * scale


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within round-off; returns the symmetrized matrix."""
    arr = require_square(matrix, name)
    if not _is_hermitian(arr):
        deviation = float(np.abs(arr - arr.conj().T).max())
        raise HermiticityError(
            f"{name} deviates from Hermitian by {deviation:.3e} (tol {_HERMITIAN_TOL:.1e} * scale)"
        )
    return 0.5 * (arr + arr.conj().T)


@dataclass(frozen=True)
class EigenExtremes:
    """Smallest and largest eigenvalue of a Hermitian matrix."""

    smallest: float
    largest: float


def symmetric_extreme_eigen(matrix) -> EigenExtremes:
    """Spectrum endpoints of a matrix checked to be Hermitian within round-off."""
    # eigh, not eigvalsh: the two LAPACK drivers can differ in the last bit,
    # and every recorded output was computed with this one
    w, _ = np.linalg.eigh(require_hermitian(matrix))
    return EigenExtremes(smallest=float(w[0]), largest=float(w[-1]))


def commutator(x, y) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return x @ y - y @ x


def hermitian_part(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    return 0.5 * (m + m.conj().T)


def numerical_radius(matrix) -> float:
    """max over unit states of |<psi|M|psi>| for a general square matrix.

    h(theta) = lambda_max(H(theta)), with H(theta) the Hermitian part of
    e^{i theta} M, is the support function of the numerical range, and the
    radius is its maximum over the full turn (Johnson, SIAM J. Numer. Anal.
    15, 595 (1978)).  A Hermitian M short-circuits to its spectral radius.
    Otherwise one batched eigenvalue solve samples h at _PHASES phases, and
    each nested level samples the best phase's bracket, one spacing to
    either side, at _LEVEL_STEPS steps (the spacing shrinks 4x per level)
    until the spacing is below _PHASE_TOL.  The result is the largest h
    sampled.  No derivative of h is taken, so a repeated top eigenvalue or
    a crossing at the maximum needs no case of its own.
    """
    m = require_square(matrix)
    if _is_hermitian(m):
        ext = symmetric_extreme_eigen(m)
        return float(max(abs(ext.smallest), abs(ext.largest)))

    adjoint = m.conj().T
    spacing = 2.0 * np.pi / _PHASES
    thetas = spacing * np.arange(_PHASES)
    level = np.linspace(-1.0, 1.0, _LEVEL_STEPS + 1)
    best = -np.inf
    while True:
        # h at every phase, from one batched solve of the H(theta)
        turn = np.exp(1j * thetas)[:, np.newaxis, np.newaxis]
        samples = np.linalg.eigvalsh(0.5 * (turn * m + np.conj(turn) * adjoint))[:, -1]
        k = int(np.argmax(samples))
        best = max(best, float(samples[k]))
        if spacing < _PHASE_TOL:
            return best
        thetas = thetas[k] + spacing * level
        spacing *= 2.0 / _LEVEL_STEPS
