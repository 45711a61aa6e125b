"""Dense Hermitian eigen-routines and operator functionals.

Eigenproblems go to LAPACK through `np.linalg.eigh`, after the input has
been checked to be Hermitian within round-off and symmetrized.  The tests
check it against an independent cyclic Jacobi solver.

Also provided: Hermiticity validation, commutators, and the numerical
radius max_psi |<psi|M|psi>| needed for non-Hermitian Bell operators.  The
radius is the maximum over phases theta of the largest eigenvalue of the
Hermitian part of e^{i theta} M, the support function of the numerical
range (Johnson, SIAM J. Numer. Anal. 15, 595 (1978)): one batched
eigensolve over a grid of phases, then safeguarded Newton steps on the
phase with first and second derivatives from perturbation theory.  It uses
numpy only; the tests check it against scipy's bounded Brent search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError, ParameterError

# largest deviation from Hermitian, relative to the matrix's scale, that
# counts as round-off
_HERMITIAN_TOL = 1e-12

# numerical radius: coarse phases over the full turn, the cap on Newton
# steps, the relative gap below which two top eigenvalues count as one, and
# the Newton step (radians) below which h is at its maximum to round-off
_PHASES = 96
_NEWTON_STEPS = 50
_DEGENERATE_GAP = 1e-12
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
    Otherwise one batched eigensolve samples h at _PHASES phases, and
    Newton steps refine the best sample inside its bracket, using

        h'  = <v|H'|v>,   H' = (i e^{i theta} M - i e^{-i theta} M^dag) / 2,
        h'' = -h + 2 sum_k |<u_k|H'|v>|^2 / (h - lambda_k),

    both from the same eigendecomposition (H'' = -H).  Partners within
    round-off of a degenerate top eigenvalue leave the sum: a degeneracy
    that persists in theta (a repeated block) is one smooth branch, and at
    an isolated crossing the bracket keeps the steps safe.  A step that
    leaves the bracket, or fails to halve the previous one, bisects it.
    The result is the largest h evaluated, so never below the best sample.
    """
    m = require_square(matrix)
    if _is_hermitian(m):
        ext = symmetric_extreme_eigen(m)
        return float(max(abs(ext.smallest), abs(ext.largest)))

    adjoint = m.conj().T

    def phase_part(turn):
        # H(theta) for turn = e^{i theta}; a (K, 1, 1) turn gives K matrices
        return 0.5 * (turn * m + np.conj(turn) * adjoint)

    spacing = 2.0 * np.pi / _PHASES
    thetas = spacing * np.arange(_PHASES)
    samples = np.linalg.eigvalsh(phase_part(np.exp(1j * thetas)[:, np.newaxis, np.newaxis]))[:, -1]
    k = int(np.argmax(samples))
    best = float(samples[k])
    theta = thetas[k]
    lo, hi = theta - spacing, theta + spacing
    moved = hi - lo
    for _ in range(_NEWTON_STEPS):
        turn = np.exp(1j * theta)
        w, v = np.linalg.eigh(phase_part(turn))
        top = float(w[-1])
        best = max(best, top)
        gaps = top - w[:-1]
        apart = gaps > _DEGENERATE_GAP * max(1.0, abs(top))
        coupling = v.conj().T @ (0.5j * (turn * m - np.conj(turn) * adjoint) @ v[:, -1])
        slope = float(coupling[-1].real)
        curvature = -top + 2.0 * float(np.sum(np.abs(coupling[:-1][apart]) ** 2 / gaps[apart]))
        newton = -slope / curvature if curvature < 0.0 else np.inf
        if abs(newton) <= _PHASE_TOL:
            break
        if slope > 0.0:
            lo = theta
        else:
            hi = theta
        proposal = theta + newton
        if not lo < proposal < hi or 2.0 * abs(newton) > moved:
            proposal = 0.5 * (lo + hi)
        moved = abs(proposal - theta)
        theta = proposal
    return best
