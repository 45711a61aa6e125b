"""The numerical radius by scipy's bounded Brent search, kept as an oracle.

This is the library routine before it moved to numpy only: 48 coarse
phases over a half turn, then `scipy.optimize.minimize_scalar` on the
support function inside the best sample's bracket.  It shares the
Hermitian short-circuit and eigensolver with `bellhv.linalg` but not the
phase search, so it checks `bellhv.linalg.numerical_radius` independently.
"""

import numpy as np

from bellhv.linalg import hermitian_part, require_square, symmetric_extreme_eigen


def brent_numerical_radius(matrix, coarse_points: int = 48, tol: float = 1e-12) -> float:
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
