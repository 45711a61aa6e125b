"""Cyclic complex Jacobi eigensolver, kept as an oracle for the LAPACK path.

Each sweep annihilates every off-diagonal entry once with a unitary plane
rotation, and the off-diagonal Frobenius mass falls quadratically once
sweeps start to converge.  For the matrix sizes used here (<= 16) it is
accurate to ~1e-14 relative and shares no code with LAPACK, so it checks
`bellhv.linalg.symmetric_extreme_eigen` independently.
"""

from typing import Tuple

import numpy as np

from bellhv.linalg import require_hermitian

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60


def jacobi_eigensystem(matrix) -> Tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Returns (w, v) with v[:, k] the unit eigenvector for w[k].
    """
    a = require_hermitian(matrix)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.reshape(1).copy(), v

    scale = max(float(np.abs(a).max()), 1e-300)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(_JACOBI_MAX_SWEEPS):
        # measure the off-diagonal mass directly: subtracting the diagonal
        # mass from the total cancels catastrophically once the remainder
        # drops below sqrt(eps) * scale and would end sweeps ~1e6 too early
        off = float(np.linalg.norm(a[off_mask]))
        if off <= _JACOBI_TOL * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                b = abs(apq)
                if b <= _JACOBI_TOL * scale / n:
                    continue
                phi = np.angle(apq)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * b)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                ep = np.exp(-1j * phi)

                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * ep * colq
                a[:, q] = s * np.conj(ep) * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * np.conj(ep) * rowq
                a[q, :] = s * ep * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vcolp = v[:, p].copy()
                vcolq = v[:, q].copy()
                v[:, p] = c * vcolp - s * ep * vcolq
                v[:, q] = s * np.conj(ep) * vcolp + c * vcolq

    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
