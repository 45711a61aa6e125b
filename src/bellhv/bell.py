"""Bell-type correlation operators under three commutation regimes.

The object of study is B = a1 b1 + a1 b2 + a2 b1 - a2 b2 built from four
Hermitian measurement contractions (operator norm <= 1).  A `BellScenario`
holds the four matrices and the regime, and validates both.  How large
|<B>| can get depends only on which operators are required to commute:

* CLASSICAL: all four commute pairwise.  |<B>| <= 2 and <B B^dag> <= 4.
* COMMUTING_SUBSYSTEMS: each a_j commutes with each b_k (realized here as a
  tensor product, a_j on one factor and b_k on the other).  |<B>| <= 2*sqrt(2)
  and <B B^dag> <= 8.  For involutions the identity
  B^2 = 4 I - [a1, a2] (x) [b1, b2] pins the square down exactly (the tests
  check it on canonical and random involutory scenarios).
* UNRESTRICTED: no commutation at all.  |<B>| <= 2*sqrt(3) and
  <B B^dag> <= 12.  B is then generally non-Hermitian, so the expectation
  maximum is its numerical radius rather than a spectral radius.

`search_bound` drives a randomized alternating ascent toward the bound of a
chosen regime: each block update (state, a-side, b-side) maximizes the
objective exactly over the full set of Hermitian contractions, whose extreme
points are sign operators of the effective Hermitian matrix.  This makes the
ascent monotone, and restarts from a seeded stream make it reproducible.
Every ascent signs by one rule (`_negative`): an eigenvalue within
dim * eps * scale of 0 (scale bounds the update's inputs) has sign +1.
The commuting ascent signs eigendecompositions (`_sign_operator`); the
unrestricted one signs its rank-two (x psi^dag + psi x^dag) / 2 in closed
form (`_rank_two_sign`) and runs one eigh per iteration, for the state.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError, ParameterError, RegimeError
from .linalg import (
    commutator,
    hermitian_part,
    numerical_radius,
    require_hermitian,
    symmetric_extreme_eigen,
)
from .rng import SearchConfig


class Regime(enum.Enum):
    CLASSICAL = "classical"
    COMMUTING_SUBSYSTEMS = "commuting"
    UNRESTRICTED = "unrestricted"


EXPECTATION_LIMITS = {
    Regime.CLASSICAL: 2.0,
    Regime.COMMUTING_SUBSYSTEMS: 2.0 * np.sqrt(2.0),
    Regime.UNRESTRICTED: 2.0 * np.sqrt(3.0),
}

BB_DAGGER_LIMITS = {
    Regime.CLASSICAL: 4.0,
    Regime.COMMUTING_SUBSYSTEMS: 8.0,
    Regime.UNRESTRICTED: 12.0,
}

MAX_TOTAL_DIM = 16

_NORM_SLACK = 1e-9
_COMMUTATOR_TOL = 1e-10
_ASCENT_TOL = 1e-13  # an ascent stops at a gain no larger than this

_OPERATORS = ("a1", "a2", "b1", "b2")


@dataclass(frozen=True, eq=False)
class BellScenario:
    """Four measurement matrices plus the regime constraining them.

    Each of a1, a2, b1 and b2 must be Hermitian within round-off with
    operator norm at most 1; the scenario stores it symmetrized and
    write-locked, so callers read `scenario.a1` as the matrix itself.
    COMMUTING_SUBSYSTEMS scenarios keep the a-side and b-side operators on
    separate factors (dims may differ); the other regimes put all four on a
    single space of equal dimension.  CLASSICAL additionally checks that all
    six operator pairs commute.
    """

    regime: Regime
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in _OPERATORS:
            label = f"measurement operator {name}"
            arr = require_hermitian(getattr(self, name), name=label)
            ext = symmetric_extreme_eigen(arr)
            norm = max(abs(ext.smallest), abs(ext.largest))
            if norm > 1.0 + _NORM_SLACK:
                raise ParameterError(f"{label} norm {norm:.6f} exceeds 1")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

        if not isinstance(self.regime, Regime):
            raise ParameterError("regime must be a Regime")
        a_dim, b_dim = self.a1.shape[0], self.b1.shape[0]
        if a_dim != self.a2.shape[0] or b_dim != self.b2.shape[0]:
            raise DimensionError("operators within one side must share a dimension")

        if self.regime is not Regime.COMMUTING_SUBSYSTEMS and a_dim != b_dim:
            raise DimensionError(
                "a-side and b-side must act on the same space in this regime"
            )
        _total_dim(self.regime, a_dim, b_dim)

        if self.regime is Regime.CLASSICAL:
            for x, y in itertools.combinations(_OPERATORS, 2):
                commuted = commutator(getattr(self, x), getattr(self, y))
                deviation = float(np.abs(commuted).max())
                if deviation > _COMMUTATOR_TOL:
                    raise RegimeError(
                        f"classical regime requires [{x}, {y}] = 0; "
                        f"max deviation {deviation:.3e}"
                    )


def _total_dim(regime: Regime, a_dim: int, b_dim: int) -> int:
    """Dimension of the space B acts on; DimensionError above MAX_TOTAL_DIM."""
    total = a_dim * b_dim if regime is Regime.COMMUTING_SUBSYSTEMS else a_dim
    if total > MAX_TOTAL_DIM:
        raise DimensionError(f"total dimension {total} exceeds the supported cap {MAX_TOTAL_DIM}")
    return total


def _chsh(t11, t12, t21, t22):
    """The CHSH sign pattern, written only here, over the terms of a1 b1,
    a1 b2, a2 b1 and a2 b2, as operators or as correlations."""
    return t11 + t12 + t21 - t22


def _combination(a1, a2, b1, b2, product):
    """`_chsh` of the four products, by np.matmul for one space, np.kron for
    two factors, elementwise for scalars and commuting diagonals."""
    return _chsh(product(a1, b1), product(a1, b2), product(a2, b1), product(a2, b2))


def bell_operator(scenario: BellScenario) -> np.ndarray:
    """The matrix of B for the scenario, on the total space."""
    product = np.kron if scenario.regime is Regime.COMMUTING_SUBSYSTEMS else np.matmul
    return _combination(scenario.a1, scenario.a2, scenario.b1, scenario.b2, product)


def max_expectation(scenario: BellScenario) -> float:
    """max over unit states of |<psi|B|psi>|.

    Equals the spectral radius when B is Hermitian (always the case for the
    commuting regimes); otherwise the numerical radius.
    """
    return numerical_radius(bell_operator(scenario))


def bb_dagger_expectation(scenario: BellScenario) -> float:
    """max over unit states of <psi|B B^dag|psi> (largest eigenvalue)."""
    b = bell_operator(scenario)
    return float(max(0.0, symmetric_extreme_eigen(b @ b.conj().T).largest))


def classical_bound_bruteforce() -> float:
    """Exhaustive scan of deterministic +/-1 assignments; returns exactly 2."""
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        best = max(best, abs(_combination(*signs, operator.mul)))
    return best


def canonical_chsh_scenario() -> BellScenario:
    """The standard qubit pair saturating 2*sqrt(2): Z, X vs (Z+/-X)/sqrt(2)."""
    return BellScenario(Regime.COMMUTING_SUBSYSTEMS, *_canonical_block_tuple(2))


# ---------------------------------------------------------------------------
# randomized ascent


def haar_unitary(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = generator.standard_normal((dim, dim)) + 1j * generator.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_contraction(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with eigenvalues uniform in [-1, 1]."""
    v = haar_unitary(dim, generator)
    return hermitian_part((v * generator.uniform(-1.0, 1.0, size=dim)) @ v.conj().T)


def _negative(w, dim: int, scale: float):
    """The sign rule of every ascent, for eigenvalues w of a dim x dim matrix
    formed from inputs of norm <= `scale`: w is negative only below
    -dim * eps * scale, its round-off; else it counts as 0, with sign +1.
    The scale is not the spectrum's own, all round-off for a 0 matrix.
    """
    return w < -dim * np.finfo(float).eps * scale


def _sign_operator(matrix: np.ndarray, scale: float) -> np.ndarray:
    """Sign of the Hermitian part of `matrix`, one eigh, `_negative` rule."""
    w, v = np.linalg.eigh(hermitian_part(matrix))
    return hermitian_part((v * np.where(_negative(w, w.size, scale), -1.0, 1.0)) @ v.conj().T)


def _rank_two_sign(psi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sign of H = (x psi^dag + psi x^dag) / 2 for a unit psi, in closed form.

    With alpha = psi^dag x, x_perp = x - alpha psi and beta = ||x_perp||, H
    is [[Re alpha, beta/2], [beta/2, 0]] on span{psi, x_perp / beta} and 0
    off it.  Its one eigenvalue that may be negative is the smaller root lam
    of lam^2 - Re(alpha) lam - beta^2 / 4, with eigenvector
    n = x_perp + 2 lam psi.  The sign is I - 2 n n^dag / ||n||^2 if lam is
    negative by `_negative` with scale ||x||, else I.  Projected twice, x_perp
    keeps its round-off for x = c psi below that tolerance at d <= 2 too.
    """
    alpha = complex(np.vdot(psi, x))
    x_perp = x - alpha * psi
    x_perp -= np.vdot(psi, x_perp) * psi
    beta = math.sqrt(float(np.vdot(x_perp, x_perp).real))
    radius = math.hypot(alpha.real, beta)
    # the same root for Re alpha > 0, without the cancellation of Re alpha - radius
    if alpha.real <= 0.0:
        lam = 0.5 * (alpha.real - radius)
    else:
        lam = -0.5 * beta * beta / (alpha.real + radius)
    sign = np.eye(psi.size, dtype=complex)
    if _negative(lam, psi.size, math.hypot(abs(alpha), beta)):
        n = x_perp + (2.0 * lam) * psi  # ||n||^2 = 4 lam^2 + beta^2
        n *= math.sqrt(2.0 / (4.0 * lam * lam + beta * beta))
        sign -= n[:, None] * n.conj()
    return sign


def _canonical_block_tuple(dim: int) -> Tuple[np.ndarray, ...]:
    """The canonical qubit tuple tiled along the diagonal of a dim space.

    Any 2x2 corner realizes the Tsirelson-point operators, so the tuple is a
    structured starting point whose Bell combination already evaluates to
    2*sqrt(2) for dim >= 2 (a leftover odd diagonal entry contributes a
    harmless classical block of value 2).
    """
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s = 1.0 / np.sqrt(2.0)

    def embed(block: np.ndarray) -> np.ndarray:
        m = np.zeros((dim, dim), dtype=complex)
        k = 0
        while k + 1 < dim:
            m[k : k + 2, k : k + 2] = block
            k += 2
        if k < dim:
            m[k, k] = 1.0
        return m

    return embed(z), embed(x), embed(s * (z + x)), embed(s * (z - x))


def _start_tuple(dim: int, generator: np.random.Generator, warm: bool) -> Tuple[np.ndarray, ...]:
    """The canonical tuple for a warm start, else four random contractions."""
    if warm:
        return _canonical_block_tuple(dim)
    return tuple(random_contraction(dim, generator) for _ in range(4))


def _top_state(matrix: np.ndarray) -> Tuple[np.ndarray, float]:
    w, v = np.linalg.eigh(hermitian_part(matrix))
    return v[:, -1], float(w[-1])


def _ascend_classical(
    dim: int, generator: np.random.Generator, max_iterations: int, warm: bool = False
):
    # commuting observables are simultaneously diagonalizable, so work with
    # the diagonals directly; each update is an exact per-entry sign choice.
    # Any start reaches the optimum 2 in one pass, so the warm start's
    # all-ones b diagonals only spare the draws
    if warm:
        b1 = np.ones(dim)
        b2 = np.ones(dim)
    else:
        b1 = generator.uniform(-1.0, 1.0, size=dim)
        b2 = generator.uniform(-1.0, 1.0, size=dim)
    a1 = np.ones(dim)
    a2 = np.ones(dim)
    value = 0.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        a1 = np.where(_negative(b1 + b2, dim, 2.0), -1.0, 1.0)
        a2 = np.where(_negative(b1 - b2, dim, 2.0), -1.0, 1.0)
        b1 = np.where(_negative(a1 + a2, dim, 2.0), -1.0, 1.0)
        b2 = np.where(_negative(a1 - a2, dim, 2.0), -1.0, 1.0)
        # entries are +/-1, so every sum is exact
        per_index = _combination(a1, a2, b1, b2, np.multiply)
        new_value = float(per_index.max())
        if new_value <= value + _ASCENT_TOL:
            value = max(value, new_value)
            break
        value = new_value
    k = int(np.argmax(per_index))
    state = np.zeros(dim, dtype=complex)
    state[k] = 1.0
    ops = tuple(np.diag(vec).astype(complex) for vec in (a1, a2, b1, b2))
    return value, ops, state, iterations


def _ascend_commuting(
    dim: int, generator: np.random.Generator, max_iterations: int, warm: bool = False
):
    a1, a2, b1, b2 = _start_tuple(dim, generator, warm)
    value = -np.inf
    psi = None
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        psi, new_value = _top_state(_combination(a1, a2, b1, b2, np.kron))
        if new_value <= value + _ASCENT_TOL:
            value = max(value, new_value)
            break
        value = new_value
        # ||m||_2 <= ||m||_F = 1 and ||a1 +/- a2||, ||b1 +/- b2|| <= 2
        m = psi.reshape(dim, dim)
        a1 = _sign_operator(m @ (b1 + b2).T @ m.conj().T, 2.0)
        a2 = _sign_operator(m @ (b1 - b2).T @ m.conj().T, 2.0)
        b1 = _sign_operator(m.T @ (a1 + a2).T @ m.conj(), 2.0)
        b2 = _sign_operator(m.T @ (a1 - a2).T @ m.conj(), 2.0)
    return value, (a1, a2, b1, b2), psi, iterations


def _ascend_unrestricted(
    dim: int, generator: np.random.Generator, max_iterations: int, warm: bool = False
):
    a1, a2, b1, b2 = _start_tuple(dim, generator, warm)
    bell = _combination(a1, a2, b1, b2, np.matmul)
    if warm:
        psi, _ = _top_state(bell)
    else:
        gauss = generator.standard_normal(dim) + 1j * generator.standard_normal(dim)
        psi = gauss / np.linalg.norm(gauss)
    value = -np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        expectation = complex(np.vdot(psi, bell @ psi))
        new_value = abs(expectation)
        if new_value <= value + _ASCENT_TOL:
            value = max(value, new_value)
            break
        value = new_value
        # e^{-i arg <B>}, which makes phase <B> real and positive
        phase = expectation.conjugate() / new_value if new_value > 0.0 else 1.0
        # phase <B> = tr(a1 x1 psi^dag) + tr(a2 x2 psi^dag) with
        # x_j = phase (b1 +/- b2) psi, so a_j = sign(x_j psi^dag + h.c.), and
        # likewise b_k with x_k = conj(phase) (a1 +/- a2) psi
        phased = phase * psi
        a1 = _rank_two_sign(psi, (b1 + b2) @ phased)
        a2 = _rank_two_sign(psi, (b1 - b2) @ phased)
        a_sum, a_diff = a1 + a2, a1 - a2
        phased = phase.conjugate() * psi
        b1 = _rank_two_sign(psi, a_sum @ phased)
        b2 = _rank_two_sign(psi, a_diff @ phased)
        bell = a_sum @ b1 + a_diff @ b2  # _combination, with two products
        psi, _ = _top_state(phase * bell)
    return value, (a1, a2, b1, b2), psi, iterations


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Outcome of one randomized bound search."""

    regime: Regime
    dim: int
    restarts: int
    best_restart: int
    iterations: int
    best_expectation: float
    best_bb_dagger: float
    theoretical_limit_expectation: float
    theoretical_limit_bb: float
    witness: BellScenario
    witness_state: np.ndarray

    @property
    def certified_expectation(self) -> float:
        """An upper bound on |<B>| for the witness, from its operators alone.

        CLASSICAL: the +/-1 brute force.  Otherwise B factors as
        [a1 a2] [b1+b2; b1-b2] (on the factors in the commuting regime), so
        |<B>| <= ||[a1 a2]||_2 ||[b1+b2; b1-b2]||_2.  For contractions the
        two norms are at most sqrt(2) and 2, so no scenario in any regime
        exceeds 2*sqrt(2) (Cirel'son, Lett. Math. Phys. 4, 93 (1980)): a
        search that attains 2*sqrt(2) has found the true maximum, and the
        paper's 2*sqrt(3) is loose.
        """
        if self.regime is Regime.CLASSICAL:
            return classical_bound_bruteforce()
        w = self.witness
        a = np.hstack([w.a1, w.a2])
        b = np.vstack([w.b1 + w.b2, w.b1 - w.b2])
        return float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))


def search_bound(
    regime: Regime, dim: int, config: Optional[SearchConfig] = None
) -> BoundReport:
    """Randomized multi-restart ascent toward the regime's expectation limit.

    `dim` is the per-subsystem dimension for COMMUTING_SUBSYSTEMS (total
    space dim^2) and the full space dimension otherwise.  Restart 0 starts
    from the structured canonical tuple (so the known-feasible 2*sqrt(2)
    point is never missed for dim >= 2); the remaining restarts explore from
    random contractions.  The report's best_expectation and best_bb_dagger
    are recomputed from the witness scenario (numerical radius and
    largest eigenvalue of B B^dag), not taken from ascent internals.
    """
    config = config or SearchConfig()
    if not isinstance(regime, Regime):
        raise ParameterError("regime must be a Regime")
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DimensionError("dim must be a positive integer")
    dim = int(dim)
    _total_dim(regime, dim, dim)  # fail before the ascents, not in the witness

    ascents = {
        Regime.CLASSICAL: _ascend_classical,
        Regime.COMMUTING_SUBSYSTEMS: _ascend_commuting,
        Regime.UNRESTRICTED: _ascend_unrestricted,
    }
    ascend = ascents[regime]

    best = None
    for restart in range(config.restarts):
        generator = config.rng.substream(restart).generator()
        value, ops, state, iterations = ascend(
            dim, generator, config.max_iterations, warm=(restart == 0)
        )
        if best is None or value > best[0]:
            best = (value, ops, state, restart, iterations)

    _, ops, state, best_restart, iterations = best
    witness = BellScenario(regime, *ops)
    return BoundReport(
        regime=regime,
        dim=dim,
        restarts=config.restarts,
        best_restart=best_restart,
        iterations=iterations,
        best_expectation=max_expectation(witness),
        best_bb_dagger=bb_dagger_expectation(witness),
        theoretical_limit_expectation=EXPECTATION_LIMITS[regime],
        theoretical_limit_bb=BB_DAGGER_LIMITS[regime],
        witness=witness,
        witness_state=np.asarray(state),
    )
