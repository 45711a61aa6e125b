"""The square identity B^2 = 4 I - [a1, a2] (x) [b1, b2], kept as a test oracle.

For a commuting-subsystems scenario whose four operators are involutions
(op^2 = I), the square of the Bell operator is fixed by the two one-side
commutators alone.  `square_identity_deviation` asserts both preconditions
and returns how far B^2 is from the identity's right-hand side;
`random_involutory_scenario` draws the random scenarios it is checked on.
"""

import numpy as np

from bellhv.bell import BellScenario, Regime, bell_operator, haar_unitary
from bellhv.linalg import commutator, hermitian_part


def random_involution(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Random Hermitian involution: Haar frame with +/-1 eigenvalues."""
    v = haar_unitary(dim, generator)
    signs = np.where(generator.uniform(size=dim) < 0.5, -1.0, 1.0)
    return hermitian_part((v * signs) @ v.conj().T)


def random_involutory_scenario(dim_a: int, dim_b: int, stream) -> BellScenario:
    """Commuting-subsystems scenario of four random involutions from one stream."""
    gen = stream.generator()
    ops = [random_involution(dim, gen) for dim in (dim_a, dim_a, dim_b, dim_b)]
    return BellScenario(Regime.COMMUTING_SUBSYSTEMS, *ops)


def square_identity_deviation(scenario: BellScenario) -> float:
    """max |B^2 - (4 I - [a1, a2] (x) [b1, b2])| for an involutory scenario."""
    assert scenario.regime is Regime.COMMUTING_SUBSYSTEMS
    for name in ("a1", "a2", "b1", "b2"):
        op = getattr(scenario, name)
        deviation = float(np.abs(op @ op - np.eye(op.shape[0])).max())
        assert deviation <= 1e-12, f"{name} is not an involution (|{name}^2 - I| = {deviation:.3e})"
    b = bell_operator(scenario)
    comm_a = commutator(scenario.a1, scenario.a2)
    comm_b = commutator(scenario.b1, scenario.b2)
    target = 4.0 * np.eye(b.shape[0]) - np.kron(comm_a, comm_b)
    return float(np.abs(b @ b - target).max())
