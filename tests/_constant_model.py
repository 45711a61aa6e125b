"""A flat transmission profile, for tests with closed-form answers.

p1 identically equal to `value` makes pair transmission and coincidence
rates simple products, and value 1 models a perfect open channel.
"""

from dataclasses import dataclass

import numpy as np

from bellhv.errors import ParameterError
from bellhv.transmission import TransmissionModel


@dataclass(frozen=True)
class ConstantModel(TransmissionModel):
    """p1 identically equal to `value`; value 1 models a perfect open channel."""

    value: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.value) and 0.0 <= self.value <= 1.0):
            raise ParameterError("value must lie in [0, 1]")

    def _profile(self, folded: np.ndarray) -> np.ndarray:
        return np.full_like(folded, self.value)
