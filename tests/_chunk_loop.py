"""Serial chunk loop, kept as an oracle for the threaded `run_pairs`.

This is `bellhv.montecarlo.run_pairs` as it was before its chunks went to a
thread pool: one chunk after another in the calling thread, each arm
evaluated over the whole chunk through the validating
`TransmissionModel.probabilities_wrapped`.  It shares no chunk function,
fold or tally with the library, and the library must match it exactly.
"""

import numpy as np

from bellhv.angles import HALF_WINDOW
from bellhv.montecarlo import CHUNK_PAIRS, CoincidenceCounts


def run_pairs(config):
    n11 = n10 = n01 = n00 = 0
    produced = 0
    chunk_index = 0
    while produced < config.n_pairs:
        count = min(CHUNK_PAIRS, config.n_pairs - produced)
        generator = config.rng.substream(chunk_index).generator()
        lam = generator.uniform(-HALF_WINDOW, HALF_WINDOW, size=count)
        u_a = generator.uniform(size=count)
        u_b = generator.uniform(size=count)
        passed_a = u_a < config.model.probabilities_wrapped(lam - config.angle_a)
        passed_b = u_b < config.model.probabilities_wrapped(lam - config.angle_b)
        n11 += int(np.count_nonzero(passed_a & passed_b))
        n10 += int(np.count_nonzero(passed_a & ~passed_b))
        n01 += int(np.count_nonzero(~passed_a & passed_b))
        produced += count
        chunk_index += 1
    n00 = config.n_pairs - n11 - n10 - n01
    return CoincidenceCounts(
        n11=n11,
        n10=n10,
        n01=n01,
        n00=n00,
        n_pairs=config.n_pairs,
    )
