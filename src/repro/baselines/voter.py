"""The noisy voter model with zealot sources.

The comparator used in [12] for crazy-ant cooperative transport: every
round, each non-zealot adopts the (noisy) opinion of one uniformly
sampled agent; zealots (the sources) display and keep their preference
forever.  With noise, the dynamics is a biased random walk whose drift
towards the majority zealots is O(s/n) per round — convergence takes
Omega(n) rounds even for h = n, which is exactly the slow behaviour the
paper's protocols beat.

Vectorized exactness: given ``k`` agents currently displaying 1, each
non-zealot independently adopts 1 with probability
``q = delta + (k/n)(1-2*delta)``.
"""

from __future__ import annotations

import numpy as np

from .base import ZealotDynamics


class NoisyVoterModel(ZealotDynamics):
    """Voter dynamics with zealots under uniform binary PULL noise.

    ``h`` is accepted for interface parity but the voter rule uses a
    single sampled opinion per round (the classical model); pass the
    population's ``h`` through :class:`NoisyMajorityDynamics` to use all
    samples.
    """

    def _step(self, free: np.ndarray, generator: np.random.Generator) -> np.ndarray:
        q = self._observe_one(free)
        return (generator.random(free.size) < q).astype(np.int8)
