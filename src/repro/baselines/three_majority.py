"""The 3-majority dynamics with zealots under noise.

A classic of the consensus-dynamics literature (see the survey [47]):
every round each agent samples **three** agents and adopts the majority
opinion among them.  It converges to an existing majority in
O(log n) rounds in the noiseless complete model — but like every blind
amplifier it converges to whatever the *initial* majority is, and under
observation noise its drift towards the few sources is again O(s/n) per
round.  Included for the E9-style comparisons; also exercises the
``h = 3`` corner of the model.

Vectorized exactness: each agent's three noisy samples are i.i.d.
Bernoulli(q) with ``q = delta + (k/n)(1-2delta)``; majority-of-3 adopts
1 with probability ``q^3 + 3 q^2 (1-q)``.
"""

from __future__ import annotations

import numpy as np

from .base import ZealotDynamics


class ThreeMajorityDynamics(ZealotDynamics):
    """Majority-of-3-samples dynamics with zealot sources."""

    def _step(self, free: np.ndarray, generator: np.random.Generator) -> np.ndarray:
        q = self._observe_one(free)
        p_adopt_one = q**3 + 3.0 * q * q * (1.0 - q)
        return (generator.random(free.size) < p_adopt_one).astype(np.int8)
