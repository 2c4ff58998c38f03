"""Noisy h-majority dynamics with zealot sources.

Every round each non-zealot takes the majority of its ``h`` noisy samples
(fair coin on ties); zealots display and keep their preference.  For
large ``h`` this is a strong heuristic — but without SF's neutral
listening phases its drift towards the *sources* is swamped whenever the
current population majority disagrees with them, so from a bad start (or
with tiny bias) it converges to whichever opinion the noise-tilted
majority favours, not reliably to the sources' plurality.  The benchmark
comparison (E9) quantifies this.
"""

from __future__ import annotations

import numpy as np

from .base import ZealotDynamics


class NoisyMajorityDynamics(ZealotDynamics):
    """Repeated majority-of-h-samples under uniform binary PULL noise."""

    def _step(self, free: np.ndarray, generator: np.random.Generator) -> np.ndarray:
        h = self.config.h
        counts = generator.binomial(h, self._observe_one(free), size=free.size)
        free = np.where(2 * counts > h, 1, 0).astype(np.int8)
        ties = 2 * counts == h
        if ties.any():
            free[ties] = generator.integers(0, 2, size=int(ties.sum())).astype(
                np.int8
            )
        return free
