"""Undecided-state dynamics (USD) with zealots under noise.

The three-state consensus dynamics studied in population protocols
[33, 35]: agents are in state 0, 1 or *undecided*.  On observing an
opinionated sample with the opposite opinion an agent becomes undecided;
an undecided agent adopts the first opinionated sample it sees.  Zealot
sources always display (and keep) their preference.

Messages live on a 3-letter alphabet {0, 1, undecided} corrupted by a
``delta``-uniform channel.  USD amplifies an existing majority extremely
fast but — like the voter model — extracts the *sources'* signal only at
an O(s/n)-per-round drift, so it does not beat the Omega(n) barrier
either; with noise it additionally stalls at a noisy-equilibrium mix.
"""

from __future__ import annotations

import numpy as np

from ..noise import uniform_observation
from .base import ZealotDynamics

#: Third symbol: the undecided tag.
UNDECIDED = 2


class UndecidedStateDynamics(ZealotDynamics):
    """USD with zealots over a noisy 3-letter PULL channel (one sample/round)."""

    max_delta = 1.0 / 3.0
    max_delta_label = "1/3"

    def _step(self, free: np.ndarray, generator: np.random.Generator) -> np.ndarray:
        cfg = self.config
        counts = np.array(
            [
                cfg.s0 + int(np.sum(free == 0)),
                cfg.s1 + int(np.sum(free == 1)),
                int(np.sum(free == UNDECIDED)),
            ],
            dtype=float,
        )
        q = uniform_observation(counts / cfg.n, self.delta, 3)
        observed = generator.choice(3, size=free.size, p=q / q.sum())
        new = free.copy()
        # Opinionated agent seeing the opposite opinion -> undecided.
        opinionated = free != UNDECIDED
        clash = opinionated & (observed != UNDECIDED) & (observed != free)
        new[clash] = UNDECIDED
        # Undecided agent seeing an opinion -> adopt it.
        adopt = (free == UNDECIDED) & (observed != UNDECIDED)
        new[adopt] = observed[adopt].astype(np.int8)
        return new
