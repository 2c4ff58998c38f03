"""SSF under asynchronous activation (extension).

Algorithm 2 never uses the round counter — each agent's buffer is its
own clock — so SSF transfers verbatim to the random-sequential model:
when an agent is activated it samples ``h`` agents, banks the noisy
messages, and flushes/updates once the buffer reaches ``m``.  The only
semantic difference is *throughput*: an agent is activated once per
``n`` steps in expectation, so wall-clock convergence is measured in
activations/n (parallel-round equivalents).

This demonstrates the robustness claim behind the self-stabilizing
design: not only arbitrary initial states, but also the removal of the
synchronous scheduler itself.
"""

from __future__ import annotations

import numpy as np

from ..model.async_engine import AsyncPullProtocol
from .ssf import (
    SYMBOL_NONSOURCE_1,
    SYMBOL_SOURCE_0,
    SYMBOL_SOURCE_1,
    SelfStabilizingSourceFilterProtocol,
    majority_with_ties,
)


class AsyncSelfStabilizingSourceFilter(
    SelfStabilizingSourceFilterProtocol, AsyncPullProtocol
):
    """Algorithm 2 on the asynchronous engine.

    The per-agent state, ``reset``, ``install_state`` and the read-outs
    are the synchronous protocol's; only how one agent displays and
    wakes differs.
    """

    def display_of(self, agent: int) -> int:
        pop = self._population
        if pop.is_source[agent]:
            return 2 + int(pop.preferences[agent])
        return int(self._weak[agent])

    def activate(self, agent: int, observations: np.ndarray) -> None:
        counts = np.bincount(observations, minlength=4)
        self._memory[agent] += counts
        self._fill[agent] += observations.shape[0]
        if self._fill[agent] < self.memory_capacity:
            return
        mem = self._memory[agent]
        rng = self._rng
        new_weak = majority_with_ties(
            np.array([mem[SYMBOL_SOURCE_1]]),
            np.array([mem[SYMBOL_SOURCE_0]]),
            rng,
        )[0]
        ones = mem[SYMBOL_NONSOURCE_1] + mem[SYMBOL_SOURCE_1]
        zeros = mem[0] + mem[SYMBOL_SOURCE_0]
        new_opinion = majority_with_ties(
            np.array([ones]), np.array([zeros]), rng
        )[0]
        self._weak[agent] = new_weak
        self._opinions[agent] = new_opinion
        self._memory[agent] = 0
        self._fill[agent] = 0
