"""Self-stabilizing Source Filter (SSF) — Algorithm 2, agent level.

Messages are two bits, encoded as the integer ``2*first + second``:

* sources always display ``(1, preference)`` — symbols 2 or 3;
* non-sources display ``(0, weak_opinion)`` — symbols 0 or 1.

Every agent buffers all received messages; once its buffer reaches ``m``
messages it recomputes

* its *weak opinion* — the majority of second bits among messages whose
  first bit is 1 (i.e. messages *tagged* as coming from a source, whether
  genuinely or through noise), and
* its *opinion* — the majority of second bits among *all* buffered
  messages,

breaking ties with fair coins, and empties the buffer.  No agent needs a
clock, an identifier, or the round number, which is what makes the
protocol self-stabilizing: the adversary may pre-load buffers and corrupt
every opinion, but after one flush each buffer holds only genuine samples.

Only the per-symbol *tallies* of the buffer are behaviourally relevant, so
the implementation stores an ``(n, 4)`` count matrix instead of literal
multisets.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ProtocolError
from ..model.engine import PullProtocol
from ..model.population import Population
from ..types import RngLike, coerce_rng
from .parameters import SSFSchedule

#: SSF symbol helpers.
SYMBOL_NONSOURCE_0 = 0  # (0, 0)
SYMBOL_NONSOURCE_1 = 1  # (0, 1)
SYMBOL_SOURCE_0 = 2  # (1, 0)
SYMBOL_SOURCE_1 = 3  # (1, 1)


def majority_with_ties(
    votes_for_one: np.ndarray,
    votes_for_zero: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-agent majority of 1-votes vs 0-votes, fair coin on ties."""
    out = (votes_for_one > votes_for_zero).astype(np.int8)
    ties = votes_for_one == votes_for_zero
    if ties.any():
        out[ties] = rng.integers(0, 2, size=int(ties.sum())).astype(np.int8)
    return out


class SelfStabilizingSourceFilterProtocol(PullProtocol):
    """Agent-level SSF, runnable on :class:`~repro.model.engine.PullEngine`.

    Implements the duck-typed self-stabilizing contract used by
    :mod:`repro.model.adversary`: ``memory_capacity`` and
    ``install_state``.
    """

    alphabet_size = 4

    def __init__(self, schedule: SSFSchedule) -> None:
        self.schedule = schedule
        self._population: Population = None
        self._rng: np.random.Generator = None
        self._memory: np.ndarray = None  # (n, 4) symbol tallies
        self._fill: np.ndarray = None  # (n,) buffered message counts
        self._weak: np.ndarray = None
        self._opinions: np.ndarray = None

    # ------------------------------------------------------------------
    @property
    def memory_capacity(self) -> int:
        """The buffer size parameter ``m``."""
        return self.schedule.m

    def reset(self, population: Population, rng: RngLike = None) -> None:
        if population.h != self.schedule.h:
            raise ProtocolError(
                f"schedule was built for h={self.schedule.h}, population has "
                f"h={population.h}"
            )
        self._population = population
        self._rng = coerce_rng(rng)
        n = population.n
        self._memory = np.zeros((n, 4), dtype=np.int64)
        self._fill = np.zeros(n, dtype=np.int64)
        # Clean start: sources begin on their preference, others on coins.
        opinions = self._rng.integers(0, 2, size=n).astype(np.int8)
        mask = population.is_source
        opinions[mask] = population.preferences[mask]
        self._opinions = opinions
        self._weak = opinions.copy()

    def install_state(
        self,
        opinions: np.ndarray,
        weak_opinions: np.ndarray,
        memory_counts: np.ndarray,
    ) -> None:
        """Adversarially overwrite the corruptible state (Section 1.3).

        Must be called after :meth:`reset`.
        """
        self._require_reset()
        n = self._population.n
        opinions = np.asarray(opinions, dtype=np.int8)
        weak = np.asarray(weak_opinions, dtype=np.int8)
        memory = np.asarray(memory_counts, dtype=np.int64)
        if opinions.shape != (n,) or weak.shape != (n,) or memory.shape != (n, 4):
            raise ProtocolError("adversarial state has wrong shape")
        if memory.min() < 0 or memory.sum(axis=1).max() > self.memory_capacity:
            raise ProtocolError(
                "adversarial memories must hold between 0 and m messages"
            )
        self._opinions = opinions.copy()
        self._weak = weak.copy()
        self._memory = memory.copy()
        self._fill = memory.sum(axis=1)

    def _require_reset(self) -> None:
        if self._population is None:
            raise ProtocolError("protocol must be reset before use")

    def reset_agents(self, indices: np.ndarray, rng: RngLike = None) -> None:
        """Reinitialize a subset of agents (churn support, see PullEngine).

        Replaced agents arrive with empty buffers and coin-flip opinions
        (sources re-enter on their preference — role knowledge is not
        corruptible).
        """
        self._require_reset()
        generator = coerce_rng(rng) if rng is not None else self._rng
        indices = np.asarray(indices)
        if indices.size == 0:
            return
        self._memory[indices] = 0
        self._fill[indices] = 0
        fresh = generator.integers(0, 2, size=indices.size).astype(np.int8)
        pop = self._population
        src = pop.is_source[indices]
        fresh[src] = pop.preferences[indices][src]
        self._opinions[indices] = fresh
        self._weak[indices] = fresh.copy()

    # ------------------------------------------------------------------
    def displays(self, round_index: int) -> np.ndarray:
        self._require_reset()
        pop = self._population
        out = self._weak.astype(np.int64)  # non-sources: (0, weak)
        mask = pop.is_source
        out[mask] = 2 + pop.preferences[mask]  # sources: (1, preference)
        return out

    def receive(self, round_index: int, observations: np.ndarray) -> None:
        self._require_reset()
        obs = np.asarray(observations)
        for sigma in range(4):
            self._memory[:, sigma] += (obs == sigma).sum(axis=1)
        self._fill += obs.shape[1]
        self._apply_updates()

    def _apply_updates(self) -> None:
        due = self._fill >= self.memory_capacity
        if not due.any():
            return
        mem = self._memory[due]
        rng = self._rng
        # Weak opinion: second bits of source-tagged messages (symbols 2, 3).
        new_weak = majority_with_ties(
            mem[:, SYMBOL_SOURCE_1], mem[:, SYMBOL_SOURCE_0], rng
        )
        # Opinion: second bits of all messages.
        ones = mem[:, SYMBOL_NONSOURCE_1] + mem[:, SYMBOL_SOURCE_1]
        zeros = mem[:, SYMBOL_NONSOURCE_0] + mem[:, SYMBOL_SOURCE_0]
        new_opinion = majority_with_ties(ones, zeros, rng)
        self._weak[due] = new_weak
        self._opinions[due] = new_opinion
        self._memory[due] = 0
        self._fill[due] = 0

    # ------------------------------------------------------------------
    def opinions(self) -> np.ndarray:
        self._require_reset()
        return self._opinions

    @property
    def weak_opinions(self) -> np.ndarray:
        """Current weak-opinion vector."""
        return self._weak

    @property
    def memory_fill(self) -> np.ndarray:
        """Current buffered-message counts (one per agent)."""
        return self._fill
