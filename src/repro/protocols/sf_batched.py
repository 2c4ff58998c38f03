"""Replica-batched Source Filter for :class:`~repro.model.BatchedPullEngine`.

The same Algorithm 1 as :class:`~repro.protocols.sf.SourceFilterProtocol`
with a leading replica axis on every state array, written against the
engine's per-stage contract.  SF changes an opinion only at the end of
Phase 1 and at the end of each boosting sub-phase, so its stages are
:meth:`SFSchedule.stages`: Phase 0, Phase 1, each short boosting
sub-phase and the final sub-phase.  Replica-local coin flips (initial
opinions, tie-breaking) are drawn from each replica's own generator in
the same order as the serial protocol, which is what makes a
``rng_mode="spawn"`` batched run bit-identical to serial runs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..model.batched_engine import BatchedPullProtocol
from ..model.population import Population
from .parameters import SFSchedule


class BatchedSourceFilter(BatchedPullProtocol):
    """R-replica agent-level SF (Algorithm 1), state shape ``(R, n)``."""

    alphabet_size = 2

    def __init__(self, schedule: SFSchedule) -> None:
        self.schedule = schedule
        self._population: Population = None
        self._rngs: List[np.random.Generator] = None
        self._counter1: np.ndarray = None
        self._opinions: np.ndarray = None
        self._weak_opinions: np.ndarray = None

    # ------------------------------------------------------------------
    def reset(
        self, population: Population, rngs: Sequence[np.random.Generator]
    ) -> None:
        if population.h != self.schedule.h:
            raise ProtocolError(
                f"schedule was built for h={self.schedule.h}, population has "
                f"h={population.h}"
            )
        self._population = population
        self._rngs = list(rngs)
        num_replicas, n = len(self._rngs), population.n
        self._counter1 = np.zeros((num_replicas, n), dtype=np.int64)
        opinions = np.empty((num_replicas, n), dtype=np.int8)
        for r, generator in enumerate(self._rngs):
            opinions[r] = population.initial_opinions(generator)
        self._opinions = opinions
        self._weak_opinions = None

    def _require_reset(self) -> None:
        if self._population is None:
            raise ProtocolError("protocol must be reset before use")

    # ------------------------------------------------------------------
    def stage_ends(self) -> Sequence[int]:
        return self.schedule.stage_ends()

    def stage_displays(self, stage: int) -> np.ndarray:
        self._require_reset()
        if stage >= 2:
            return self._opinions
        pop = self._population
        # Phase 0 non-sources display 0, Phase 1 non-sources display 1.
        base = np.full(pop.n, stage, dtype=np.int8)
        mask = pop.is_source
        base[mask] = pop.preferences[mask]
        # Listening-phase displays do not depend on replica state: hand
        # the engine a read-only broadcast view instead of R copies.
        return np.broadcast_to(base, (len(self._rngs), pop.n))

    def end_stage(self, stage: int, ones: np.ndarray, replicas: np.ndarray) -> None:
        """Phase 0 stores Counter1; Phase 1 commits the weak opinions
        ``1{Counter1 > Counter0}``; each boosting sub-phase adopts the
        majority of its observations.  Coins break ties."""
        self._require_reset()
        samples = self.schedule.stages()[stage].rounds * self.schedule.h
        if stage == 0:
            self._counter1[replicas] = ones
            return
        if stage == 1:
            counter1, counter0 = self._counter1[replicas], samples - ones
        else:
            counter1, counter0 = ones, samples - ones
        new = (counter1 > counter0).astype(np.int8)
        # Per-replica streams, one integers(0, 2, ties) call per replica
        # with ties: the serial protocol's draw order.
        for i, r in enumerate(replicas):
            ties = counter1[i] == counter0[i]
            if ties.any():
                new[i, ties] = self._rngs[r].integers(0, 2, size=int(ties.sum()))
        if stage == 1:
            if self._weak_opinions is None:
                self._weak_opinions = np.zeros_like(self._opinions)
            self._weak_opinions[replicas] = new
        self._opinions[replicas] = new

    # ------------------------------------------------------------------
    def opinions(self) -> np.ndarray:
        self._require_reset()
        return self._opinions

    @property
    def weak_opinions(self) -> np.ndarray:
        """Weak opinions committed at the end of Phase 1 (``None`` before)."""
        return self._weak_opinions
