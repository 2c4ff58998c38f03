"""Source Filter (SF) — Algorithm 1 of the paper, agent level.

Three stages:

* **Phase 0** (``ceil(m/h)`` rounds): sources display their preference,
  non-sources display 0; everyone counts observed 1s (``Counter1``).
* **Phase 1** (same duration): non-sources display 1; everyone counts
  observed 0s (``Counter0``).
* **Weak opinion**: ``1{Counter1 > Counter0}``, ties broken by a fair
  coin.  The 0s of Phase 0 and the 1s of Phase 1 are ignored.
* **Majority Boosting**: ``10*log n`` sub-phases of at least
  ``w = 100/(1-2*delta)^2`` observations each, plus one final sub-phase of
  at least ``m`` observations; at each sub-phase end every agent adopts
  the majority of the messages it gathered during the sub-phase (coin on
  ties).  Everyone — sources included — displays its current opinion.

The protocol assumes simultaneous wake-up: all agents share the round
counter, which is exactly what the engine provides.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ProtocolError
from ..model.engine import PullProtocol
from ..model.population import Population
from ..types import RngLike, coerce_rng
from .parameters import SFSchedule


class SourceFilterProtocol(PullProtocol):
    """Agent-level SF, runnable on :class:`~repro.model.engine.PullEngine`.

    Parameters
    ----------
    schedule:
        The resolved round plan (see :class:`SFSchedule`).
    """

    alphabet_size = 2

    def __init__(self, schedule: SFSchedule) -> None:
        self.schedule = schedule
        self._population: Population = None
        self._rng: np.random.Generator = None
        self._counter0: np.ndarray = None
        self._counter1: np.ndarray = None
        self._opinions: np.ndarray = None
        self._weak_opinions: np.ndarray = None
        self._boost_counts_1: np.ndarray = None
        self._boost_total: int = 0
        self._listening_displays: dict = None

    # ------------------------------------------------------------------
    def reset(self, population: Population, rng: RngLike = None) -> None:
        if population.h != self.schedule.h:
            raise ProtocolError(
                f"schedule was built for h={self.schedule.h}, population has "
                f"h={population.h}"
            )
        self._population = population
        self._rng = coerce_rng(rng)
        n = population.n
        self._counter0 = np.zeros(n, dtype=np.int64)
        self._counter1 = np.zeros(n, dtype=np.int64)
        self._opinions = population.initial_opinions(self._rng)
        self._weak_opinions = None
        self._boost_counts_1 = np.zeros(n, dtype=np.int64)
        self._boost_total = 0
        # Phase 0 and Phase 1 displays never change within a run: sources
        # show their preference, everyone else 0 (Phase 0) or 1 (Phase 1).
        mask = population.is_source
        self._listening_displays = {}
        for stage, filler in (("phase0", 0), ("phase1", 1)):
            out = np.full(n, filler, dtype=np.int64)
            out[mask] = population.preferences[mask]
            out.flags.writeable = False
            self._listening_displays[stage] = out

    def _require_reset(self) -> None:
        if self._population is None:
            raise ProtocolError("protocol must be reset before use")

    # ------------------------------------------------------------------
    def displays(self, round_index: int) -> np.ndarray:
        """This round's displays.  The result is read-only in the listening
        phases and the live opinion vector in boosting: do not write to it."""
        self._require_reset()
        stage = self.schedule.phase_of(round_index)
        if stage == "boosting":
            return self._opinions
        if stage == "done":
            raise ProtocolError(f"round {round_index} is past the SF horizon")
        return self._listening_displays[stage]

    def receive(self, round_index: int, observations: np.ndarray) -> None:
        self._require_reset()
        schedule = self.schedule
        index = schedule.stage_at(round_index)
        if index == len(schedule.stages()):
            raise ProtocolError(f"round {round_index} is past the SF horizon")
        kind = schedule.stages()[index].kind
        stage_ends = round_index == schedule.stage_ends()[index] - 1
        obs = np.asarray(observations)
        if kind == "phase0":
            self._counter1 += (obs == 1).sum(axis=1)
        elif kind == "phase1":
            self._counter0 += (obs == 0).sum(axis=1)
            if stage_ends:
                self._commit_weak_opinions()
        else:
            self._boost_counts_1 += (obs == 1).sum(axis=1)
            self._boost_total += obs.shape[1]
            if stage_ends:
                self._end_subphase()

    def _commit_weak_opinions(self) -> None:
        """End of Phase 1: Y_hat = 1{Counter1 > Counter0}, coin on ties."""
        ties = self._counter1 == self._counter0
        weak = (self._counter1 > self._counter0).astype(np.int8)
        if ties.any():
            weak[ties] = self._rng.integers(0, 2, size=int(ties.sum())).astype(np.int8)
        self._weak_opinions = weak
        self._opinions = weak.copy()

    def _end_subphase(self) -> None:
        """End of a boosting stage: adopt the majority, coin on ties."""
        total = self._boost_total
        count1 = self._boost_counts_1
        new = np.where(2 * count1 > total, 1, 0).astype(np.int8)
        ties = 2 * count1 == total
        if ties.any():
            new[ties] = self._rng.integers(0, 2, size=int(ties.sum())).astype(np.int8)
        self._opinions = new
        self._boost_counts_1[:] = 0
        self._boost_total = 0

    # ------------------------------------------------------------------
    def opinions(self) -> np.ndarray:
        self._require_reset()
        return self._opinions

    @property
    def weak_opinions(self) -> np.ndarray:
        """Weak opinions committed at the end of Phase 1 (``None`` before)."""
        return self._weak_opinions

    def finished(self, round_index: int) -> bool:
        return round_index >= self.schedule.total_rounds
