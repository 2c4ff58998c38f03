"""Observers: per-round metric collectors, usable as telemetry sinks.

They are :class:`~repro.telemetry.TelemetrySink` implementations: pass
them to an engine as ``telemetry=Telemetry([tracker])`` and they consume
the per-round ``round`` events via :meth:`handle`.  The
``observe(round_index, opinions)`` entry point may also be called
directly.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..telemetry import TelemetryEvent, TelemetrySink
from ..types import Opinion


class ConsensusTracker(TelemetrySink):
    """Tracks when the population first reaches (and holds) consensus.

    ``observe`` must be called once per round with the post-update opinion
    vector.  ``hitting_round`` is the first round at which all agents held
    ``target``; ``stable_round`` is the start of the final unbroken streak
    of all-correct rounds (i.e. consensus that lasted to the end).
    """

    def __init__(self, target: Opinion) -> None:
        self.target = target
        self.hitting_round: Optional[int] = None
        self._streak_start: Optional[int] = None
        self.rounds_seen = 0

    def observe(self, round_index: int, opinions: np.ndarray) -> None:
        """Record one round's opinions."""
        self.rounds_seen += 1
        if bool(np.all(np.asarray(opinions) == self.target)):
            if self.hitting_round is None:
                self.hitting_round = round_index
            if self._streak_start is None:
                self._streak_start = round_index
        else:
            self._streak_start = None

    @property
    def stable_round(self) -> Optional[int]:
        """Start of the consensus streak that held through the last round."""
        return self._streak_start

    @property
    def converged(self) -> bool:
        """Whether the last observed round was all-correct."""
        return self._streak_start is not None

    def handle(self, event: TelemetryEvent) -> None:
        """Telemetry-sink entry point: consume per-round engine events."""
        if event.kind != "round" or event.tags is None:
            return
        opinions = event.tags.get("opinions")
        if opinions is not None:
            self.observe(event.round_index, opinions)


class OpinionTrace(TelemetrySink):
    """Records the fraction of agents holding ``target`` every round."""

    def __init__(self, target: Opinion) -> None:
        self.target = target
        self.fractions: List[float] = []

    def observe(self, round_index: int, opinions: np.ndarray) -> None:
        """Record one round's correct-opinion fraction."""
        ops = np.asarray(opinions)
        self.fractions.append(float(np.mean(ops == self.target)))

    def handle(self, event: TelemetryEvent) -> None:
        """Telemetry-sink entry point: consume per-round engine events."""
        if event.kind != "round" or event.tags is None:
            return
        opinions = event.tags.get("opinions")
        if opinions is not None:
            self.observe(event.round_index, opinions)

    def as_array(self) -> np.ndarray:
        """The trace as a float array (one entry per observed round)."""
        return np.asarray(self.fractions, dtype=float)
