"""Shared result type, helpers and run loop for the baseline dynamics.

Baselines with zealot sources cannot flip a wrong-preference zealot, so
the paper's strict convergence notion (every agent, sources included) is
unattainable for them whenever ``s0 > 0``.  :class:`DynamicsResult`
therefore reports both the strict notion and the weaker
*non-zealot consensus* so comparisons against SF/SSF stay honest.
:class:`ZealotDynamics` is the one run loop of the zealot baselines;
each supplies only its one-round update.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..model.config import PopulationConfig
from ..noise import uniform_observation
from ..results import RunReport
from ..types import RngLike, coerce_rng


@dataclasses.dataclass
class DynamicsResult(RunReport):
    """Outcome of one baseline run.

    Attributes
    ----------
    converged:
        Every *updatable* agent (non-zealot) held the correct opinion at
        the end of the run.
    strict_converged:
        Every agent — zealots included — held the correct opinion (the
        paper's Definition 2; unattainable for zealot baselines when a
        minority source exists).
    consensus_round:
        First round from which non-zealot consensus held to the end.
    rounds_executed:
        Total simulated rounds.
    final_opinions:
        Opinion vector at the end.
    trace:
        Per-round fraction of agents (all agents) holding the correct
        opinion, when tracing was requested.
    """

    converged: bool
    strict_converged: bool
    consensus_round: Optional[int]
    rounds_executed: int
    final_opinions: np.ndarray
    trace: List[float] = dataclasses.field(default_factory=list)


class ConsensusMonitor:
    """Incrementally tracks the start of the final consensus streak."""

    def __init__(self) -> None:
        self.consensus_start: Optional[int] = None

    def update(self, round_index: int, unanimous: bool) -> None:
        """Record whether non-zealot consensus held after ``round_index``."""
        if unanimous:
            if self.consensus_start is None:
                self.consensus_start = round_index
        else:
            self.consensus_start = None

    def stable_for(self, round_index: int, patience: int) -> bool:
        """True when consensus has held for more than ``patience`` rounds."""
        return (
            self.consensus_start is not None
            and round_index - self.consensus_start >= patience
        )


class ZealotDynamics:
    """Synchronous dynamics whose sources are zealots, under uniform noise.

    Zealots sit first (``s0`` zeros, then ``s1`` ones), display their
    preference and never move; the ``n - s0 - s1`` free agents start on
    fair coins and each round apply the subclass's one-round law
    :meth:`_step`.
    """

    #: Largest admissible noise level ``delta``, and how errors print it.
    max_delta = 0.5
    max_delta_label = "0.5"

    def __init__(self, config: PopulationConfig, delta: float) -> None:
        if not 0.0 <= delta <= self.max_delta:
            raise ValueError(
                f"delta must lie in [0, {self.max_delta_label}], got {delta}"
            )
        self.config = config
        self.delta = delta

    def _observe_one(self, free: np.ndarray) -> float:
        """P(a noisy binary PULL sample shows 1) given the free opinions."""
        k = self.config.s1 + int(np.sum(free == 1))
        return uniform_observation(k / self.config.n, self.delta, 2)

    def _step(self, free: np.ndarray, generator: np.random.Generator) -> np.ndarray:
        """One round: the free agents' next opinions."""
        raise NotImplementedError

    def run(
        self,
        max_rounds: int,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        patience: int = 0,
        record_trace: bool = False,
    ) -> DynamicsResult:
        """Simulate up to ``max_rounds`` rounds."""
        generator = coerce_rng(rng)
        cfg = self.config
        n, s0, s1 = cfg.n, cfg.s0, cfg.s1
        correct = cfg.correct_opinion

        free = generator.integers(0, 2, size=n - s0 - s1).astype(np.int8)
        monitor = ConsensusMonitor()
        trace: List[float] = []
        t = 0
        for t in range(max_rounds):
            free = self._step(free, generator)
            unanimous = bool(np.all(free == correct))
            monitor.update(t, unanimous)
            if record_trace:
                num_correct = int(np.sum(free == correct)) + (s1 if correct == 1 else s0)
                trace.append(num_correct / n)
            if stop_on_consensus and monitor.stable_for(t, patience):
                break

        final = np.concatenate(
            [np.zeros(s0, dtype=np.int8), np.ones(s1, dtype=np.int8), free]
        )
        converged = bool(np.all(free == correct))
        strict = converged and (s0 == 0 if correct == 1 else s1 == 0)
        return DynamicsResult(
            converged=converged,
            strict_converged=strict,
            consensus_round=monitor.consensus_start if converged else None,
            rounds_executed=t + 1,
            final_opinions=final,
            trace=trace,
        )
