"""The noisy PUSH(h) model, for the PUSH-vs-PULL separation experiments.

In PUSH(h) (Section 1.5) each agent may *send* its message to ``h`` agents
chosen uniformly at random with replacement.  Crucially — and this is the
reliable component the paper highlights — a receiver cannot trust a
message's *content*, but it can trust that a message was *intended*:
silence is noiseless.  The [18]-style spreading protocol exploits exactly
this to achieve O(log n) rounds where PULL(1) needs Omega(n).

The engine mirrors :class:`~repro.model.engine.PullEngine` but delivery is
sender-driven: agents that stay silent (display ``SILENT``) generate no
observations at all.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..exceptions import ProtocolError
from ..noise import NoiseMatrix
from ..types import RngLike, coerce_rng
from .engine import RoundRecord, SimulationResult
from .population import Population

#: Sentinel display value meaning "send nothing this round".
SILENT = -1


class PushProtocol(abc.ABC):
    """Interface for protocols running on the noisy PUSH(h) engine."""

    alphabet_size: int = 2

    @abc.abstractmethod
    def reset(self, population: Population, rng: RngLike = None) -> None:
        """(Re-)initialize all per-agent state."""

    @abc.abstractmethod
    def pushes(self, round_index: int) -> np.ndarray:
        """Message each agent pushes this round — ``(n,)``; ``SILENT`` = none."""

    @abc.abstractmethod
    def receive(
        self, round_index: int, receivers: np.ndarray, symbols: np.ndarray
    ) -> None:
        """Process delivered messages.

        ``receivers[k]`` is the agent that received noisy symbol
        ``symbols[k]``; an agent may appear any number of times (including
        zero) depending on how many pushes happened to target it.
        """

    @abc.abstractmethod
    def opinions(self) -> np.ndarray:
        """Current opinion vector, ``(n,)`` ints in {0, 1}."""

    def finished(self, round_index: int) -> bool:
        """True when the protocol's fixed horizon has passed."""
        return False


class PushEngine:
    """Drives a :class:`PushProtocol` under sender-driven noisy delivery."""

    def __init__(self, population: Population, noise: NoiseMatrix) -> None:
        self.population = population
        self.noise = noise

    def run(
        self,
        protocol: PushProtocol,
        max_rounds: int,
        rng: RngLike = None,
        stop_on_consensus: bool = False,
        record_trace: bool = False,
        topology=None,
    ) -> SimulationResult:
        """Simulate up to ``max_rounds`` rounds of noisy PUSH(h).

        ``topology`` optionally restricts each sender's ``h`` targets to
        graph neighbors (any spec
        :func:`~repro.topology.create_topology` accepts); ``None`` and
        the complete graph run the untouched uniform path.
        """
        if protocol.alphabet_size != self.noise.size:
            raise ProtocolError(
                f"protocol alphabet size {protocol.alphabet_size} does not match "
                f"noise matrix size {self.noise.size}"
            )
        generator = coerce_rng(rng)
        population = self.population
        sampler = None
        if topology is not None:
            from ..topology import resolve_topology

            sampler = resolve_topology(topology, population.n, generator)
        protocol.reset(population, generator)

        correct = population.correct_opinion
        trace = []
        consensus_start: Optional[int] = None

        t = 0
        for t in range(max_rounds):
            if protocol.finished(t):
                t -= 1
                break
            pushed = np.asarray(protocol.pushes(t))
            invalid = (pushed != SILENT) & (
                (pushed < 0) | (pushed >= self.noise.size)
            )
            if invalid.any():
                bad = np.unique(pushed[invalid])[:8]
                raise ProtocolError(
                    f"pushes() returned symbol(s) {bad.tolist()} outside "
                    f"{{SILENT}} u Sigma (alphabet size {self.noise.size}) "
                    f"at round {t}; they would silently corrupt the "
                    f"observation tally"
                )
            if sampler is not None:
                sampler.begin_round(t, generator)
            senders = np.flatnonzero(pushed != SILENT)
            if senders.size:
                # Each sender picks h targets with replacement; flatten to a
                # delivery list.  Content is corrupted, intent is not.
                if sampler is not None:
                    targets = sampler.sample(senders, population.h, generator)
                else:
                    targets = generator.integers(
                        0, population.n, size=(senders.size, population.h)
                    )
                symbols = np.repeat(pushed[senders], population.h)
                noisy = self.noise.corrupt(symbols, generator, validate=False)
                protocol.receive(t, targets.ravel(), noisy)
            else:
                protocol.receive(
                    t, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
                )

            opinions = protocol.opinions()
            if correct is not None:
                all_correct = bool(np.all(opinions == correct))
                if all_correct and consensus_start is None:
                    consensus_start = t
                elif not all_correct:
                    consensus_start = None
                if record_trace:
                    num_correct = int(np.sum(opinions == correct))
                    trace.append(RoundRecord(t, num_correct / population.n, num_correct))
                if stop_on_consensus and all_correct:
                    break

        final = protocol.opinions()
        converged = correct is not None and bool(np.all(final == correct))
        return SimulationResult(
            converged=converged,
            consensus_round=consensus_start if converged else None,
            rounds_executed=t + 1,
            final_opinions=np.asarray(final).copy(),
            trace=trace,
        )
