"""Asynchronous (random sequential) activation — an extension.

The paper's model is synchronous: all agents act in lock-step rounds.
Population-protocol-style systems are usually *asynchronous*: at each
step one agent, chosen uniformly at random, wakes up, samples ``h``
agents, and updates.  ``n`` activations correspond to one parallel
round in expectation.

SF cannot run here (its phases presume a shared clock — the very
assumption SSF removes), but SSF can, unchanged: each agent's buffer is
its own clock.  The engine below drives any :class:`AsyncPullProtocol`
under random sequential activation; time is reported both in activations
and in parallel-round equivalents (activations / n).

The exactness shortcut of the synchronous fast engines does not apply —
displays may change after every activation — so this engine is
index-level, like :class:`~repro.model.engine.PullEngine`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError, ProtocolError
from ..noise import NoiseMatrix
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, seed_of
from .population import Population


class AsyncPullProtocol(abc.ABC):
    """Interface for protocols under random sequential activation."""

    alphabet_size: int = 4

    @abc.abstractmethod
    def reset(self, population: Population, rng: RngLike = None) -> None:
        """(Re-)initialize all per-agent state."""

    @abc.abstractmethod
    def display_of(self, agent: int) -> int:
        """Message agent ``agent`` currently displays."""

    @abc.abstractmethod
    def activate(self, agent: int, observations: np.ndarray) -> None:
        """Agent ``agent`` wakes, receives ``h`` noisy symbols, updates."""

    @abc.abstractmethod
    def opinions(self) -> np.ndarray:
        """Current opinion vector, ``(n,)`` ints in {0, 1}."""


@dataclasses.dataclass
class AsyncSimulationResult(RunReport):
    """Outcome of one asynchronous run.

    ``rounds`` (the :class:`~repro.results.RunReport` alias) reports
    ``activations_executed`` — the natural time unit here.
    """

    _rounds_attr = "activations_executed"

    converged: bool
    consensus_activation: Optional[int]
    activations_executed: int
    final_opinions: np.ndarray
    seed: Optional[int] = None

    @property
    def consensus_parallel_rounds(self) -> Optional[float]:
        """Consensus time in parallel-round equivalents (activations/n)."""
        if self.consensus_activation is None:
            return None
        return self.consensus_activation / len(self.final_opinions)


class AsyncPullEngine:
    """Random-sequential-activation driver for noisy PULL(h)."""

    def __init__(self, population: Population, noise: NoiseMatrix) -> None:
        self.population = population
        self.noise = noise

    def run(
        self,
        protocol: AsyncPullProtocol,
        max_activations: Optional[int] = None,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        consensus_patience: int = 0,
        telemetry: Optional[Telemetry] = None,
        fault_model=None,
        max_rounds: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> AsyncSimulationResult:
        """Simulate up to ``max_activations`` single-agent steps.

        ``max_rounds`` is the canonical-contract spelling of the horizon
        in expected *parallel* rounds (one parallel round = ``n``
        activations); exactly one of ``max_activations``/``max_rounds``
        must be given.  ``seed`` is the canonical alternative spelling
        of an integer ``rng`` (:func:`repro.types.coerce_seed`).

        Consensus is checked every ``n`` activations (once per expected
        parallel round) to keep the check cost amortized.  ``telemetry``
        (optional, RNG-neutral) receives one ``round`` event per
        consensus check — the round index is the activation count — plus
        an ``async_engine.run`` phase timer.

        ``fault_model`` (optional :class:`~repro.faults.FaultModel`)
        rewrites the sampled displays of each activation via
        ``transform_sampled_displays`` (time is measured in
        activations), restricts samplability, and substitutes the true
        channel.  Models needing the global display vector
        (``requires_global_displays``, e.g. anti-majority Byzantine
        agents) fail :func:`repro.engines.admit_seams` — this engine
        never materializes it.  ``None`` keeps the byte-identical legacy
        path.
        """
        if protocol.alphabet_size != self.noise.size:
            raise ProtocolError(
                f"protocol alphabet size {protocol.alphabet_size} does not "
                f"match noise matrix size {self.noise.size}"
            )
        from ..engines import admit_seams

        admit_seams(
            "async", None, fault_model, alphabet_size=protocol.alphabet_size
        )
        if max_rounds is not None:
            if max_activations is not None:
                raise ConfigurationError(
                    "pass either max_activations or max_rounds (parallel "
                    "rounds), not both"
                )
            max_activations = max_rounds * self.population.n
        if max_activations is None:
            raise ConfigurationError(
                "AsyncPullEngine.run needs a horizon: pass "
                "max_activations or max_rounds"
            )
        if seed is not None:
            if rng is not None:
                raise ConfigurationError(
                    "pass either rng or seed, not both: they are "
                    "alternative spellings of the master seed"
                )
            rng = seed
        generator = coerce_rng(rng)
        tele = ensure_telemetry(telemetry)
        population = self.population
        n, h = population.n, population.h
        protocol.reset(population, generator)
        correct = population.correct_opinion

        eval_mask = None
        n_eval = n
        tracker = None
        if fault_model is not None:
            fault_model.reset(population, protocol.alphabet_size, generator)
            eval_mask = fault_model.evaluation_mask()
            if eval_mask is not None:
                n_eval = int(np.count_nonzero(eval_mask))
                if n_eval == 0:
                    raise ConfigurationError(
                        "fault model excludes every agent from evaluation"
                    )
            if correct is not None:
                from ..faults.metrics import RecoveryTracker

                tracker = RecoveryTracker(
                    fault_model.onset_round, fault_model.quasi_consensus_floor
                )

        # Pre-draw activation order and samples in blocks of n (one
        # consensus check each) for speed.
        consensus_start: Optional[int] = None
        executed = 0
        timer = tele.phase("async_engine.run") if tele.enabled else None
        if timer is not None:
            timer.__enter__()
        while executed < max_activations:
            todo = min(n, max_activations - executed)
            actors = generator.integers(0, n, size=todo)
            samples = generator.integers(0, n, size=(todo, h))
            for i in range(todo):
                agent = int(actors[i])
                sample_ids = samples[i]
                if fault_model is not None:
                    # Fault time is measured in activations here.
                    activation = executed + i
                    visible = fault_model.visible_agents(activation)
                    if visible is not None:
                        sample_ids = visible[
                            generator.integers(0, visible.size, size=h)
                        ]
                displayed = np.fromiter(
                    (protocol.display_of(int(j)) for j in sample_ids),
                    dtype=np.int64,
                    count=h,
                )
                channel = self.noise
                if fault_model is not None:
                    displayed = fault_model.transform_sampled_displays(
                        activation, displayed, sample_ids, generator
                    )
                    channel = fault_model.channel(activation, channel)
                observed = channel.corrupt(displayed, generator, validate=False)
                protocol.activate(agent, observed)
            executed += todo

            if correct is not None:
                opinions = protocol.opinions()
                judged = opinions if eval_mask is None else opinions[eval_mask]
                if tele.enabled or tracker is not None:
                    num_correct = int(np.sum(judged == correct))
                    if tracker is not None:
                        tracker.observe(executed, 1.0 - num_correct / n_eval)
                    if tele.enabled:
                        tele.round(
                            executed,
                            num_correct=num_correct,
                            fraction_correct=num_correct / n_eval,
                            opinions=opinions,
                        )
                if bool(np.all(judged == correct)):
                    if consensus_start is None:
                        consensus_start = executed
                    if (
                        stop_on_consensus
                        and executed - consensus_start >= consensus_patience
                    ):
                        break
                else:
                    consensus_start = None

        final = np.asarray(protocol.opinions()).copy()
        judged_final = final if eval_mask is None else final[eval_mask]
        converged = correct is not None and bool(np.all(judged_final == correct))
        if timer is not None:
            timer.__exit__(None, None, None)
            tele.counter("async_engine.activations", executed)
            tele.counter("async_engine.runs")
        if tracker is not None:
            tracker.emit(tele)
        return AsyncSimulationResult(
            converged=converged,
            consensus_activation=consensus_start if converged else None,
            activations_executed=executed,
            final_opinions=final,
            seed=seed_of(rng),
        )
