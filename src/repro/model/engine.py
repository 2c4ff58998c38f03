"""The exact round-based noisy PULL(h) engine.

Every round performs the four model steps of Section 1.3 literally:

1. each agent chooses a message to display (``protocol.displays``);
2. each agent samples ``h`` agents uniformly at random with replacement;
3. each observation traverses the noise channel independently;
4. agents update opinion and internal state (``protocol.receive``).

Protocols are implemented as *vectorized agent collections*: one object
holds the per-agent state arrays of the whole population and updates them
with numpy operations.  This is still the exact per-agent model — every
agent's samples are explicit indices — only the Python-level loop over
agents is absent.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import List, Optional

import numpy as np

from ..exceptions import ConfigurationError, ProtocolError
from ..results import RunReport, register_record
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, merge_rng_seed, seed_of
from .population import Population
from .sampling import sample_indices


class PullProtocol(abc.ABC):
    """Interface a protocol must implement to run on :class:`PullEngine`.

    Lifecycle: ``reset`` once, then alternate ``displays`` / ``receive``
    once per round.  ``opinions`` may be read at any time after ``reset``.
    """

    #: Size of the communication alphabet Sigma (symbols ``0..d-1``).
    alphabet_size: int = 2

    @abc.abstractmethod
    def reset(self, population: Population, rng: RngLike = None) -> None:
        """(Re-)initialize all per-agent state for ``population``."""

    @abc.abstractmethod
    def displays(self, round_index: int) -> np.ndarray:
        """Message each agent displays this round — ``(n,)`` ints in Sigma."""

    @abc.abstractmethod
    def receive(self, round_index: int, observations: np.ndarray) -> None:
        """Process the round's noisy observations — ``(n, h)`` ints in Sigma."""

    @abc.abstractmethod
    def opinions(self) -> np.ndarray:
        """Current opinion vector, ``(n,)`` ints in {0, 1}."""

    def finished(self, round_index: int) -> bool:
        """True when the protocol has a fixed horizon and it has passed."""
        return False


@register_record
@dataclasses.dataclass(frozen=True)
class RoundRecord:
    """Per-round metrics captured when tracing is enabled."""

    round_index: int
    fraction_correct: float
    num_correct: int


@dataclasses.dataclass
class SimulationResult(RunReport):
    """Outcome of one engine run.

    Attributes
    ----------
    converged:
        Whether the run ended with every agent holding the correct opinion.
    consensus_round:
        First round index (0-based, counted *after* the round's updates)
        of the run's *final* streak of all-correct rounds — consensus that
        is lost again later (transient consensus) resets it, so it is the
        round from which consensus held through the last executed round.
        ``None`` whenever the run did not end in consensus.  Note that
        with ``stop_on_consensus`` the run ends early once the streak
        reaches ``consensus_patience + 1`` rounds, so "the end of the run"
        is that early stop: a protocol that would have left consensus
        after a longer streak still reports this round.
    rounds_executed:
        Total rounds simulated.
    final_opinions:
        Opinion vector at the end of the run.
    trace:
        Per-round records (empty unless tracing was requested).
    """

    converged: bool
    consensus_round: Optional[int]
    rounds_executed: int
    final_opinions: np.ndarray
    trace: List[RoundRecord] = dataclasses.field(default_factory=list)
    seed: Optional[int] = None


class PullEngine:
    """Drives a :class:`PullProtocol` over a population under a noise channel.

    ``noise`` may be a fixed :class:`~repro.noise.NoiseMatrix` or a
    :class:`~repro.noise.dynamic.NoiseSchedule` (anything exposing
    ``size`` and ``matrix_at(round_index)``) for time-varying channels.
    """

    def __init__(self, population: Population, noise) -> None:
        self.population = population
        self.noise = noise
        self._matrix_at = getattr(noise, "matrix_at", None)

    def run(
        self,
        protocol: PullProtocol,
        max_rounds: int,
        rng: RngLike = None,
        stop_on_consensus: bool = False,
        consensus_patience: int = 0,
        record_trace: bool = False,
        churn_rate: float = 0.0,
        telemetry: Optional[Telemetry] = None,
        fault_model=None,
        seed: Optional[int] = None,
        topology=None,
    ) -> SimulationResult:
        """Simulate up to ``max_rounds`` rounds.

        Parameters
        ----------
        stop_on_consensus:
            Stop once consensus has held for ``consensus_patience + 1``
            consecutive rounds.  When False, the run lasts ``max_rounds``
            rounds (or until ``protocol.finished``).
        consensus_patience:
            Extra consecutive all-correct rounds demanded before an early
            stop — guards against protocols that pass through consensus
            transiently.
        telemetry:
            Optional :class:`~repro.telemetry.Telemetry` recorder; when
            enabled the engine emits one ``round`` event per round
            (opinion counts + the opinion vector), a ``pull_engine.run``
            phase timer, and end-of-run counters.  Recording is
            RNG-neutral: results are bit-identical with telemetry on or
            off.
        churn_rate:
            Extension: at the start of each round every agent is
            independently *replaced* (its protocol state reinitialized
            via ``protocol.reset_agents``) with this probability —
            modelling population turnover.  Requires a protocol exposing
            ``reset_agents(indices, rng)``.
        fault_model:
            Optional :class:`~repro.faults.FaultModel` injecting
            model-layer faults: it may rewrite the displayed messages,
            restrict which agents are samplable, substitute the true
            physical channel, and exclude faulty agents from consensus
            evaluation.  ``None`` (the default) runs the byte-identical
            legacy path; a null model such as
            :class:`~repro.faults.IdentityFaultModel` counts as absent.
            With a non-null model and telemetry enabled, recovery
            metrics are emitted under ``faults.*``.
        topology:
            Optional :class:`~repro.topology.TopologySampler` (or any
            spec :func:`~repro.topology.create_topology` accepts)
            restricting each agent's ``h`` samples to graph neighbors.
            ``None`` and the complete graph run the untouched uniform
            path (bit-identical for fixed seeds); an unbound sampler is
            bound from the run generator before ``protocol.reset``.
            Both seams pass :func:`repro.engines.admit_seams` first: a
            graph topology never composes with a non-null fault model.
        """
        if not 0.0 <= churn_rate < 1.0:
            raise ProtocolError(f"churn_rate must lie in [0, 1), got {churn_rate}")
        if churn_rate > 0.0 and not hasattr(protocol, "reset_agents"):
            raise ProtocolError(
                f"{type(protocol).__name__} does not support churn "
                "(no reset_agents method)"
            )
        if protocol.alphabet_size != self.noise.size:
            raise ProtocolError(
                f"protocol alphabet size {protocol.alphabet_size} does not match "
                f"noise matrix size {self.noise.size}"
            )
        from ..engines import admit_seams

        fault_model, topology = admit_seams(
            "serial", None, fault_model, topology,
            alphabet_size=protocol.alphabet_size,
        )
        rng = merge_rng_seed(rng, seed)
        generator = coerce_rng(rng)
        tele = ensure_telemetry(telemetry)
        population = self.population
        sampler = None
        if topology is not None:
            from ..topology import resolve_topology

            sampler = resolve_topology(topology, population.n, generator)
        protocol.reset(population, generator)

        correct = population.correct_opinion
        eval_mask = None
        n_eval = population.n
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
        trace: List[RoundRecord] = []
        consensus_start: Optional[int] = None
        streak = 0

        timer = tele.phase("pull_engine.run") if tele.enabled else None
        if timer is not None:
            timer.__enter__()
        t = 0
        for t in range(max_rounds):
            if protocol.finished(t):
                t -= 1
                break
            if churn_rate > 0.0:
                churned = np.flatnonzero(
                    generator.random(population.n) < churn_rate
                )
                if churned.size:
                    protocol.reset_agents(churned, generator)
            displayed = protocol.displays(t)
            if fault_model is not None:
                displayed = fault_model.transform_displays(t, displayed, generator)
                visible = fault_model.visible_agents(t)
            else:
                visible = None
            if sampler is not None:
                sampler.begin_round(t, generator)
                sampled = sampler.sample(None, population.h, generator)
            elif visible is None:
                sampled = sample_indices(
                    population.n, population.n, population.h, generator
                )
            else:
                sampled = visible[
                    sample_indices(
                        visible.size, population.n, population.h, generator
                    )
                ]
            channel = self._matrix_at(t) if self._matrix_at else self.noise
            if fault_model is not None:
                channel = fault_model.channel(t, channel)
            # The alphabet contract was checked once up front; skip the
            # per-call range scan on the hot path.
            observations = channel.corrupt(displayed[sampled], generator, validate=False)
            protocol.receive(t, observations)

            opinions = protocol.opinions()
            if correct is not None:
                judged = opinions if eval_mask is None else opinions[eval_mask]
                # One count is both the consensus test and the metric.
                num_correct = int(np.count_nonzero(judged == correct))
                if num_correct == n_eval:
                    if consensus_start is None:
                        consensus_start = t
                    streak += 1
                else:
                    consensus_start = None
                    streak = 0
                if tracker is not None:
                    tracker.observe(t, 1.0 - num_correct / n_eval)
                if record_trace:
                    trace.append(RoundRecord(t, num_correct / n_eval, num_correct))
                if stop_on_consensus and streak >= consensus_patience + 1:
                    break
            if tele.enabled:
                if correct is not None:
                    tele.round(
                        t,
                        num_correct=num_correct,
                        fraction_correct=num_correct / n_eval,
                        opinions=opinions,
                    )
                else:
                    tele.round(t, opinions=opinions)

        final = protocol.opinions()
        judged_final = final if eval_mask is None else np.asarray(final)[eval_mask]
        converged = correct is not None and bool(np.all(judged_final == correct))
        if timer is not None:
            timer.__exit__(None, None, None)
            tele.counter("pull_engine.rounds", t + 1)
            tele.counter("pull_engine.runs")
            if converged:
                tele.counter("pull_engine.converged_runs")
        if tracker is not None:
            tracker.emit(tele)
        return SimulationResult(
            converged=converged,
            consensus_round=consensus_start if converged else None,
            rounds_executed=t + 1,
            final_opinions=np.asarray(final).copy(),
            trace=trace,
            seed=seed_of(rng),
        )
