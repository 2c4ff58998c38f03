"""Vectorized Self-stabilizing Source Filter engine.

Exactness argument: within any window of rounds during which *no agent
flushes its buffer*, the displayed messages are constant, so each agent's
added symbol tallies over a window of ``g`` rounds are exactly
``Multinomial(g*h, q)`` with ``q = delta + (counts/n)*(1-4*delta)``
(uniform 4-letter channel), i.i.d. across agents.  The engine therefore
advances in *gaps*: it jumps straight to the next update event, draws one
multinomial per agent for the whole gap, applies the due updates, and
repeats.  With synchronized buffers (clean start, or the targeted
adversary) a full epoch is a single batch; with adversarially staggered
buffers gaps shrink towards one round and the engine gracefully degrades
to the per-round cost — still exact.

One gap loop advances one run's memories, fill levels, weak opinions
and opinions: :meth:`FastSelfStabilizingSourceFilter.run`, from a clean
start or an adversarial one, with faults and sample loss.  Independent
trials are independent calls, each on its own generator
(:func:`repro.analysis.run_trials`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..faults.base import validate_sample_loss
from ..model.config import PopulationConfig
from ..noise import NoiseMatrix, uniform_level, uniform_observation
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, seed_of
from .parameters import SSFSchedule
from .ssf import (
    SYMBOL_NONSOURCE_1,
    SYMBOL_SOURCE_0,
    SYMBOL_SOURCE_1,
    majority_with_ties,
)


@dataclasses.dataclass
class SSFRunResult(RunReport):
    """Outcome of one fast-SSF execution.

    Attributes
    ----------
    converged:
        All agents held the correct opinion at the end of the run.
    consensus_round:
        First round from which consensus held through the end (``None`` if
        it never did).
    rounds_executed:
        Total simulated rounds.
    final_opinions / final_weak_opinions:
        State at the end of the run.
    trace:
        ``(round, fraction_correct)`` pairs recorded after every round in
        which at least one agent updated.
    """

    converged: bool
    consensus_round: Optional[int]
    rounds_executed: int
    final_opinions: np.ndarray
    final_weak_opinions: np.ndarray
    trace: List[tuple]
    seed: Optional[int] = None


class FastSelfStabilizingSourceFilter:
    """Gap-batched SSF simulator under uniform 4-letter noise.

    Parameters
    ----------
    config:
        Population parameters.
    noise:
        Uniform noise level over the 4-letter alphabet (float in
        ``[0, 1/4)``) or a uniform 4x4 :class:`NoiseMatrix`.  For
        non-uniform physical noise apply the Section 4 reduction first.
    schedule:
        Optional pre-built :class:`SSFSchedule` (default: Eq. (30) with
        the calibrated constant).
    fault_model:
        Optional :class:`~repro.faults.FaultModel`.  ``None`` or a null
        model keeps the bit-identical legacy path.  A non-null model must
        have deterministic displays (gap batching needs within-gap
        constancy) and a uniform channel, but — unlike the fast SF
        engine — *scheduled* faults are admitted: the gap loop caps each
        batch at the model's next
        :meth:`~repro.faults.FaultModel.transition_rounds` boundary, so
        crash/recovery schedules stay exact.  This makes the fast SSF
        engine the self-stabilization showcase: crash agents mid-run and
        watch the ``faults.*`` recovery metrics.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: Optional[SSFSchedule] = None,
        constant: Optional[float] = None,
        sample_loss: float = 0.0,
        fault_model=None,
        topology=None,
    ) -> None:
        from ..engines import admit_seams

        self.config = config
        self.delta = uniform_level(noise, 4)
        self.sample_loss = validate_sample_loss(sample_loss)
        # SSF's window accounting assumes exchangeable uniform sampling
        # throughout, so the capability row admits no graph here.
        self._fault, _ = admit_seams("fast", "ssf", fault_model, topology)
        self.fault_model = fault_model
        self.topology = topology
        if schedule is None:
            schedule = SSFSchedule.from_config(config, self.delta, constant)
        self.schedule = schedule
        n = config.n
        self.memory = np.zeros((n, 4), dtype=np.int64)
        self.fill = np.zeros(n, dtype=np.int64)
        self.weak = np.zeros(n, dtype=np.int8)
        self.opinion = np.zeros(n, dtype=np.int8)

    # ------------------------------------------------------------------
    # Adversary contract (matches the agent-level class).
    # ------------------------------------------------------------------
    alphabet_size = 4

    @property
    def memory_capacity(self) -> int:
        """The buffer size parameter ``m``."""
        return self.schedule.m

    def opinions(self) -> np.ndarray:
        """Current opinion vector (duck-types the agent-level protocol)."""
        return self.opinion

    @property
    def weak_opinions(self) -> np.ndarray:
        """Current weak-opinion vector (agent-level protocol spelling)."""
        return self.weak

    @property
    def memory_fill(self) -> np.ndarray:
        """Messages currently buffered per agent (agent-level spelling)."""
        return self.fill

    def reset(self, rng: RngLike = None) -> None:
        """Clean start: empty buffers, random opinions (sources on pref)."""
        cfg = self.config
        opinion = coerce_rng(rng).integers(0, 2, size=cfg.n).astype(np.int8)
        # Fast engine tracks sources positionally: the first s0 agents
        # prefer 0, the next s1 prefer 1 (exchangeability makes the actual
        # placement irrelevant).
        opinion[: cfg.s0] = 0
        opinion[cfg.s0 : cfg.num_sources] = 1
        self.opinion, self.weak = opinion, opinion.copy()
        self.memory = np.zeros((cfg.n, 4), dtype=np.int64)
        self.fill = np.zeros(cfg.n, dtype=np.int64)

    def install_state(
        self,
        opinions: np.ndarray,
        weak_opinions: np.ndarray,
        memory_counts: np.ndarray,
    ) -> None:
        """Adversarially overwrite the corruptible state."""
        n = self.config.n
        opinions = np.asarray(opinions, dtype=np.int8)
        weak = np.asarray(weak_opinions, dtype=np.int8)
        memory = np.asarray(memory_counts, dtype=np.int64)
        if opinions.shape != (n,) or weak.shape != (n,) or memory.shape != (n, 4):
            raise ConfigurationError("adversarial state has wrong shape")
        if memory.min() < 0 or memory.sum(axis=1).max() > self.memory_capacity:
            raise ConfigurationError(
                "adversarial memories must hold between 0 and m messages"
            )
        self.opinion = opinions.copy()
        self.weak = weak.copy()
        self.memory = memory.copy()
        self.fill = memory.sum(axis=1)

    # ------------------------------------------------------------------
    def _observer(self, fault, generator: Optional[np.random.Generator]):
        """The observation law ``observe(weak, round_index)``.

        It tallies the positional displays — sources show
        ``(1, preference)``, non-sources ``(0, weak)`` — into the
        per-symbol probabilities ``q = delta + (counts/pool) * (1 - 4*delta)``
        (:func:`~repro.noise.uniform_observation`).
        Under a ``fault`` model the displays pass through its display
        transform, only its samplable agents count, and ``delta`` is its
        effective level: still exact, because displays are constant
        within a gap (deterministic faults, gaps capped at transition
        rounds).
        """
        cfg = self.config
        delta = self.delta
        if fault is not None:
            delta = uniform_level(fault.effective_uniform_delta(self.delta), 4)

        def observe(weak: np.ndarray, round_index: int) -> np.ndarray:
            displays = np.empty(cfg.n, dtype=np.int64)
            displays[: cfg.s0] = SYMBOL_SOURCE_0
            displays[cfg.s0 : cfg.num_sources] = SYMBOL_SOURCE_1
            displays[cfg.num_sources :] = weak[cfg.num_sources :]
            if fault is not None:
                displays = np.asarray(
                    fault.transform_displays(round_index, displays, generator)
                )
                visible = fault.visible_agents(round_index)
                if visible is not None:
                    displays = displays[visible]
            counts = np.bincount(displays, minlength=4).astype(float)
            return uniform_observation(counts / displays.size, delta, 4)

        return observe

    def _observation_distribution(self) -> np.ndarray:
        """The observation law of the engine's own state, one ``(4,)`` row."""
        return self._observer(None, None)(self.weak, 0)

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        adversary: object = None,
        stop_on_consensus: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> SSFRunResult:
        """Simulate SSF until consensus stabilizes or the budget runs out.

        The gap loop, on this engine's own state: it advances from flush
        to flush, updating :meth:`opinions` and friends in place.

        Parameters
        ----------
        max_rounds:
            Round budget; defaults to ``20 * epoch_rounds`` (well beyond
            Theorem 5's three-epoch horizon).
        adversary:
            Optional :class:`~repro.model.adversary.AdversarialInitializer`
            applied after the clean reset.
        stop_on_consensus:
            Stop early once consensus has held for two whole epochs
            (every agent updated at least twice while the population was
            unanimous).
        telemetry:
            Optional :class:`~repro.telemetry.Telemetry` recorder.  Emits
            an ``ssf.run`` phase timer and one ``round`` event per flush
            round (the only rounds in which opinions can change).
            RNG-neutral: results are bit-identical with telemetry on or
            off.
        """
        generator = coerce_rng(rng)
        self.reset(generator)
        if adversary is not None:
            # The fast engine is positional: build a positional population
            # facade for the adversary.
            from ..model.population import Population

            population = Population(self.config, rng=generator, shuffle=False)
            adversary.apply(self, population, generator)
        opinion, weak, memory, fill = self.opinion, self.weak, self.memory, self.fill
        tele = ensure_telemetry(telemetry)
        cfg, sched = self.config, self.schedule
        h, m = cfg.h, sched.m
        correct = cfg.correct_opinion
        if max_rounds is None:
            max_rounds = 20 * sched.epoch_rounds
        patience_rounds = 2 * sched.epoch_rounds

        fault = self._fault
        eval_mask = None
        tracker = None
        transitions: tuple = ()
        if fault is not None:
            from ..model.population import Population

            fault.reset(Population(cfg, shuffle=False), 4, generator)
            eval_mask = fault.evaluation_mask()
            if eval_mask is not None and not eval_mask.any():
                raise ConfigurationError(
                    "fault model excludes every agent from evaluation"
                )
            transitions = fault.transition_rounds()
            if correct is not None:
                from ..faults.metrics import RecoveryTracker

                tracker = RecoveryTracker(
                    fault.onset_round, fault.quasi_consensus_floor
                )
        observe = self._observer(fault, generator)
        judged = slice(None) if eval_mask is None else eval_mask
        n_eval = cfg.n if eval_mask is None else int(np.count_nonzero(eval_mask))

        consensus_start: Optional[int] = None
        trace: List[tuple] = []
        t = 0
        with tele.phase("ssf.run"):
            while t < max_rounds:
                # Rounds until the next agent(s) flush: fill grows by h
                # per round, so the fullest buffer flushes first.
                gap = int(np.ceil(max(m - int(fill.max()), 1) / h))
                gap = min(gap, max_rounds - t)
                # Never let one batch straddle a fault transition: within
                # the capped gap the transformed displays are constant, so
                # the multinomial tallies stay exact.
                for boundary in transitions:
                    if t < boundary:
                        gap = min(gap, boundary - t)
                        break
                tallies = generator.multinomial(gap * h, observe(weak, t), size=cfg.n)
                received = gap * h
                if self.sample_loss > 0.0:
                    # Fault injection: each observation is lost
                    # independently.  Thinning a multinomial thins each
                    # category binomially, so the kept tallies stay exact
                    # — and buffers (hence update clocks) fill more slowly.
                    tallies = generator.binomial(tallies, 1.0 - self.sample_loss)
                    received = tallies.sum(axis=1)
                memory += tallies
                fill += received
                t += gap
                due = fill >= m
                if not due.any():
                    continue
                if due.all():
                    # Every agent flushes (each clean start does): a
                    # slice is far cheaper than a boolean mask and keeps
                    # the same agent order.
                    due = slice(None)
                mem = memory[due]
                weak[due] = majority_with_ties(
                    mem[:, SYMBOL_SOURCE_1], mem[:, SYMBOL_SOURCE_0], generator
                )
                opinion[due] = majority_with_ties(
                    mem[:, SYMBOL_NONSOURCE_1] + mem[:, SYMBOL_SOURCE_1],
                    mem[:, 0] + mem[:, SYMBOL_SOURCE_0],
                    generator,
                )
                memory[due] = 0
                fill[due] = 0

                fraction = 0.0
                if correct is not None:
                    hits = int(np.count_nonzero(opinion[judged] == correct))
                    fraction = hits / n_eval
                if fraction < 1.0:
                    consensus_start = None
                elif consensus_start is None:
                    consensus_start = t - 1
                trace.append((t - 1, fraction))
                if tracker is not None:
                    tracker.observe(t - 1, 1.0 - fraction)
                if tele.enabled:
                    tele.round(
                        t - 1,
                        num_correct=int(round(fraction * n_eval)),
                        fraction_correct=fraction,
                        opinions=opinion,
                    )
                if (
                    stop_on_consensus
                    and consensus_start is not None
                    and (t - 1) - consensus_start >= patience_rounds
                ):
                    break

        converged = correct is not None and bool(np.all(opinion[judged] == correct))
        if tele.enabled:
            tele.counter("ssf.rounds", t)
            tele.counter("ssf.runs", 1)
            if converged:
                tele.counter("ssf.converged_runs", 1)
        if tracker is not None:
            tracker.emit(tele)
        return SSFRunResult(
            converged=converged,
            consensus_round=consensus_start if converged else None,
            rounds_executed=t,
            final_opinions=opinion.copy(),
            final_weak_opinions=weak.copy(),
            trace=trace,
            seed=seed_of(rng),
        )
