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

One gap loop runs over a leading replica axis on the memories, fill
levels, weak opinions and opinions.  :meth:`FastSelfStabilizingSourceFilter.run`
is its one-replica call (with faults, sample loss and adversarial
starts); :meth:`~FastSelfStabilizingSourceFilter.run_batch` is the
R-replica call from a clean start, where every buffer fills in lockstep
and replicas that reach stable consensus leave the batch early.
``run_batch(1, rng=s)[0]`` is bit-identical to ``run(rng=s)``.
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
            kwargs = {} if constant is None else {"constant": constant}
            schedule = SSFSchedule.from_config(config, self.delta, **kwargs)
        self.schedule = schedule
        n = config.n
        self.memory = np.zeros((n, 4), dtype=np.int64)
        self.fill = np.zeros(n, dtype=np.int64)
        self.weak = np.zeros(n, dtype=np.int8)
        self.opinion = np.zeros(n, dtype=np.int8)

    @property
    def can_batch(self) -> bool:
        """Whether :meth:`run_batch` accepts this configuration.

        Lost samples desynchronize the shared flush clock and a non-null
        fault model resets per run, so both need one :meth:`run` per
        replica.
        """
        return self.sample_loss == 0.0 and self._fault is None

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

    def _clean_start(self, replicas: int, generator: np.random.Generator):
        """``(opinion, weak, memory, fill)`` of ``replicas`` clean starts."""
        cfg = self.config
        opinion = generator.integers(0, 2, size=(replicas, cfg.n)).astype(np.int8)
        # Fast engine tracks sources positionally: the first s0 agents
        # prefer 0, the next s1 prefer 1 (exchangeability makes the actual
        # placement irrelevant).
        opinion[:, : cfg.s0] = 0
        opinion[:, cfg.s0 : cfg.num_sources] = 1
        memory = np.zeros((replicas, cfg.n, 4), dtype=np.int64)
        fill = np.zeros((replicas, cfg.n), dtype=np.int64)
        return opinion, opinion.copy(), memory, fill

    def reset(self, rng: RngLike = None) -> None:
        """Clean start: empty buffers, random opinions (sources on pref)."""
        state = self._clean_start(1, coerce_rng(rng))
        self.opinion, self.weak, self.memory, self.fill = (a[0] for a in state)

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

        For each row of ``weak`` (one per replica) it tallies the
        positional displays — sources show ``(1, preference)``,
        non-sources ``(0, weak)`` — into one row of per-symbol
        probabilities ``q = delta + (counts/pool) * (1 - 4*delta)``
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
            displays = np.empty(weak.shape, dtype=np.int64)
            displays[:, : cfg.s0] = SYMBOL_SOURCE_0
            displays[:, cfg.s0 : cfg.num_sources] = SYMBOL_SOURCE_1
            displays[:, cfg.num_sources :] = weak[:, cfg.num_sources :]
            q = []
            for row in displays:
                if fault is not None:
                    row = np.asarray(fault.transform_displays(round_index, row, generator))
                    visible = fault.visible_agents(round_index)
                    if visible is not None:
                        row = row[visible]
                counts = np.bincount(row, minlength=4).astype(float)
                q.append(uniform_observation(counts / row.size, delta, 4))
            return np.array(q)

        return observe

    def _observation_distribution(self) -> np.ndarray:
        """The observation law of the engine's own state, one ``(4,)`` row."""
        return self._observer(None, None)(self.weak[None], 0)[0]

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        adversary: object = None,
        stop_on_consensus: bool = True,
        consensus_epochs: int = 2,
        telemetry: Optional[Telemetry] = None,
    ) -> SSFRunResult:
        """Simulate SSF until consensus stabilizes or the budget runs out.

        The gap loop's one-replica call, on this engine's own state.

        Parameters
        ----------
        max_rounds:
            Round budget; defaults to ``20 * epoch_rounds`` (well beyond
            Theorem 5's three-epoch horizon).
        adversary:
            Optional :class:`~repro.model.adversary.AdversarialInitializer`
            applied after the clean reset.
        stop_on_consensus:
            Stop early once consensus has held for ``consensus_epochs``
            whole epochs (every agent updated at least twice while the
            population was unanimous).
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
        state = (self.opinion, self.weak, self.memory, self.fill)
        (result,) = self._gap_loop(
            tuple(a[None] for a in state), generator, max_rounds,
            stop_on_consensus, consensus_epochs, telemetry, seed_of(rng),
        )
        return result

    def run_batch(
        self,
        replicas: int,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        consensus_epochs: int = 2,
        telemetry: Optional[Telemetry] = None,
    ) -> List[SSFRunResult]:
        """Simulate ``replicas`` independent clean-start SSF runs at once.

        The gap loop's R-replica call.  From a clean start every agent's
        buffer fills at the same ``h`` per round, so the flush clock is
        *global*: all agents of all replicas update in lockstep and one
        epoch of the whole batch is a single ``(R, n, 4)`` multinomial
        draw — the per-replica observation distribution broadcasts down
        the agent axis.  ``run_batch(1, rng=s)[0]`` is bit-identical to
        ``run(rng=s)``; for ``replicas > 1`` the runs share one stream
        (distributionally identical to ``replicas`` calls of :meth:`run`,
        reproducible for a fixed ``(rng, replicas)``).  Replicas that
        reach stable consensus leave the batch early, and the serial
        state (:meth:`opinions` etc.) is left untouched.

        Adversarial starts and ``sample_loss > 0`` desynchronize the
        flush clocks across agents/replicas, and fault models reset per
        run: use :meth:`run` per replica for those (see
        :attr:`can_batch`).
        """
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be a positive int, got {replicas}"
            )
        if self.sample_loss > 0.0:
            raise ConfigurationError(
                "run_batch requires sample_loss == 0 (lost samples "
                "desynchronize the shared flush clock); use run() per replica"
            )
        if self._fault is not None:
            raise ConfigurationError(
                "run_batch does not support fault models; call run() per "
                "replica (run_trials falls back to it automatically)"
            )
        generator = coerce_rng(rng)
        return self._gap_loop(
            self._clean_start(replicas, generator), generator, max_rounds,
            stop_on_consensus, consensus_epochs, telemetry, seed_of(rng),
        )

    def _gap_loop(
        self,
        state,
        generator: np.random.Generator,
        max_rounds: Optional[int],
        stop_on_consensus: bool,
        consensus_epochs: int,
        telemetry: Optional[Telemetry],
        seed: Optional[int],
    ) -> List[SSFRunResult]:
        """Advance ``(opinion, weak, memory, fill)`` — each with a leading
        replica axis, updated in place — from flush to flush."""
        opinion, weak, memory, fill = state
        replicas, n = opinion.shape
        tele = ensure_telemetry(telemetry)
        cfg, sched = self.config, self.schedule
        h, m = cfg.h, sched.m
        correct = cfg.correct_opinion
        if max_rounds is None:
            max_rounds = 20 * sched.epoch_rounds
        patience_rounds = consensus_epochs * sched.epoch_rounds

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
        n_eval = n if eval_mask is None else int(np.count_nonzero(eval_mask))

        # The replicas still running: ``active`` indexes them, ``live``
        # selects them (a view while all still are).
        active, live = np.arange(replicas), slice(None)
        consensus_start = np.full(replicas, -1, dtype=np.int64)
        rounds_executed = np.zeros(replicas, dtype=np.int64)
        traces: List[List[tuple]] = [[] for _ in range(replicas)]
        name, tags = ("ssf.run", {}) if replicas == 1 else (
            "ssf.run_batch", {"replicas": replicas}
        )
        t = 0
        with tele.phase(name, **tags):
            while t < max_rounds and active.size:
                # Rounds until the next agent(s) flush: fill grows by h
                # per round, so the fullest buffer flushes first.
                gap = int(np.ceil(max(m - int(fill[live].max()), 1) / h))
                gap = min(gap, max_rounds - t)
                # Never let one batch straddle a fault transition: within
                # the capped gap the transformed displays are constant, so
                # the multinomial tallies stay exact.
                for boundary in transitions:
                    if t < boundary:
                        gap = min(gap, boundary - t)
                        break
                q = observe(weak[live], t)
                # One replica takes numpy's faster unbroadcast pvals path
                # (same stream).
                pvals = q[0] if active.size == 1 else q[:, None, :]
                tallies = generator.multinomial(
                    gap * h, pvals, size=(active.size, n)
                )
                received = gap * h
                if self.sample_loss > 0.0:
                    # Fault injection: each observation is lost
                    # independently.  Thinning a multinomial thins each
                    # category binomially, so the kept tallies stay exact
                    # — and buffers (hence update clocks) fill more slowly.
                    tallies = generator.binomial(tallies, 1.0 - self.sample_loss)
                    received = tallies.sum(axis=2)
                memory[live] += tallies
                fill[live] += received
                t += gap
                rounds_executed[live] = t
                # Inactive replicas left right after a flush, so no agent
                # of theirs is due.
                due = fill >= m
                if not due.any():
                    continue
                if due[live].all():
                    # Every running agent flushes (each clean start does):
                    # selecting whole replicas is far cheaper than a
                    # boolean mask and keeps the same agent order.
                    due = live
                shape = fill[due].shape
                mem = memory[due].reshape(-1, 4)
                weak[due] = majority_with_ties(
                    mem[:, SYMBOL_SOURCE_1], mem[:, SYMBOL_SOURCE_0], generator
                ).reshape(shape)
                opinion[due] = majority_with_ties(
                    mem[:, SYMBOL_NONSOURCE_1] + mem[:, SYMBOL_SOURCE_1],
                    mem[:, 0] + mem[:, SYMBOL_SOURCE_0],
                    generator,
                ).reshape(shape)
                memory[due] = 0
                fill[due] = 0

                if correct is None:
                    fractions = np.zeros(active.size)
                else:
                    fractions = (
                        opinion[live][:, judged] == correct
                    ).sum(axis=1) / n_eval
                started = consensus_start[live]
                consensus_start[live] = np.where(
                    fractions < 1.0, -1, np.where(started < 0, t - 1, started)
                )
                for r, fraction in zip(active, fractions):
                    traces[r].append((t - 1, float(fraction)))
                if tracker is not None:
                    tracker.observe(t - 1, 1.0 - float(fractions[0]))
                if tele.enabled and replicas == 1:
                    tele.round(
                        t - 1,
                        num_correct=int(round(fractions[0] * n_eval)),
                        fraction_correct=float(fractions[0]),
                        opinions=opinion[0],
                    )
                elif tele.enabled:
                    tele.round(
                        t - 1,
                        active_replicas=int(active.size),
                        mean_fraction_correct=float(fractions.mean()),
                    )
                if stop_on_consensus:
                    started = consensus_start[live]
                    settled = (started >= 0) & ((t - 1) - started >= patience_rounds)
                    if settled.any():
                        active = active[~settled]
                        live = active

        converged = (
            np.all(opinion[:, judged] == correct, axis=1)
            if correct is not None
            else np.zeros(replicas, dtype=bool)
        )
        if tele.enabled:
            tele.counter("ssf.rounds", int(rounds_executed.sum()))
            tele.counter("ssf.runs", replicas)
            if converged.any():
                tele.counter("ssf.converged_runs", int(np.count_nonzero(converged)))
        if tracker is not None:
            tracker.emit(tele)
        return [
            SSFRunResult(
                converged=bool(converged[r]),
                consensus_round=(
                    int(consensus_start[r])
                    if converged[r] and consensus_start[r] >= 0
                    else None
                ),
                rounds_executed=int(rounds_executed[r]),
                final_opinions=opinion[r].copy(),
                final_weak_opinions=weak[r].copy(),
                trace=traces[r],
                seed=seed,
            )
            for r in range(replicas)
        ]
