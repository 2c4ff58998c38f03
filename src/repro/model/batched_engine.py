"""Replica-batched exact noisy PULL(h) engine.

Monte-Carlo sweeps run the same configuration dozens to hundreds of
times.  :class:`~repro.model.engine.PullEngine` simulates one replica at
a time, so a 64-trial sweep pays the per-round numpy dispatch overhead
64 times over.  :class:`BatchedPullEngine` simulates ``R`` *independent*
replicas of the exact Section-1.3 round loop simultaneously: per-agent
state becomes ``(R, n)``, the round's samples become ``(R, n, h)``, and
the noise channel corrupts the whole batch in one CDF inversion.  Every
replica still follows the literal model — explicit sample indices, one
independent noise event per observation — only the Python-level loop
over replicas is amortized.

The protocol contract is per *stage*: a run of rounds in which displays
(before faults) and opinions stay fixed, so a round only samples,
corrupts and counts.  The engine runs each stage as a tight round loop,
accumulates the observations, and hands the protocol one per-agent
tally at the stage's end.  Consensus, early stopping, traces, recovery
trackers and telemetry are settled once per stage: inside a stage each
replica's verdict can only change on the last round.

Replica ``r`` draws every variate from its own generator,
``spawn_generators(seed, R)[r]`` with ``seed = coerce_seed(None, rng)``
— the streams :func:`repro.analysis.run_trials` gives its trials.  A
batched run is therefore **bit-identical** to ``R`` serial
:class:`PullEngine` runs on those generators.  Each round costs one
``integers`` (or ``sampler.sample``) call and one ``random`` call per
replica; everything else is fully batched.  Replicas that satisfy the
early-stopping rule leave the active set and stop consuming randomness,
so bit-identity survives early exits.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, ProtocolError
from ..rng import spawn_generators
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_seed, merge_rng_seed
from .engine import RoundRecord, SimulationResult
from .population import Population

__all__ = ["BatchedPullProtocol", "BatchedPullEngine"]


class BatchedPullProtocol(abc.ABC):
    """Interface a protocol must implement to run on :class:`BatchedPullEngine`.

    State arrays carry a leading replica axis, ``(R, n)``.  A protocol
    is a sequence of stages; stage ``k`` covers rounds
    ``[stage_ends()[k-1], stage_ends()[k])`` (stage 0 starts at round 0)
    and shows the same displays every round.  After the stage's last
    round, :meth:`end_stage` receives every agent's count of observed 1s
    over the stage (a sum of observations, so the contract is binary).
    Any replica-local coin flips (tie-breaking) must be drawn from that
    replica's generator so that batched runs stay bit-identical to
    serial ones.
    """

    #: Size of the communication alphabet Sigma (symbols ``0..d-1``).
    alphabet_size: int = 2

    @abc.abstractmethod
    def reset(
        self, population: Population, rngs: Sequence[np.random.Generator]
    ) -> None:
        """(Re-)initialize state for ``len(rngs)`` replicas of ``population``."""

    @abc.abstractmethod
    def stage_ends(self) -> Sequence[int]:
        """Increasing round index each stage ends before; the last is the horizon."""

    @abc.abstractmethod
    def stage_displays(self, stage: int) -> np.ndarray:
        """Messages displayed in every round of ``stage`` — ``(R, n)`` ints.

        A read-only broadcast view is acceptable when all replicas
        display the same messages.
        """

    @abc.abstractmethod
    def end_stage(self, stage: int, ones: np.ndarray, replicas: np.ndarray) -> None:
        """Update opinions once ``stage`` has run all its rounds.

        ``ones`` is ``(A, n)``: how many of its noisy observations during
        the stage each agent saw as 1.  ``replicas`` holds the ``A``
        replicas that ran every round of the stage (ascending).
        """

    @abc.abstractmethod
    def opinions(self) -> np.ndarray:
        """Current opinion matrix, ``(R, n)`` ints in {0, 1}."""


def _batch_generator(seed: Optional[int], replicas: int) -> np.random.Generator:
    """The generator for batch-wide draws (a graph, a faulty subset):
    child ``R`` of ``SeedSequence(seed)``, so it never collides with a
    replica stream."""
    root = np.random.SeedSequence(seed)
    return np.random.default_rng(root.spawn(replicas + 1)[-1])


class BatchedPullEngine:
    """Drives a :class:`BatchedPullProtocol` over R replicas of one population.

    All replicas share the same :class:`Population` (roles and
    preferences) and noise channel; their randomness — initial opinions,
    samples, noise, coin flips — is independent.  ``noise`` may be a
    :class:`~repro.noise.NoiseMatrix` or a schedule exposing
    ``matrix_at(round_index)``, exactly as for :class:`PullEngine`.
    """

    def __init__(self, population: Population, noise) -> None:
        self.population = population
        self.noise = noise
        self._matrix_at = getattr(noise, "matrix_at", None)

    def run(
        self,
        protocol: BatchedPullProtocol,
        max_rounds: int,
        replicas: Optional[int] = None,
        rng: RngLike = None,
        *,
        stop_on_consensus: bool = False,
        consensus_patience: int = 0,
        record_trace: bool = False,
        telemetry: Optional[Telemetry] = None,
        fault_model=None,
        seed: Optional[int] = None,
        topology=None,
    ) -> List[SimulationResult]:
        """Simulate up to ``max_rounds`` rounds of every replica.

        Parameters
        ----------
        replicas:
            Number of independent replicas R (required).
        rng:
            Any :data:`~repro.types.RngLike`, resolved to one master
            seed by :func:`~repro.types.coerce_seed` (a live generator
            gives one draw); replica ``r`` runs on
            ``spawn_generators(seed, R)[r]`` and every result's ``seed``
            field is that master seed.
        stop_on_consensus / consensus_patience:
            Per-replica early exit with the same semantics as
            :meth:`PullEngine.run`: a replica stops once consensus has
            held for ``consensus_patience + 1`` consecutive rounds.
        telemetry:
            Optional :class:`~repro.telemetry.Telemetry` recorder.  Per
            executed round, one ``round`` event with the active-replica
            count and the batch-mean correct fraction (emitted when the
            round's stage ends); per run, a ``batched_engine.run`` phase
            timer and replica counters.  RNG-neutral: results are
            bit-identical with telemetry on or off.
        fault_model:
            Optional :class:`~repro.faults.FaultModel`.  One faulty
            subset is resolved per *batch* (from child ``R`` of
            ``SeedSequence(seed)``, so it never collides with a replica
            stream) and shared by all replicas; per-round display
            transforms run per replica with that replica's generator.
            ``None`` keeps the byte-identical legacy path, and a null
            model counts as absent.  Models whose faulty set is random
            make batched runs diverge from serial runs (the serial engine
            resolves the set from the run generator) — pass explicit
            ``agents=`` when cross-engine bit-identity matters.
        topology:
            Optional :class:`~repro.topology.TopologySampler` (or spec)
            restricting samples to graph neighbors.  The whole batch
            shares *one* realized graph (quenched disorder): an unbound
            sampler binds from child ``R`` of ``SeedSequence(seed)`` —
            the same slot fault models use; use the serial engine per
            replica for independent graph draws.  Both seams pass
            :func:`repro.engines.admit_seams`: static graphs only (a
            dynamic one has no replica-safe evolution stream), never
            beside a non-null fault model.  ``None`` and the complete
            graph keep the untouched, bit-identical path.

        Returns
        -------
        One :class:`SimulationResult` per replica, in replica order.
        """
        rng = merge_rng_seed(rng, seed)
        if protocol.alphabet_size != self.noise.size:
            raise ProtocolError(
                f"protocol alphabet size {protocol.alphabet_size} does not match "
                f"noise matrix size {self.noise.size}"
            )
        from ..engines import admit_seams

        fault_model, topology = admit_seams(
            "batched", None, fault_model, topology,
            alphabet_size=protocol.alphabet_size,
        )
        if replicas is None or replicas < 1:
            raise ValueError(f"replicas must be a positive int, got {replicas}")
        seed = coerce_seed(None, rng)
        generators = spawn_generators(seed, replicas)
        tele = ensure_telemetry(telemetry)

        population = self.population
        n, h = population.n, population.h
        correct = population.correct_opinion

        sampler = None
        if topology is not None:
            from ..topology import create_topology

            sampler = create_topology(topology)
            sampler.ensure_bound(n, _batch_generator(seed, replicas))

        protocol.reset(population, generators)

        eval_mask = None
        n_eval = n
        trackers = None
        if fault_model is not None:
            fault_model.reset(
                population,
                protocol.alphabet_size,
                _batch_generator(seed, replicas),
            )
            eval_mask = fault_model.evaluation_mask()
            if eval_mask is not None:
                n_eval = int(np.count_nonzero(eval_mask))
                if n_eval == 0:
                    raise ConfigurationError(
                        "fault model excludes every agent from evaluation"
                    )
            if correct is not None:
                from ..faults.metrics import RecoveryTracker

                trackers = [
                    RecoveryTracker(
                        fault_model.onset_round,
                        fault_model.quasi_consensus_floor,
                    )
                    for _ in range(replicas)
                ]

        def count_correct(rows: np.ndarray) -> np.ndarray:
            """Judged agents holding the correct opinion, per replica."""
            opinions = protocol.opinions()[rows]
            judged = opinions if eval_mask is None else opinions[:, eval_mask]
            return np.count_nonzero(judged == correct, axis=1)

        def settle(rows: np.ndarray, counts: np.ndarray, first: int, ran) -> None:
            """Consensus bookkeeping for ``ran`` rounds from round ``first``
            that each found ``counts`` judged agents correct."""
            ok = counts == n_eval
            since = consensus_start[rows]
            consensus_start[rows] = np.where(ok, np.where(since < 0, first, since), -1)
            streak[rows] = np.where(ok, streak[rows] + ran, 0)

        active = np.arange(replicas)
        streak = np.zeros(replicas, dtype=np.int64)
        consensus_start = np.full(replicas, -1, dtype=np.int64)
        rounds_executed = np.zeros(replicas, dtype=np.int64)
        traces: List[List[RoundRecord]] = [[] for _ in range(replicas)]
        judging = correct is not None
        num_correct = count_correct(active) if judging else None

        timer = tele.phase("batched_engine.run", replicas=replicas) if tele.enabled else None
        if timer is not None:
            timer.__enter__()
        start = 0
        for stage, stop in enumerate(protocol.stage_ends()):
            end = min(stop, max_rounds)
            if start >= end or active.size == 0:
                break
            # Rounds before `held` judge the opinions the stage began
            # with; only a completed stage's last round sees its update.
            # A replica whose streak reaches patience + 1 before `held`
            # stops after round `last`, inside the stage.
            held = end - 1 if end == stop else end
            entry, last = active, np.full(active.size, end - 1)
            if stop_on_consensus and judging:
                leave = start + consensus_patience - streak[entry]
                early = (num_correct[entry] == n_eval) & (leave < held)
                last[early] = leave[early]
            ones = self._run_stage(
                protocol.stage_displays(stage), start, end, entry, last,
                generators, sampler, fault_model,
            )
            rounds_executed[entry] = last + 1
            active = entry[last == end - 1]
            if end == stop and active.size:
                protocol.end_stage(stage, ones.sum(axis=2), active)
            if judging:
                before = num_correct[entry]
                if end == stop:
                    num_correct[active] = count_correct(active)
                if record_trace or tele.enabled or trackers is not None:
                    _record_stage(
                        start, held, end, entry, last, before, num_correct[entry],
                        n_eval, traces if record_trace else None, trackers, tele,
                    )
                # First the rounds judged on the entry opinions, then a
                # completed stage's last round.  Zero such rounds leave the
                # state as it was: `before` is what the previous round found.
                settle(entry, before, start, np.minimum(last + 1, held) - start)
                if end == stop:
                    settle(active, num_correct[active], end - 1, 1)
                if stop_on_consensus:
                    active = active[streak[active] < consensus_patience + 1]
            start = stop

        # `num_correct` always describes the final opinions: it is
        # recounted after every stage-end update, and nothing else
        # changes an opinion.
        final = np.asarray(protocol.opinions())
        converged = num_correct == n_eval if judging else np.zeros(replicas, bool)
        results = [
            SimulationResult(
                converged=bool(converged[r]),
                consensus_round=(
                    int(consensus_start[r])
                    if converged[r] and consensus_start[r] >= 0
                    else None
                ),
                rounds_executed=int(rounds_executed[r]),
                final_opinions=final[r].copy(),
                trace=traces[r],
                seed=seed,
            )
            for r in range(replicas)
        ]
        if timer is not None:
            timer.__exit__(None, None, None)
            tele.counter("batched_engine.runs")
            tele.counter("batched_engine.replicas", replicas)
            tele.counter(
                "batched_engine.converged_replicas",
                sum(result.converged for result in results),
            )
        if trackers is not None:
            from ..faults.metrics import emit_recovery_batch

            emit_recovery_batch(trackers, tele)
        return results

    def _run_stage(
        self, displays, start, end, entry, last, generators, sampler, fault_model
    ) -> np.ndarray:
        """Run rounds ``start..end-1`` of one stage; replica ``entry[i]``
        runs through round ``last[i]``.  Returns the ``(A, n, h)`` sum of
        the observations of the ``A`` replicas that ran every round."""
        n, h = self.population.n, self.population.h
        members, member_last = entry, last
        ones = np.zeros((entry.size, n, h), dtype=np.int32)
        leaves = start - 1  # set the buffers up on the first round
        for t in range(start, end):
            if t > leaves:
                keep = member_last >= t
                members, member_last = members[keep], member_last[keep]
                ones = ones[keep]
                if members.size == 0:
                    break
                leaves = int(member_last.min())
                rows = np.asarray(displays)[members]
                sampled = np.empty((members.size, n, h), dtype=np.int64)
                uniforms = np.empty((members.size, n, h))
                offsets = (np.arange(members.size, dtype=np.int64) * n)[:, None, None]
                # Each member's generator and its rows of the sample and
                # variate buffers.
                draws = [
                    (generators[r], sampled[i], uniforms[i])
                    for i, r in enumerate(members)
                ]
            round_rows, pool, visible = rows, n, None
            if fault_model is not None:
                visible = fault_model.visible_agents(t)
                if visible is not None:
                    pool = visible.size
                # Replica r's transform draws precede its sampling draws
                # — the serial engine's order.
                faulted = [
                    fault_model.transform_displays(t, row, g)
                    for row, (g, _, _) in zip(rows, draws)
                ]
                if any(out is not row for out, row in zip(faulted, rows)):
                    round_rows = np.stack(faulted)
            # The replicas' generators are independent, so drawing every
            # replica's samples before any variates keeps each stream.
            if sampler is not None:
                for g, picked, _ in draws:
                    picked[...] = sampler.sample(None, h, g)
            else:
                for g, picked, _ in draws:
                    picked[...] = g.integers(0, pool, size=(n, h))
            for g, _, uniform in draws:
                g.random(out=uniform)
            picks = sampled if visible is None else visible[sampled]
            # One flat 1-D take — cheaper than take_along_axis.
            picks += offsets
            gathered = round_rows.reshape(-1).take(picks)
            channel = self._matrix_at(t) if self._matrix_at else self.noise
            if fault_model is not None:
                channel = fault_model.channel(t, channel)
            ones += channel.corrupt_with_uniforms(gathered, uniforms, dtype=np.int8)
        return ones


def _record_stage(
    start, held, end, entry, last, before, after, n_eval, traces, trackers, tele
) -> None:
    """Trace records, tracker observations and ``round`` events for the
    rounds of one stage.

    Replica ``entry[i]`` ran rounds ``start..last[i]`` with ``before[i]``
    correct agents through the rounds before ``held`` and ``after[i]``
    from then on.  Between those boundaries nothing changes, so each
    run of equal rounds is summarized once.
    """
    cuts = sorted({start, held, end, *(last + 1).tolist()})
    for first, stop in zip(cuts, cuts[1:]):
        live = last >= first
        if not live.any():
            break
        counts = (before if first < held else after)[live]
        replicas, values = entry[live].tolist(), counts.tolist()
        if tele.enabled:
            summary = dict(
                active_replicas=len(values),
                mean_fraction_correct=float(counts.mean()) / n_eval,
                converged_replicas=int(np.count_nonzero(counts == n_eval)),
            )
        for t in range(first, stop):
            for r, value in zip(replicas, values):
                if trackers is not None:
                    trackers[r].observe(t, 1.0 - value / n_eval)
                if traces is not None:
                    traces[r].append(RoundRecord(t, value / n_eval, value))
            if tele.enabled:
                tele.round(t, **summary)
