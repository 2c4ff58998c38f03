"""Count-level PULL(h) engine: O(|Sigma|) per advance, independent of n.

The model's dynamics are exchangeable: every protocol in this library
updates an agent from tallies of its own noisy observations, and the
distribution of those tallies depends on the population only through the
*counts* of displayed symbols.  Conditioned on the current count vector,
per-agent tallies are i.i.d., so the next count vector is an exact
Binomial/Multinomial draw — the population state collapses from O(n)
per-agent arrays to a length-``|Sigma|`` integer vector, and one
transition costs O(|Sigma|) arithmetic plus O(1) numpy RNG calls no
matter whether ``n`` is 10^3 or 10^8.

This module provides the engine seam: :class:`CountPullEngine` drives a
:class:`CountProtocol` (see :mod:`repro.protocols.sf_count` /
:mod:`repro.protocols.ssf_count` for the SF/SSF adapters) through gap
batches, computing the single-observation distribution ``q = p @ N``
from the display counts and the noise matrix each gap.  Statistical
equivalence with the agent-level engines is enforced by the ``laws``
and ``reliability`` legs of ``repro-spreading verify`` and by
``tests/test_count_engine.py``.

Prices are pure functions of the state, and runs revisit states: every
SF run prices the same Phase-0 and Phase-1 displays, and once it reaches
consensus every later boosting sub-phase displays the same counts.  So
prices outlive a run.  The engine memoizes ``q`` by the display counts
for as long as it lives (its noise is fixed), and
:meth:`CountProtocol._price` memoizes the protocols' tail laws by their
arguments for as long as the protocol lives (its schedule, noise and
``h`` are fixed).  Each memo holds at most :data:`PRICE_MEMO_CAP`
entries and is cleared when it fills: the recurring states are a
handful, while a random boosting state at large ``n`` almost never comes
back.  The same floats reach the same RNG calls in the same order, so
memoized runs are bit-identical to unmemoized ones.

A run also repeats whole stages.  When every draw of a stage is certain
(``p`` is 0 or 1, or the handoff fixed it) and the stage leaves the
display and opinion counts where they were, each following stage with
the same gap and law (:meth:`CountProtocol.copies`) is an exact copy of
it.  Those copies are booked without advancing the protocol, and their
draws are replayed later in one ``Generator.binomial`` call over the
repeated ``(n, p)`` list (:meth:`CountProtocol.repeat`).  numpy
evaluates an array call element by element with the routine of a scalar
call, so the values and the generator's state after the run are
bit-identical to one call per stage: a converged SF run at n = 10^8
makes a handful of RNG calls instead of 188.

:meth:`CountPullEngine.run_batch` is the one stage loop, over R replica
runs in spawn mode: each replica is its own protocol state
(:meth:`CountProtocol.replica`, sharing the prices) on its own
generator, and :meth:`CountPullEngine.run` is its R = 1 call.  The
replicas share a stage clock — SF's stage plan, SSF's clean-start flush
clock — so the loop advances them stage by stage together.  A replica in
copies needs no work until its copies end; it replays them on its own
generator just before its next real draw.  While every running replica
is in copies, the loop books the whole stretch at once.  Every replica's
draws are those of a run of its own, in the same order, so replica ``i``
is bit-identical to ``run`` on its generator.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..noise import NoiseMatrix
from ..results import RunReport
from ..rng import spawn_generators
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, coerce_seed, merge_rng_seed, seed_of
from .config import PopulationConfig
from .engine import RoundRecord

__all__ = [
    "CountProtocol", "CountPullEngine", "CountSimulationResult", "PRICE_MEMO_CAP",
]

#: Entries a price memo (the engine's ``q`` memo, a protocol's tail-law
#: memo) holds before it is cleared.
PRICE_MEMO_CAP = 64


class CountProtocol(abc.ABC):
    """A protocol expressed over symbol counts instead of agents.

    The engine advances in *gaps* — maximal windows of rounds during
    which the displayed messages are constant (a listening phase, a
    boosting sub-phase, an SSF epoch).  Each iteration the engine reads
    :meth:`display_counts`, prices the single-observation distribution
    ``q`` through the noise matrix, asks :meth:`gap` how many rounds the
    current displays remain valid, and hands ``(gap, q)`` to
    :meth:`advance`, which updates the protocol's count state with O(1)
    population-level draws.  Subclasses price their own laws through
    :meth:`_price` and draw through :meth:`_draw`.

    The count state is the run's; everything else is fixed for the
    protocol's life, so :meth:`replica` can share it between runs.
    """

    #: Alphabet size ``|Sigma|`` the protocol displays over.
    alphabet_size: int = 2

    #: Optional mean-field handoff policy consulted by :meth:`_draw`.
    handoff = None

    @abc.abstractmethod
    def reset(self, rng: np.random.Generator) -> None:
        """Initialize the count state for a fresh run, binding every
        mutable part of it anew (replicas share everything else)."""

    @abc.abstractmethod
    def display_counts(self) -> np.ndarray:
        """Current display counts of the samplable agents, shape
        ``(alphabet_size,)``: they sum to n unless a fault takes agents
        out of the sampling pool."""

    @abc.abstractmethod
    def gap(self, round_index: int) -> int:
        """Rounds (>= 1) the current displays stay constant from here."""

    @abc.abstractmethod
    def advance(
        self,
        round_index: int,
        gap: int,
        q: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Consume ``gap`` rounds of observations distributed as ``q``.

        ``q`` is read-only: every gap with the same display counts
        receives the same array.
        """

    @abc.abstractmethod
    def opinion_counts(self) -> np.ndarray:
        """Current opinion counts ``[#opinion-0, #opinion-1]`` of the
        agents judged for consensus: all n unless a fault's agents are
        not judged."""

    def finished(self, round_index: int) -> bool:
        """Whether the protocol's schedule is exhausted (fixed horizons)."""
        return False

    # ------------------------------------------------------------------
    def replica(self) -> "CountProtocol":
        """Another run state of this protocol, sharing its prices: a
        shallow copy, whose :meth:`reset` rebinds the run state."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def _batch(self, replicas: int, rng: RngLike) -> tuple:
        """``replicas`` run states and their generators, spawned from
        ``rng`` as :func:`repro.analysis.run_trials` spawns trial ``i``'s:
        this protocol alone, or :meth:`replica` copies that leave it be."""
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be a positive int, got {replicas}"
            )
        protocols = (
            [self] if replicas == 1 else [self.replica() for _ in range(replicas)]
        )
        return protocols, spawn_generators(coerce_seed(None, rng), replicas)

    def _start_run(self, rng: np.random.Generator) -> None:
        """:meth:`reset`, opening the price memo on a protocol's first run."""
        if "_prices" not in self.__dict__:
            self._start_pricing()
        self.reset(rng)

    def _start_pricing(self) -> None:
        """Open an empty price memo.  Adapters call it once, at
        construction, and extend it to bind their laws."""
        self._prices: Dict[tuple, float] = {}

    def _price(self, law: Callable[..., float], *args) -> float:
        """``law(*args)`` for a pure tail law, through the price memo."""
        key = (law, args)
        prices = self._prices
        price = prices.get(key)
        if price is None:
            if len(prices) >= PRICE_MEMO_CAP:
                prices.clear()
            price = prices[key] = law(*args)
        return price

    def copies(self, round_index: int) -> int:
        """Stages, starting with this one, that share its gap and law.

        Sharing a law means mapping the same display and opinion counts
        to the same draws.  The engine runs the later stages as copies
        when this one turns out certain and leaves those counts
        unchanged, so a protocol that returns more than 1 must draw only
        through :meth:`_draw`.
        """
        return 1

    def repeat(self, stages: int, rng: np.random.Generator) -> None:
        """Replay the last stage's RNG draws ``stages`` times in one call.

        Subclasses extend it with the bookkeeping ``stages`` more copies
        of the last stage would have done.
        """
        replay = self._replay
        if len(replay) == 1:
            ((n, p),) = replay
            rng.binomial(n, p, size=stages)
        elif replay:
            ns, ps = zip(*replay)
            rng.binomial(ns * stages, ps * stages)

    def _stage(self, round_index: int, gap: int, q: np.ndarray, rng) -> bool:
        """:meth:`advance` one stage; whether every draw in it was certain."""
        self._replay: List[tuple] = []
        self._certain = True
        self.advance(round_index, gap, q, rng)
        return self._certain

    def _draw(self, n: int, p: float, rng: np.random.Generator) -> int:
        """One population-level draw, mean-field fast-forwarded if gated."""
        p = min(max(p, 0.0), 1.0)
        if self.handoff is not None and self.handoff.use_deterministic(p, n):
            return min(n, max(0, int(round(n * p))))
        if 0.0 < p < 1.0:
            self._certain = False
        self._replay.append((n, p))
        return int(rng.binomial(n, p))


@dataclasses.dataclass
class CountSimulationResult(RunReport):
    """Outcome of one count-level engine run.

    Attributes
    ----------
    converged:
        Every judged agent held the correct opinion at the end of the run.
    consensus_round:
        First round from which consensus held through the end (``None``
        if it never did).
    rounds_executed:
        Total simulated model rounds.
    final_opinion_counts:
        ``[#opinion-0, #opinion-1]`` at the end of the run.
    trace:
        Per-gap :class:`~repro.model.engine.RoundRecord` entries (indexed
        by the last round of each gap) when tracing was requested.
    """

    converged: bool
    consensus_round: Optional[int]
    rounds_executed: int
    final_opinion_counts: np.ndarray
    trace: List[RoundRecord]
    seed: Optional[int] = None


class _Replica:
    """One replica's run in the stage loop: its protocol state,
    generator and books."""

    __slots__ = (
        "protocol", "rng", "tags", "trace", "consensus_start", "num_correct",
        "num_wrong", "opinions", "last", "copies", "pending", "rounds",
    )

    def __init__(self, protocol: CountProtocol, rng: np.random.Generator, tags):
        self.protocol = protocol
        self.rng = rng
        self.tags = tags  # of its round events
        self.trace: List[RoundRecord] = []
        self.consensus_start: Optional[int] = None
        self.num_correct: Optional[int] = None
        self.num_wrong: Optional[int] = None
        self.opinions: Optional[np.ndarray] = None
        self.last: Optional[list] = None  # opinion counts after its last stage
        self.copies = 0  # coming stages booked as copies of the last one
        self.pending = 0  # booked copies whose draws are not yet replayed
        self.rounds = 0

    def settle(self, rounds: int) -> None:
        """Leave the loop after ``rounds``, replaying booked copies."""
        if self.pending:
            self.protocol.repeat(self.pending, self.rng)
            self.pending = 0
        self.rounds = rounds


class CountPullEngine:
    """Exchangeability-collapsed engine over symbol counts.

    Parameters
    ----------
    config:
        Population parameters (``n``, sources, ``h``).
    noise:
        A :class:`NoiseMatrix` over the protocol's alphabet, or a float
        uniform noise level from which the engine builds the
        delta-uniform matrix of the protocol's ``alphabet_size`` at run
        time.  Non-uniform matrices are supported: the engine prices
        observations as ``q = (counts/pool) @ N`` either way.

    The engine takes no fault model: the count adapters, which the
    registry builds, admit a uniform true channel and subset faults
    (:class:`~repro.faults.CountView`).  They fold the channel into the
    ``noise`` they pass here and the subset into their counts, so the
    engine prices ``q`` over the display counts' total (the samplable
    pool) and calls consensus when no judged agent holds the wrong
    opinion; without a fault both counts cover all n agents.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
    ) -> None:
        self.config = config
        self._noise = noise
        self._uniform: Optional[NoiseMatrix] = None
        # q for each display state priced so far, keyed by its counts; a
        # state's sign and sum are checked once, when it is priced.
        self._q_by_counts: Dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _resolve_noise(self, alphabet_size: int) -> NoiseMatrix:
        if isinstance(self._noise, NoiseMatrix):
            if self._noise.size != alphabet_size:
                raise ConfigurationError(
                    f"noise matrix has alphabet size {self._noise.size}, "
                    f"protocol displays over {alphabet_size} symbols"
                )
            return self._noise
        # Built once per alphabet, not once per run.
        if self._uniform is None or self._uniform.size != alphabet_size:
            self._uniform = NoiseMatrix.uniform(float(self._noise), alphabet_size)
        return self._uniform

    def _display_key(self, protocol: CountProtocol, size: int) -> tuple:
        """``protocol``'s display counts as a tuple, shape-checked."""
        counts = np.asarray(protocol.display_counts(), dtype=np.int64)
        if counts.shape != (size,):
            raise ConfigurationError(
                f"display_counts must have shape ({size},), got {counts.shape}"
            )
        return tuple(counts.tolist())

    def _observation(self, key: tuple, noise: NoiseMatrix) -> np.ndarray:
        """The read-only ``q`` of display counts ``key``, memoized."""
        memo = self._q_by_counts
        q = memo.get(key)
        if q is None:
            n, pool = self.config.n, sum(key)
            if min(key) < 0 or not 0 < pool <= n:
                raise ConfigurationError(
                    f"display counts must be non-negative and sum "
                    f"to a pool of 1..n={n} agents, got {list(key)}"
                )
            if len(memo) >= PRICE_MEMO_CAP:
                memo.clear()
            q = noise.observation_probabilities(np.array(key) / pool)
            q.flags.writeable = False
            memo[key] = q
        return q

    def run(
        self,
        protocol: CountProtocol,
        max_rounds: int,
        rng: RngLike = None,
        stop_on_consensus: bool = False,
        consensus_patience: int = 0,
        record_trace: bool = False,
        telemetry: Optional[Telemetry] = None,
        seed: Optional[int] = None,
    ) -> CountSimulationResult:
        """Drive ``protocol`` for up to ``max_rounds`` model rounds.

        Mirrors :meth:`repro.model.PullEngine.run` semantics where they
        transfer: consensus is tracked at gap boundaries (the only
        rounds opinions can change), ``stop_on_consensus`` ends the run
        once consensus has held ``consensus_patience`` rounds, and
        ``telemetry`` (RNG-neutral) receives a ``count.run`` phase timer
        plus one ``round`` event per gap.  It is :meth:`run_batch` over
        one replica, ``protocol`` itself, on ``rng``.
        """
        rng = merge_rng_seed(rng, seed)
        (result,) = self.run_batch(
            [protocol], max_rounds, [coerce_rng(rng)],
            stop_on_consensus=stop_on_consensus,
            consensus_patience=consensus_patience,
            record_trace=record_trace,
            telemetry=telemetry,
        )
        result.seed = seed_of(rng)
        return result

    def run_batch(
        self,
        protocols: Sequence[CountProtocol],
        max_rounds: int,
        rngs: Sequence[np.random.Generator],
        stop_on_consensus: bool = False,
        consensus_patience: int = 0,
        record_trace: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> List[CountSimulationResult]:
        """Drive each replica ``protocols[i]`` on ``rngs[i]`` for up to
        ``max_rounds`` rounds, on one shared stage clock.

        Result ``i`` and the state of ``protocols[i]`` and ``rngs[i]``
        afterwards are those :meth:`run` leaves for that protocol on that
        generator.  The replicas must be distinct run states of one
        protocol (:meth:`CountProtocol.replica`) whose gaps agree stage
        by stage, as SF's stage plan and SSF's clean-start flush clock
        do; a replica that stops under ``stop_on_consensus`` leaves the
        batch.  With one replica ``telemetry`` receives exactly what
        :meth:`run` records (a ``count.run`` phase); with more, one
        ``count.run_batch`` phase tagged ``replicas``, each replica's
        ``round`` events tagged ``replica``, and the ``count.*``
        counters summed over the replicas.
        """
        if max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be non-negative, got {max_rounds}"
            )
        if len(protocols) != len(rngs) or not protocols:
            raise ConfigurationError(
                f"need one generator per replica, got {len(protocols)} "
                f"replicas and {len(rngs)} generators"
            )
        replicas = len(protocols)
        tele = ensure_telemetry(telemetry)
        recording = record_trace or tele.enabled
        correct = self.config.correct_opinion
        size = protocols[0].alphabet_size
        noise = self._resolve_noise(size)
        runs = [
            _Replica(p, g, {} if replicas == 1 else {"replica": i})
            for i, (p, g) in enumerate(zip(protocols, rngs))
        ]
        for run in runs:
            run.protocol._start_run(run.rng)

        def book(run: _Replica, end: int) -> bool:
            """Book one stage ending before round ``end``; whether the
            replica stops there."""
            num_correct = run.num_correct
            if num_correct is None:
                return False
            if recording:
                fraction = num_correct / (num_correct + run.num_wrong)
                if record_trace:
                    run.trace.append(RoundRecord(end - 1, fraction, num_correct))
                if tele.enabled:
                    tele.round(
                        end - 1,
                        num_correct=num_correct,
                        fraction_correct=fraction,
                        opinion_counts=np.asarray(run.opinions, dtype=np.int64),
                        **run.tags,
                    )
            if not run.num_wrong:
                if run.consensus_start is None:
                    run.consensus_start = end - 1
            else:
                run.consensus_start = None
            return (
                stop_on_consensus
                and run.consensus_start is not None
                and (end - 1) - run.consensus_start >= consensus_patience
            )

        def book_copies(run: _Replica, start: int, gap: int, stages: int):
            """Book up to ``stages`` copies from round ``start`` at once:
            ``(copies booked, whether the replica stops at the last)``."""
            if recording:
                for booked in range(1, stages + 1):
                    if book(run, start + booked * gap):
                        return booked, True
                return stages, False
            if run.num_correct is None:
                return stages, False
            if run.num_wrong:
                run.consensus_start = None
                return stages, False
            if run.consensus_start is None:
                run.consensus_start = start + gap - 1
            if not stop_on_consensus:
                return stages, False
            # The first copy whose last round is patience past the start.
            due = run.consensus_start + consensus_patience + 1 - start
            booked = max(1, -(-due // gap))
            return (booked, True) if booked <= stages else (stages, False)

        memo = self._q_by_counts
        running = runs
        copying = 0  # running replicas whose next stage is a copy
        t = gap = 0
        name, tags = ("count.run", {}) if replicas == 1 else (
            "count.run_batch", {"replicas": replicas}
        )
        with tele.phase(name, **tags):
            while running and t < max_rounds:
                if copying == len(running):
                    # Every running replica repeats its last stage: book
                    # the stretch they all share at once.
                    stretch = min(run.copies for run in running)
                    still, copying = [], 0
                    for run in running:
                        booked, stopped = book_copies(run, t, gap, stretch)
                        run.copies -= booked
                        run.pending += booked
                        if stopped:
                            run.settle(t + booked * gap)
                        else:
                            still.append(run)
                            copying += run.copies > 0
                    running = still
                    t += stretch * gap
                    continue

                # One stage on one gap: a replica in copies books a copy
                # of its last stage, the others advance.
                if not copying:
                    gap = 0
                still, copying = [], 0
                for run in running:
                    copies = run.copies
                    if copies:
                        copies -= 1
                        run.pending += 1
                    else:
                        protocol = run.protocol
                        if run.pending:
                            protocol.repeat(run.pending, run.rng)
                            run.pending = 0
                        if protocol.finished(t):
                            run.settle(t)
                            continue
                        key = self._display_key(protocol, size)
                        q = memo.get(key)
                        if q is None:
                            q = self._observation(key, noise)
                        stage_gap = int(protocol.gap(t))
                        if stage_gap < 1:
                            raise ConfigurationError(
                                f"protocol gap must be >= 1, got {stage_gap} "
                                f"at round {t}"
                            )
                        stage_gap = min(stage_gap, max_rounds - t)
                        if not gap:
                            gap = stage_gap
                        elif stage_gap != gap:
                            raise ConfigurationError(
                                f"replicas must share the stage clock: gaps "
                                f"{gap} and {stage_gap} at round {t}"
                            )
                        stages = min(protocol.copies(t), (max_rounds - t) // gap)
                        if stages > 1 and run.last is None:
                            run.last = protocol.opinion_counts().tolist()
                        certain = protocol._stage(t, gap, q, run.rng)
                        opinions = protocol.opinion_counts()
                        last = opinions.tolist()
                        if stages > 1 and certain and last == run.last and (
                            self._display_key(protocol, size) == key
                        ):
                            # The stages after this one are its copies.
                            copies = stages - 1
                        run.opinions, run.last = opinions, last
                        if correct is not None:
                            run.num_correct = last[correct]
                            run.num_wrong = last[1 - correct]
                    if book(run, t + gap):
                        run.settle(t + gap)
                    else:
                        run.copies = copies
                        still.append(run)
                        copying += copies > 0
                running = still
                t += gap
            for run in running:
                run.settle(t)

        results = []
        for run in runs:
            final = np.asarray(run.protocol.opinion_counts(), dtype=np.int64)
            converged = correct is not None and not final[1 - correct]
            results.append(CountSimulationResult(
                converged=converged,
                consensus_round=run.consensus_start if converged else None,
                rounds_executed=run.rounds,
                final_opinion_counts=final,
                trace=run.trace,
            ))
        if tele.enabled:
            tele.counter("count.rounds", sum(run.rounds for run in runs))
            tele.counter("count.runs", replicas)
            converged_runs = sum(result.converged for result in results)
            if converged_runs:
                tele.counter("count.converged_runs", converged_runs)
        return results
