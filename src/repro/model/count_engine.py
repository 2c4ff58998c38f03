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

Prices are pure functions of the state, and a run revisits states: once
SF reaches consensus every later boosting sub-phase displays the same
counts.  So each run prices each distinct state once — the engine
memoizes ``q`` by the display counts, and :meth:`CountProtocol._price`
memoizes the protocols' tail laws by their arguments.  The same floats
reach the same RNG calls in the same order, so memoized runs are
bit-identical to unmemoized ones.

A run also repeats whole stages.  When every draw of a stage is certain
(``p`` is 0 or 1, or the handoff fixed it) and the stage leaves the
display and opinion counts where they were, each following stage with
the same gap and law (:meth:`CountProtocol.copies`) is an exact copy of
it.  The engine then advances once, the protocol replays the copies'
draws in one ``Generator.binomial`` call over the repeated ``(n, p)``
list (:meth:`CountProtocol.repeat`), and the engine writes each copy's
trace record, ``round`` event and consensus update.  numpy evaluates an
array call element by element with the routine of a scalar call, so the
values and the generator's state after the run are bit-identical to one
call per stage: a converged SF run at n = 10^8 makes a handful of RNG
calls instead of 188.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..noise import NoiseMatrix
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, merge_rng_seed, seed_of
from .config import PopulationConfig
from .engine import RoundRecord

__all__ = ["CountProtocol", "CountPullEngine", "CountSimulationResult"]


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
    """

    #: Alphabet size ``|Sigma|`` the protocol displays over.
    alphabet_size: int = 2

    #: Optional mean-field handoff policy consulted by :meth:`_draw`.
    handoff = None

    @abc.abstractmethod
    def reset(self, rng: np.random.Generator) -> None:
        """Initialize the count state for a fresh run."""

    @abc.abstractmethod
    def display_counts(self) -> np.ndarray:
        """Current display counts, shape ``(alphabet_size,)``, summing to n."""

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

        ``q`` is read-only: every gap of the run with the same display
        counts receives the same array.
        """

    @abc.abstractmethod
    def opinion_counts(self) -> np.ndarray:
        """Current opinion counts ``[#opinion-0, #opinion-1]``."""

    def finished(self, round_index: int) -> bool:
        """Whether the protocol's schedule is exhausted (fixed horizons)."""
        return False

    # ------------------------------------------------------------------
    def _start_run(self, rng: np.random.Generator) -> None:
        """:meth:`_start_pricing`, then :meth:`reset`."""
        self._start_pricing()
        self.reset(rng)

    def _start_pricing(self) -> None:
        """Open an empty price memo: each run starts one.  Adapters that
        bind their laws per run extend it."""
        self._prices: Dict[tuple, float] = {}

    def _price(self, law: Callable[..., float], *args) -> float:
        """``law(*args)`` for a pure tail law, evaluated once per run."""
        key = (law, args)
        price = self._prices.get(key)
        if price is None:
            price = self._prices[key] = law(*args)
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
        if self._replay:
            ns, ps = zip(*self._replay)
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
        Every agent held the correct opinion at the end of the run.
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
        observations as ``q = (counts/n) @ N`` either way.

    The engine takes no fault model: the count adapters, which the
    registry builds, admit a uniform true channel and fold it into the
    ``noise`` they pass here.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
    ) -> None:
        self.config = config
        self._noise = noise
        self._uniform: Optional[NoiseMatrix] = None

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
        plus one ``round`` event per gap.  Each iteration advances one
        stage and then books it and any exact copies of it (see the
        module docstring), stopping where a stage-by-stage run would.
        """
        if max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be non-negative, got {max_rounds}"
            )
        rng = merge_rng_seed(rng, seed)
        generator = coerce_rng(rng)
        tele = ensure_telemetry(telemetry)
        cfg = self.config
        n = cfg.n
        correct = cfg.correct_opinion
        size = protocol.alphabet_size
        noise = self._resolve_noise(size)
        protocol._start_run(generator)

        trace: List[RoundRecord] = []
        consensus_start: Optional[int] = None
        # q for each display state seen this run, keyed by its counts;
        # a state's sign and sum are checked once, when it is priced.
        q_by_counts: Dict[tuple, np.ndarray] = {}

        def state() -> tuple:
            counts = np.asarray(protocol.display_counts(), dtype=np.int64)
            if counts.shape != (size,):
                raise ConfigurationError(
                    f"display_counts must have shape ({size},), "
                    f"got {counts.shape}"
                )
            return tuple(counts.tolist())

        t = 0
        stop = False
        with tele.phase("count.run"):
            while t < max_rounds and not stop and not protocol.finished(t):
                key = state()
                q = q_by_counts.get(key)
                if q is None:
                    if min(key) < 0 or sum(key) != n:
                        raise ConfigurationError(
                            f"display counts must be non-negative and sum "
                            f"to n={n}, got {list(key)}"
                        )
                    q = noise.observation_probabilities(np.array(key) / n)
                    q.flags.writeable = False
                    q_by_counts[key] = q
                gap = int(protocol.gap(t))
                if gap < 1:
                    raise ConfigurationError(
                        f"protocol gap must be >= 1, got {gap} at round {t}"
                    )
                gap = min(gap, max_rounds - t)
                stages = min(protocol.copies(t), (max_rounds - t) // gap)
                if stages > 1:
                    before = key, protocol.opinion_counts().tolist()
                certain = protocol._stage(t, gap, q, generator)
                opinions = protocol.opinion_counts()
                if stages > 1 and not (
                    certain and before == (state(), opinions.tolist())
                ):
                    stages = 1

                num_correct = None if correct is None else int(opinions[correct])
                for booked in range(1, stages + 1):
                    t += gap
                    if num_correct is None:
                        continue
                    fraction = num_correct / n
                    if record_trace:
                        trace.append(RoundRecord(t - 1, fraction, num_correct))
                    if tele.enabled:
                        tele.round(
                            t - 1,
                            num_correct=num_correct,
                            fraction_correct=fraction,
                            opinion_counts=np.asarray(opinions, dtype=np.int64),
                        )
                    if num_correct == n:
                        if consensus_start is None:
                            consensus_start = t - 1
                    else:
                        consensus_start = None
                    stop = (
                        stop_on_consensus
                        and consensus_start is not None
                        and (t - 1) - consensus_start >= consensus_patience
                    )
                    if stop:
                        break
                if booked > 1:
                    protocol.repeat(booked - 1, generator)

        final = np.asarray(protocol.opinion_counts(), dtype=np.int64)
        converged = correct is not None and int(final[correct]) == n
        if tele.enabled:
            tele.counter("count.rounds", t)
            tele.counter("count.runs")
            if converged:
                tele.counter("count.converged_runs")
        return CountSimulationResult(
            converged=converged,
            consensus_round=consensus_start if converged else None,
            rounds_executed=t,
            final_opinion_counts=final,
            trace=trace,
            seed=seed_of(rng),
        )
