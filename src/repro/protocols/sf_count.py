"""Count-level Source Filter: O(1) population draws per phase.

The fast engine (:mod:`.sf_fast`) already collapses time — whole phases
become one Binomial tally per agent — but still draws O(n) per-agent
variates.  Exchangeability collapses the agent axis too:

* Weak opinions are i.i.d. across agents (Lemma 28), each equal to 1
  with probability ``p_weak = P(C1 > C0) + P(C1 = C0)/2`` where
  ``C1 ~ Bin(S, q1)`` / ``C0 ~ Bin(S, q0)`` are the Phase-0/Phase-1
  counters, so the *number* of weak 1s is exactly ``Binomial(n,
  p_weak)`` — one draw.
* Each boosting sub-phase update is i.i.d. across agents with success
  probability ``p = P(Bin(window, q) > window/2) + P(tie)/2`` given the
  current count, so the next 1-count is exactly ``Binomial(n, p)``.

Both probabilities come from :mod:`repro.theory.tails` in O(1), making a
full SF execution cost O(num_subphases) arithmetic regardless of ``n``
— n = 10^8 runs in the same milliseconds as n = 10^3.  They are
:meth:`CountSourceFilter.stage_law`, which
:class:`repro.analysis.MeanFieldEngine` iterates in expectation.

An optional mean-field handoff (:class:`repro.analysis.MeanFieldHandoff`)
replaces the Binomial draw by its expectation whenever the success
probability is far from the critical bias 1/2 — there the O(sqrt(n))
fluctuation cannot change which basin the trajectory is in, so the
deterministic fast-forward is statistically indistinguishable (the
``handoff`` leg of ``repro-spreading verify`` validates the gate).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..model.config import PopulationConfig
from ..model.count_engine import CountProtocol, CountPullEngine, CountSimulationResult
from ..noise import NoiseMatrix, uniform_level
from ..telemetry import Telemetry
from ..types import RngLike
from .parameters import SFSchedule

__all__ = ["CountSourceFilter"]


class CountSourceFilter(CountProtocol):
    """Count-level SF adapter for :class:`~repro.model.CountPullEngine`.

    Parameters
    ----------
    config:
        Population parameters (``n``, sources, ``h``).
    noise:
        Uniform noise level ``delta`` (float) or a uniform 2x2
        :class:`NoiseMatrix` (matching :class:`.FastSourceFilter`).
    schedule:
        Optional pre-built :class:`SFSchedule` (default: Eq. (19) with
        the calibrated constant).
    handoff:
        Optional mean-field handoff policy — any object with
        ``use_deterministic(p, n) -> bool`` (canonically
        :class:`repro.analysis.MeanFieldHandoff`).  When it approves,
        population draws are replaced by their rounded expectation.
    fault_model:
        ``None``, null, or one whose fault traits are among ``subset``,
        ``global-displays`` and ``uniform-channel``: a uniform
        :class:`~repro.faults.NoiseMisspecification`, a fixed or
        anti-majority :class:`~repro.faults.ByzantineDisplayFault`, a
        crash-stop :class:`~repro.faults.CrashFault` (no schedule) or a
        :class:`~repro.faults.StuckAtFault`, one subset possibly composed
        with a channel; :func:`repro.engines.admit_seams` refuses the
        rest.  The schedule stays sized from the assumed ``noise`` while
        the dynamics run at the true level (matching
        :class:`.FastSourceFilter`).  A subset fault's
        :class:`~repro.faults.CountView` splits the agents in two: the
        honest ones, whose opinion count the adapter keeps, and the
        faulty ones, whose own count it keeps only where they are judged
        (stuck-at, whose displays read it).  Displays are counted over
        the samplable pool and opinions over the judged agents.
    """

    alphabet_size = 2

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: Optional[SFSchedule] = None,
        constant: Optional[float] = None,
        handoff=None,
        fault_model=None,
    ) -> None:
        self.config = config
        self.delta = uniform_level(noise, 2)
        self._noise = noise
        self._dynamics_noise = noise
        self.dynamics_delta = self.delta
        from ..engines import admit_seams

        fault, _ = admit_seams("count", "sf", fault_model)
        self._view = None
        if fault is not None:
            # The gate admits only uniform true channels here.
            self.dynamics_delta = float(fault.effective_uniform_delta(self.delta))
            self._dynamics_noise = self.dynamics_delta
            self._view = fault.count_view(config, 2)
        view = self._view
        self._owned = 0 if view is None else view.owned
        # Judged faulty agents (stuck-at) keep an opinion count of their
        # own, which their displays may read.
        self._judged_owned = view is not None and view.judged
        # The honest agents, and the agents judged for consensus.
        self._honest = config.n - self._owned
        self._judged_n = config.n if self._judged_owned else self._honest
        if schedule is None:
            schedule = SFSchedule.from_config(config, self.delta, constant)
        self.schedule = schedule
        self.handoff = handoff
        # The stage plan, consumed in order by the engine.
        self._stages = schedule.stages()
        # Read every stage: bound once rather than recomputed.
        self._total_rounds = schedule.total_rounds
        self._correct = config.correct_opinion
        self._stage_index = 0
        self._phase0 = (0, 0.0)
        self.opinion_count = 0  # honest agents with opinion 1
        self.faulty_ones = 0  # faulty agents with opinion 1, if judged
        self.weak_count = 0  # honest agents with weak opinion 1
        self.boost_trace: List[float] = []
        self._engine = CountPullEngine(config, self._dynamics_noise)
        # Prices last the protocol's life; ready before any run, since the
        # mean-field engine and the verify legs call stage_law directly.
        self._start_pricing()

    # ------------------------------------------------------------------
    # The stage laws
    # ------------------------------------------------------------------
    def _start_pricing(self) -> None:
        super()._start_pricing()
        # Bound here, not at import: repro.theory.amplification pulls in
        # repro.analysis, which reaches back into repro.protocols — a
        # module-level import would close that cycle.
        from ..theory.tails import (
            binomial_vs_binomial_probability,
            majority_success_probability,
        )

        self._weak_law = binomial_vs_binomial_probability
        self._boost_law = majority_success_probability

    def shown_ones(self, kind: str, ones):
        """Agents displaying 1 in a stage of ``kind`` while ``ones`` agents
        hold opinion 1: sources show their preference and everyone else
        0 in Phase 0, 1 in Phase 1; in boosting everyone shows its
        opinion."""
        cfg = self.config
        if kind == "phase0":
            return cfg.s1
        if kind == "phase1":
            return cfg.n - cfg.s0
        return ones

    def stage_law(self, kind: str, samples: int, q: np.ndarray) -> Optional[float]:
        """P(an agent holds opinion 1 when a stage of ``kind`` ends), the
        ``p`` of the engine's ``Binomial(n, p)`` draw of the next 1-count,
        for ``samples`` observations per agent distributed as ``q``.

        Phase 0 changes no opinion (``None``); its Counter1 counts observed
        1s, which Phase 1's weak law compares with Counter0, the observed
        0s.  A boosting stage adopts the majority, priced from the
        majority side so that either consensus prices at exactly 0 or 1.
        Prices go through the protocol's memo.
        """
        if kind == "phase0":
            self._phase0 = (samples, float(q[1]))
            return None
        if kind == "phase1":
            return self._price(self._weak_law, *self._phase0, samples, float(q[0]))
        q0, q1 = float(q[0]), float(q[1])
        if q1 < q0:
            return 1.0 - self._price(self._boost_law, q0, samples)
        return self._price(self._boost_law, q1, samples)

    # ------------------------------------------------------------------
    # CountProtocol interface
    # ------------------------------------------------------------------
    def reset(self, rng: np.random.Generator) -> None:
        cfg = self.config
        self._stage_index = 0
        self.boost_trace = []
        # Initial opinions mirror the agent-level engines: random except
        # sources pinned on their preference.  They only matter for the
        # trace before the weak commit — SF ignores them otherwise.
        free = rng.binomial(self._honest - cfg.num_sources, 0.5)
        self.opinion_count = cfg.s1 + int(free)
        self.faulty_ones = 0
        if self._judged_owned:
            self.faulty_ones = int(rng.binomial(self._owned, 0.5))
        self.weak_count = 0

    def display_counts(self) -> tuple:
        kind = self._stages[self._stage_index].kind
        ones = self.shown_ones(kind, self.opinion_count)
        if self._view is None:
            return (self.config.n - ones, ones)
        # The faulty non-sources show 0 in Phase 0, 1 in Phase 1 and
        # their opinion in boosting, before the fault rewrites them.
        owned = self._owned
        own_ones = {"phase0": 0, "phase1": owned}.get(kind, self.faulty_ones)
        if kind == "phase1":
            ones -= owned
        return self._view.pool(
            (self._honest - ones, ones), (owned - own_ones, own_ones)
        )

    def gap(self, round_index: int) -> int:
        return self._stages[self._stage_index].rounds

    def advance(
        self,
        round_index: int,
        gap: int,
        q: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        stage = self._stages[self._stage_index]
        if gap < stage.rounds:
            # Truncated stage (engine hit max_rounds): opinions change
            # only when a stage ends.
            return
        kind = stage.kind
        p_one = self.stage_law(kind, gap * self.schedule.h, q)
        if p_one is not None:
            self.opinion_count = self._draw(self._honest, p_one, rng)
            if self._judged_owned:
                self.faulty_ones = self._draw(self._owned, p_one, rng)
            if kind == "phase1":
                self.weak_count = self.opinion_count
            elif self._correct is not None:
                ones, judged = self.opinion_count + self.faulty_ones, self._judged_n
                correct = ones if self._correct == 1 else judged - ones
                self.boost_trace.append(correct / judged)
        self._stage_index = min(self._stage_index + 1, len(self._stages) - 1)

    def opinion_counts(self) -> np.ndarray:
        ones = self.opinion_count + self.faulty_ones
        return np.array([self._judged_n - ones, ones], dtype=np.int64)

    def finished(self, round_index: int) -> bool:
        return round_index >= self._total_rounds

    def copies(self, round_index: int) -> int:
        # The plain boosting sub-phases left, this one included, share a
        # window and the majority law; the final one's window differs.
        if self._stages[self._stage_index].kind != "boosting":
            return 1
        return len(self._stages) - 1 - self._stage_index

    def repeat(self, stages: int, rng: np.random.Generator) -> None:
        super().repeat(stages, rng)
        self._stage_index += stages
        # A copy repeats the last sub-phase's correct fraction (the trace
        # is empty, and stays so, without a correct opinion).
        self.boost_trace += self.boost_trace[-1:] * stages

    # ------------------------------------------------------------------
    # Engine-seam convenience (repeat_trials / run_trials compatible)
    # ------------------------------------------------------------------
    @property
    def weak_fraction_correct(self) -> float:
        """Fraction of the honest agents' weak opinions equal to the
        correct opinion."""
        cfg = self.config
        if cfg.correct_opinion is None:
            return 0.5
        ones, honest = self.weak_count, self._honest
        correct = ones if cfg.correct_opinion == 1 else honest - ones
        return correct / honest

    def run(
        self,
        rng: RngLike = None,
        telemetry: Optional[Telemetry] = None,
        record_trace: bool = False,
    ) -> CountSimulationResult:
        """Execute one full SF run on a :class:`CountPullEngine`."""
        return self._engine.run(
            self,
            max_rounds=self.schedule.total_rounds,
            rng=rng,
            record_trace=record_trace,
            telemetry=telemetry,
        )

    def run_batch(
        self,
        replicas: int,
        rng: RngLike = None,
        telemetry: Optional[Telemetry] = None,
        record_trace: bool = False,
    ) -> List[CountSimulationResult]:
        """``replicas`` full SF runs in spawn mode, on one stage loop.

        Replica ``i`` runs on the ``i``-th generator spawned from ``rng``,
        the one :func:`repro.analysis.run_trials` gives trial ``i``, so it
        equals :meth:`run` on that generator.  One replica runs on this
        protocol's state, more on :meth:`replica` copies that leave it
        untouched.
        """
        protocols, rngs = self._batch(replicas, rng)
        return self._engine.run_batch(
            protocols,
            self.schedule.total_rounds,
            rngs,
            record_trace=record_trace,
            telemetry=telemetry,
        )
