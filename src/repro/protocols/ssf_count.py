"""Count-level Self-stabilizing Source Filter: O(1) draws per epoch.

From a clean start every agent's buffer fills at ``h`` messages per
round, so the flush clock is global and one epoch holds exactly
``T = ceil(m/h) * h`` observations per agent, i.i.d.
``Multinomial(T, q)`` across agents given the display counts.  The two
per-agent votes collapse to closed-form success probabilities:

* **Opinion** — the vote compares ``M[N1] + M[S1]`` against
  ``M[0] + M[S0]``; the four tallies sum to ``T``, so the 1-side is
  exactly ``Binomial(T, q[N1] + q[S1])`` and the per-agent success
  probability is an O(1) majority tail.  The new 1-opinion count is
  ``Binomial(n, p_op)`` — exact.
* **Weak opinion** — compares the two source tallies ``M[S1]`` vs
  ``M[S0]``, two coordinates of one multinomial:
  :func:`repro.theory.tails.multinomial_pair_gt_probability`.  Only
  non-source weak opinions feed back into the displays, so the weak
  count chain (``Binomial(n - num_sources, p_weak)``) is exact.

Approximation note: within one epoch an agent's weak and opinion votes
share the same multinomial draw, so the *joint* per-epoch law of
``(weak count, opinion count)`` has a dependence this adapter drops
(each is drawn from its exact marginal, independently).  The future of
the display chain depends only on the weak count and buffers are zeroed
at every flush, so all marginal trajectories remain exact; only
same-epoch weak/opinion cross-correlations are approximated.  The
``laws`` and ``reliability`` verify legs bound the effect statistically.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..model.config import PopulationConfig
from ..model.count_engine import CountProtocol, CountPullEngine, CountSimulationResult
from ..noise import NoiseMatrix, uniform_level
from ..telemetry import Telemetry
from ..types import RngLike
from .parameters import SSFSchedule
from .ssf import SYMBOL_NONSOURCE_1, SYMBOL_SOURCE_0, SYMBOL_SOURCE_1

__all__ = ["CountSelfStabilizingSourceFilter"]


class CountSelfStabilizingSourceFilter(CountProtocol):
    """Count-level SSF adapter for :class:`~repro.model.CountPullEngine`.

    Parameters
    ----------
    config:
        Population parameters.
    noise:
        Uniform noise level over the 4-letter alphabet (float in
        ``[0, 1/4)``) or a uniform 4x4 :class:`NoiseMatrix`.
    schedule:
        Optional pre-built :class:`SSFSchedule` (default: Eq. (30) with
        the calibrated constant).
    handoff:
        Optional mean-field handoff policy (``use_deterministic(p, n)``);
        approved draws become rounded expectations.
    fault_model:
        ``None``, null, or one whose fault traits are among ``subset``,
        ``global-displays`` and ``uniform-channel``: a uniform 4-letter
        :class:`~repro.faults.NoiseMisspecification`, a fixed or
        anti-majority :class:`~repro.faults.ByzantineDisplayFault`, a
        crash-stop :class:`~repro.faults.CrashFault` (no schedule) or a
        :class:`~repro.faults.StuckAtFault`, one subset possibly composed
        with a channel; :func:`repro.engines.admit_seams` refuses the
        rest, scheduled crashes included (a crash window that opens
        mid-epoch mixes two laws in one epoch's tallies).  The schedule
        stays sized from the assumed ``noise`` while the dynamics run at
        the true level.  A subset fault's
        :class:`~repro.faults.CountView` splits the non-sources in two:
        the honest ones, whose weak count the adapter keeps, and the
        faulty ones, whose weak count it keeps only where they are
        judged (stuck-at, whose displays read it).  Displays are counted
        over the samplable pool and opinions over the judged agents.
    """

    alphabet_size = 4

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: Optional[SSFSchedule] = None,
        constant: Optional[float] = None,
        handoff=None,
        fault_model=None,
    ) -> None:
        self.config = config
        self.delta = uniform_level(noise, 4)
        self._noise = noise
        self._dynamics_noise = noise
        self.dynamics_delta = self.delta
        from ..engines import admit_seams

        fault, _ = admit_seams("count", "ssf", fault_model)
        self._view = None
        if fault is not None:
            # The gate admits only uniform true channels here.
            self.dynamics_delta = uniform_level(
                fault.effective_uniform_delta(self.delta), 4
            )
            self._dynamics_noise = self.dynamics_delta
            self._view = fault.count_view(config, 4)
        view = self._view
        self._owned = 0 if view is None else view.owned
        # Judged faulty agents (stuck-at) keep a weak count of their
        # own, which their displays may read.
        self._judged_owned = view is not None and view.judged
        # The honest non-sources, and the agents judged for consensus.
        self._honest = config.n - config.num_sources - self._owned
        self._judged_n = config.n - (0 if self._judged_owned else self._owned)
        if schedule is None:
            schedule = SSFSchedule.from_config(config, self.delta, constant)
        self.schedule = schedule
        self.handoff = handoff
        self.weak_count = 0  # honest non-sources with weak opinion 1
        self.faulty_weak = 0  # faulty agents with weak opinion 1, if judged
        self.opinion_count = 0  # judged agents with opinion 1
        self._fill = 0
        self._engine = CountPullEngine(config, self._dynamics_noise)
        # Prices last the protocol's life.
        self._start_pricing()

    def _start_pricing(self) -> None:
        super()._start_pricing()
        # Bound here, not at import: a module-level theory import would
        # close the protocols -> theory -> analysis -> protocols cycle.
        from ..theory.tails import (
            majority_success_probability,
            multinomial_pair_gt_probability,
        )

        self._opinion_law = majority_success_probability
        self._weak_law = multinomial_pair_gt_probability

    # ------------------------------------------------------------------
    # CountProtocol interface
    # ------------------------------------------------------------------
    def reset(self, rng: np.random.Generator) -> None:
        cfg = self.config
        # Clean start: random opinions (sources pinned on preference),
        # weak opinions copy opinions — one shared draw keeps the joint
        # initial law exact.
        free_ones = int(rng.binomial(self._honest, 0.5))
        self.weak_count = free_ones
        self.opinion_count = cfg.s1 + free_ones
        self.faulty_weak = 0
        if self._judged_owned:
            self.faulty_weak = int(rng.binomial(self._owned, 0.5))
            self.opinion_count += self.faulty_weak
        self._fill = 0

    def display_counts(self) -> np.ndarray:
        cfg = self.config
        counts = np.zeros(4, dtype=np.int64)
        counts[SYMBOL_SOURCE_0] = cfg.s0
        counts[SYMBOL_SOURCE_1] = cfg.s1
        counts[SYMBOL_NONSOURCE_1] = self.weak_count
        counts[0] = self._honest - self.weak_count
        if self._view is None:
            return counts
        own = np.zeros(4, dtype=np.int64)
        own[SYMBOL_NONSOURCE_1] = self.faulty_weak
        own[0] = self._owned - self.faulty_weak
        return self._view.pool(counts, own)

    def gap(self, round_index: int) -> int:
        sched = self.schedule
        remaining = max(sched.m - self._fill, 1)
        return max(int(np.ceil(remaining / sched.h)), 1)

    def advance(
        self,
        round_index: int,
        gap: int,
        q: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        sched = self.schedule
        self._fill += gap * sched.h
        if self._fill < sched.m:
            # Truncated gap (engine hit max_rounds): buffers not yet due.
            return
        samples = self._fill
        p_op = self._price(
            self._opinion_law,
            float(q[SYMBOL_NONSOURCE_1] + q[SYMBOL_SOURCE_1]), samples,
        )
        p_weak = self._price(
            self._weak_law,
            samples, float(q[SYMBOL_SOURCE_1]), float(q[SYMBOL_SOURCE_0]),
        )
        self.opinion_count = self._draw(self._judged_n, p_op, rng)
        self.weak_count = self._draw(self._honest, p_weak, rng)
        if self._judged_owned:
            self.faulty_weak = self._draw(self._owned, p_weak, rng)
        self._fill = 0

    def opinion_counts(self) -> np.ndarray:
        judged = self._judged_n
        return np.array([judged - self.opinion_count, self.opinion_count], dtype=np.int64)

    # ------------------------------------------------------------------
    # Engine-seam convenience (repeat_trials / run_trials compatible)
    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        telemetry: Optional[Telemetry] = None,
        record_trace: bool = False,
    ) -> CountSimulationResult:
        """Simulate SSF until consensus stabilizes or the budget runs out.

        Mirrors :meth:`.FastSelfStabilizingSourceFilter.run` defaults:
        ``max_rounds = 20 * epoch_rounds`` and early stop once consensus
        has held two whole epochs.
        """
        sched = self.schedule
        if max_rounds is None:
            max_rounds = 20 * sched.epoch_rounds
        return self._engine.run(
            self,
            max_rounds=max_rounds,
            rng=rng,
            stop_on_consensus=stop_on_consensus,
            consensus_patience=2 * sched.epoch_rounds,
            record_trace=record_trace,
            telemetry=telemetry,
        )

    def run_batch(
        self,
        replicas: int,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        telemetry: Optional[Telemetry] = None,
        record_trace: bool = False,
    ) -> List[CountSimulationResult]:
        """``replicas`` clean-start SSF runs in spawn mode, on one loop.

        From a clean start every replica's buffers fill at ``h`` per
        round, so the replicas share the flush clock; those that settle
        under ``stop_on_consensus`` leave the batch.  Replica ``i`` runs
        on the ``i``-th generator spawned from ``rng``, the one
        :func:`repro.analysis.run_trials` gives trial ``i``, so it equals
        :meth:`run` on that generator with the same arguments.  One
        replica runs on this protocol's state, more on :meth:`replica`
        copies that leave it untouched.
        """
        sched = self.schedule
        if max_rounds is None:
            max_rounds = 20 * sched.epoch_rounds
        protocols, rngs = self._batch(replicas, rng)
        return self._engine.run_batch(
            protocols,
            max_rounds,
            rngs,
            stop_on_consensus=stop_on_consensus,
            consensus_patience=2 * sched.epoch_rounds,
            record_trace=record_trace,
            telemetry=telemetry,
        )
