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
        ``None``, null, or one whose only fault trait is
        ``uniform-channel`` (a uniform 4-letter
        :class:`~repro.faults.NoiseMisspecification`, possibly composed);
        :func:`repro.engines.admit_seams` refuses the rest.  The schedule
        stays sized from the assumed ``noise`` while the dynamics run at
        the true level.
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
        if fault is not None:
            # The gate admits only uniform true channels here.
            self.dynamics_delta = uniform_level(
                fault.effective_uniform_delta(self.delta), 4
            )
            self._dynamics_noise = self.dynamics_delta
        if schedule is None:
            kwargs = {} if constant is None else {"constant": constant}
            schedule = SSFSchedule.from_config(config, self.delta, **kwargs)
        self.schedule = schedule
        self.handoff = handoff
        self.weak_count = 0  # non-source agents with weak opinion 1
        self.opinion_count = 0  # all agents with opinion 1
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
        free_ones = int(rng.binomial(cfg.n - cfg.num_sources, 0.5))
        self.weak_count = free_ones
        self.opinion_count = cfg.s1 + free_ones
        self._fill = 0

    def display_counts(self) -> np.ndarray:
        cfg = self.config
        counts = np.zeros(4, dtype=np.int64)
        counts[SYMBOL_SOURCE_0] = cfg.s0
        counts[SYMBOL_SOURCE_1] = cfg.s1
        counts[SYMBOL_NONSOURCE_1] = self.weak_count
        counts[0] = cfg.n - cfg.num_sources - self.weak_count
        return counts

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
        cfg, sched = self.config, self.schedule
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
        self.opinion_count = self._draw(cfg.n, p_op, rng)
        self.weak_count = self._draw(cfg.n - cfg.num_sources, p_weak, rng)
        self._fill = 0

    def opinion_counts(self) -> np.ndarray:
        n = self.config.n
        return np.array([n - self.opinion_count, self.opinion_count], dtype=np.int64)

    # ------------------------------------------------------------------
    # Engine-seam convenience (repeat_trials / run_trials compatible)
    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        consensus_epochs: int = 2,
        telemetry: Optional[Telemetry] = None,
        record_trace: bool = False,
    ) -> CountSimulationResult:
        """Simulate SSF until consensus stabilizes or the budget runs out.

        Mirrors :meth:`.FastSelfStabilizingSourceFilter.run` defaults:
        ``max_rounds = 20 * epoch_rounds`` and early stop once consensus
        has held ``consensus_epochs`` whole epochs.
        """
        sched = self.schedule
        if max_rounds is None:
            max_rounds = 20 * sched.epoch_rounds
        return self._engine.run(
            self,
            max_rounds=max_rounds,
            rng=rng,
            stop_on_consensus=stop_on_consensus,
            consensus_patience=consensus_epochs * sched.epoch_rounds,
            record_trace=record_trace,
            telemetry=telemetry,
        )

    def run_batch(
        self,
        replicas: int,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        consensus_epochs: int = 2,
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
            consensus_patience=consensus_epochs * sched.epoch_rounds,
            record_trace=record_trace,
            telemetry=telemetry,
        )
