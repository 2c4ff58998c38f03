"""A non-implementable reference: the known-source oracle.

Section 1.2 explains why noisy PULL is hard: an agent cannot tell which
of its samples came from a source.  This oracle baseline *can* — it is
given the source identities for free, keeps only source-originated
samples, and decides by majority once it holds ``k_min`` of them.  Its
convergence time, ~``ceil(k_min * n / (h * (s0+s1)))`` rounds, is the
information-optimal reference the benchmarks plot alongside SF: the gap
between SF and the oracle is the price of anonymity.

Vectorized exactness: the number of source-samples an agent collects per
round is ``Binomial(h, (s0+s1)/n)``, and each source-sample shows the
majority preference with probability
``delta + (s_maj/(s0+s1))*(1-2*delta)``.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..model.config import PopulationConfig
from ..noise import uniform_observation
from ..types import RngLike, coerce_rng
from .base import ConsensusMonitor, DynamicsResult


class KnownSourceOracle:
    """Majority over source-originated samples, identities revealed."""

    def __init__(self, config: PopulationConfig, delta: float, k_min: int = None) -> None:
        if not 0.0 <= delta <= 0.5:
            raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
        self.config = config
        self.delta = delta
        if k_min is None:
            # Enough source samples for a w.h.p.-correct majority: the
            # per-sample advantage is (s/(s0+s1))*(1-2*delta); Chernoff
            # needs ~log(n)/advantage^2 samples.
            s = max(config.bias, 1)
            advantage = (s / config.num_sources) * (1.0 - 2.0 * delta)
            k_min = max(int(math.ceil(9.0 * math.log(config.n) / advantage**2)), 1)
        self.k_min = k_min

    def run(
        self,
        max_rounds: int,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        patience: int = 0,
        record_trace: bool = False,
    ) -> DynamicsResult:
        """Simulate until every agent has decided (or the budget runs out)."""
        generator = coerce_rng(rng)
        cfg = self.config
        n, h = cfg.n, cfg.h
        correct = cfg.correct_opinion
        p_source = cfg.num_sources / n
        # P(a source-sample reads as `correct` after noise).
        s_maj = max(cfg.s0, cfg.s1)
        p_correct_read = uniform_observation(
            s_maj / cfg.num_sources, self.delta, 2
        )

        collected = np.zeros(n, dtype=np.int64)
        reads_correct = np.zeros(n, dtype=np.int64)
        opinions = generator.integers(0, 2, size=n).astype(np.int8)
        decided = np.zeros(n, dtype=bool)
        monitor = ConsensusMonitor()
        trace: List[float] = []
        t = 0
        for t in range(max_rounds):
            hits = generator.binomial(h, p_source, size=n)
            good = generator.binomial(hits, p_correct_read)
            collected += hits
            reads_correct += good
            newly = (~decided) & (collected >= self.k_min)
            if newly.any():
                maj = 2 * reads_correct[newly] > collected[newly]
                votes = np.where(maj, correct, 1 - correct).astype(np.int8)
                ties = 2 * reads_correct[newly] == collected[newly]
                if ties.any():
                    coin = generator.integers(0, 2, size=int(ties.sum())).astype(np.int8)
                    votes[ties] = coin
                opinions[newly] = votes
                decided[newly] = True
            unanimous = bool(decided.all() and np.all(opinions == correct))
            monitor.update(t, unanimous)
            if record_trace:
                trace.append(float(np.mean(decided & (opinions == correct))))
            if stop_on_consensus and monitor.stable_for(t, patience):
                break

        converged = bool(decided.all() and np.all(opinions == correct))
        return DynamicsResult(
            converged=converged,
            strict_converged=converged,
            consensus_round=monitor.consensus_start if converged else None,
            rounds_executed=t + 1,
            final_opinions=opinions,
            trace=trace,
        )

    @property
    def expected_rounds(self) -> float:
        """Expected rounds for the slowest agent to collect ``k_min`` samples."""
        cfg = self.config
        per_round = cfg.h * cfg.num_sources / cfg.n
        return self.k_min / per_round
