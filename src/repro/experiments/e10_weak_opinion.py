"""E10 — Lemmas 28/36: weak-opinion accuracy and independence."""

from __future__ import annotations

import math

import numpy as np

from ..model.config import PopulationConfig
from ..protocols import (
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SSFSchedule,
)
from ..theory import (
    sf_step_distribution,
    ssf_step_distribution,
    weak_opinion_success_probability,
)
from ..types import SourceCounts
from .base import CheckResult, Experiment, ExperimentOutcome
from .registry import register

SF_GRID_FULL = [
    (256, 0.2, 1),
    (1024, 0.2, 1),
    (1024, 0.35, 1),
    (1024, 0.2, 8),
    (4096, 0.25, 2),
]
SF_GRID_QUICK = [(256, 0.2, 1), (1024, 0.2, 1)]
SSF_GRID_FULL = [(256, 0.1), (1024, 0.1), (1024, 0.2)]
SSF_GRID_QUICK = [(256, 0.1)]


@register
class WeakOpinionQuality(Experiment):
    """Monte-Carlo weak-opinion accuracy vs the closed-form oracles."""

    experiment_id = "E10"
    title = "weak-opinion accuracy (Lemmas 28 and 36)"
    claim = (
        "After the listening stage every weak opinion is correct with "
        "probability 1/2 + Omega(sqrt(log n / n)), independently across "
        "agents."
    )

    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        self._validate_scale(scale)
        trials = 40 if scale == "full" else 15
        sf_grid = SF_GRID_FULL if scale == "full" else SF_GRID_QUICK
        ssf_grid = SSF_GRID_FULL if scale == "full" else SSF_GRID_QUICK
        rows = []

        sf_ok = True
        for n, delta, s1 in sf_grid:
            config = PopulationConfig(n=n, sources=SourceCounts(0, s1), h=n)
            engine = FastSourceFilter(config, delta)
            samples = engine.schedule.phase_rounds * engine.schedule.h
            step = sf_step_distribution(config, delta)
            predicted = weak_opinion_success_probability(step, samples)
            means = [
                engine.draw_weak_opinions(np.random.default_rng(seed + t)).mean()
                for t in range(trials)
            ]
            measured = float(np.mean(means))
            sf_ok &= measured > 0.5 and abs(measured - predicted) < 0.02
            rows.append(
                {
                    "protocol": "SF",
                    "n": n,
                    "delta": delta,
                    "s": s1,
                    "predicted": round(predicted, 4),
                    "measured": round(measured, 4),
                    "floor": round(0.5 + math.sqrt(math.log(n) / n), 4),
                }
            )

        ssf_ok = True
        for n, delta in ssf_grid:
            config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)
            schedule = SSFSchedule.from_config(config, delta)
            step = ssf_step_distribution(config, delta)
            predicted = weak_opinion_success_probability(
                step, schedule.epoch_rounds * config.h
            )
            means = []
            for t in range(max(trials // 3, 4)):
                engine = FastSelfStabilizingSourceFilter(
                    config, delta, schedule=schedule
                )
                engine.run(
                    max_rounds=schedule.epoch_rounds,
                    rng=seed + t,
                    stop_on_consensus=False,
                )
                means.append(engine.weak.mean())
            measured = float(np.mean(means))
            ssf_ok &= measured > 0.5 and abs(measured - predicted) < 0.03
            rows.append(
                {
                    "protocol": "SSF",
                    "n": n,
                    "delta": delta,
                    "s": 1,
                    "predicted": round(predicted, 4),
                    "measured": round(measured, 4),
                    "floor": round(0.5 + math.sqrt(math.log(n) / n), 4),
                }
            )

        # Independence: binomial variance of the correct-count.
        config = PopulationConfig(n=512, sources=SourceCounts(0, 1), h=512)
        engine = FastSourceFilter(config, 0.2)
        var_trials = 300 if scale == "full" else 120
        counts = [
            int(engine.draw_weak_opinions(np.random.default_rng(seed + t)).sum())
            for t in range(var_trials)
        ]
        variance = float(np.var(counts))
        p = float(np.mean(counts)) / 512
        expected_var = 512 * p * (1 - p)
        independence_ok = 0.6 * expected_var < variance < 1.4 * expected_var

        checks = [
            CheckResult(
                "SF Monte Carlo matches Lemma 28 oracle (< 0.02)", sf_ok
            ),
            CheckResult(
                "SSF Monte Carlo matches Lemma 36 oracle (< 0.03)", ssf_ok
            ),
            CheckResult(
                "weak opinions independent (binomial variance)",
                independence_ok,
                f"var={variance:.1f} vs binomial {expected_var:.1f}",
            ),
        ]
        return self._outcome(rows, checks)
