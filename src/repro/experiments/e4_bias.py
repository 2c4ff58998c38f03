"""E4 — bias dependence (1/s^2 speedup) and plurality consensus."""

from __future__ import annotations

import numpy as np

from ..analysis import EngineTrial, fit_loglog_slope
from ..model.config import PopulationConfig
from ..types import SourceCounts
from .base import CheckResult, Experiment, ExperimentOutcome
from .registry import register

DELTA = 0.2


@register
class BiasDependence(Experiment):
    """SF against the source bias; conflicting sources to plurality."""

    experiment_id = "E4"
    title = "SF vs source bias + plurality with conflicting sources"
    claim = (
        "The dominant round term scales as 1/min(s^2, n); with conflicting "
        "sources all agents adopt the plurality preference, down to s = 1."
    )

    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        self._validate_scale(scale)
        n, h = (8192, 8) if scale == "full" else (2048, 8)
        biases = [1, 2, 4, 8, 16, 32] if scale == "full" else [1, 2, 4, 8]
        trials = 6 if scale == "full" else 3

        rows = []
        for s in biases:
            config = PopulationConfig(n=n, sources=SourceCounts(0, s), h=h)
            engine = self._engine_handle(config, DELTA)
            stats = self._trials(EngineTrial(engine), trials, seed=seed + s)
            rows.append(
                {
                    "bias_s": s,
                    "rounds": engine.schedule.total_rounds,
                    "sample_budget_m": engine.schedule.m,
                    "success_rate": stats.success_rate,
                }
            )

        # Conflicting-source grid (appended to the same table).
        conflict_grid = [(1, 2), (3, 4), (5, 10), (10, 11), (20, 5)]
        conflict_ok = True
        conflict_n = 2048
        for s0, s1 in conflict_grid:
            config = PopulationConfig(
                n=conflict_n, sources=SourceCounts(s0, s1), h=conflict_n
            )
            engine = self._engine_handle(config, DELTA)
            point_ok = True
            for t in range(trials):
                result = engine.run(rng=seed + 31 * s0 + s1 + t)
                if hasattr(result, "final_opinions"):
                    unanimous = bool(
                        np.all(result.final_opinions == config.correct_opinion)
                    )
                else:  # count engine: opinions exist only as counts
                    unanimous = (
                        int(result.final_opinion_counts[config.correct_opinion])
                        == config.n
                    )
                point_ok &= result.converged and unanimous
            conflict_ok &= point_ok
            rows.append(
                {
                    "bias_s": f"({s0},{s1})",
                    "rounds": engine.schedule.total_rounds,
                    "sample_budget_m": engine.schedule.m,
                    "success_rate": 1.0 if point_ok else 0.0,
                }
            )

        pure = [r for r in rows if isinstance(r["bias_s"], int)]
        quad = [r for r in pure if r["bias_s"] <= 4]
        budget_slope, _, _ = fit_loglog_slope(
            [r["bias_s"] for r in quad], [r["sample_budget_m"] for r in quad]
        )
        rounds = [r["rounds"] for r in pure]
        checks = [
            CheckResult(
                "w.h.p. convergence at every bias",
                all(r["success_rate"] == 1.0 for r in pure),
            ),
            CheckResult(
                "rounds strictly shrink with bias",
                all(b < a for a, b in zip(rounds, rounds[1:])),
            ),
            CheckResult(
                "budget slope ~ -2 in the noise-dominated regime",
                -2.2 < budget_slope < -1.7,
                f"slope={budget_slope:.3f}",
            ),
            CheckResult(
                "conflicting sources: everyone adopts the plurality",
                conflict_ok,
            ),
        ]
        return self._outcome(rows, checks, notes=f"n={n}, h={h}, delta={DELTA}")
