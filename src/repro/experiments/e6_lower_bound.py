"""E6 — Theorem 3's lower bound: the upper bound tracks it within log n."""

from __future__ import annotations

import math

from ..analysis import EngineTrial
from ..model.config import PopulationConfig
from ..protocols import FastSourceFilter
from ..theory import lower_bound_rounds
from ..types import SourceCounts
from .base import CheckResult, Experiment, ExperimentOutcome
from .registry import register

DELTA = 0.25


@register
class LowerBoundTightness(Experiment):
    """Measured SF rounds vs the Theorem 3 expression across (n, h)."""

    experiment_id = "E6"
    title = "SF rounds vs Theorem 3 lower bound"
    claim = (
        "Omega(delta*n/(h*s^2*(1-2delta)^2)) rounds are necessary; "
        "Theorem 4 matches up to an O(log n) factor."
    )

    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        self._validate_scale(scale)
        sizes = [1024, 4096, 16384] if scale == "full" else [1024, 4096]
        trials = 4 if scale == "full" else 2
        rows = []
        for n in sizes:
            for h_label, h in (("1", 1), ("sqrt(n)", int(n**0.5)), ("n", n)):
                config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=h)
                engine = FastSourceFilter(config, DELTA)
                stats = self._trials(
                    EngineTrial(engine), trials, seed=seed + n + h
                )
                lower = lower_bound_rounds(n, h, 1, DELTA)
                rows.append(
                    {
                        "n": n,
                        "h": h_label,
                        "rounds": engine.schedule.total_rounds,
                        "lower_bound": round(lower, 1),
                        "ratio_per_log_n": round(
                            engine.schedule.total_rounds
                            / max(lower, 1)
                            / math.log(n),
                            2,
                        ),
                        "success_rate": stats.success_rate,
                    }
                )

        meaningful = [r for r in rows if r["h"] != "n"]
        ratios = [r["ratio_per_log_n"] for r in meaningful]
        checks = [
            CheckResult(
                "w.h.p. convergence everywhere",
                all(r["success_rate"] == 1.0 for r in rows),
            ),
            CheckResult(
                "nobody beats the lower bound",
                all(r["rounds"] >= r["lower_bound"] for r in rows),
            ),
            CheckResult(
                "measured = Theta(lower bound * log n) where informative",
                max(ratios) / min(ratios) < 6.0 and max(ratios) < 60.0,
                f"ratio/log(n) in [{min(ratios):.1f}, {max(ratios):.1f}]",
            ),
        ]
        return self._outcome(rows, checks, notes=f"delta={DELTA}, s=1")
