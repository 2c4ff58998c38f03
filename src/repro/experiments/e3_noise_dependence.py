"""E3 — Theorem 4's noise dependence: T ~ delta/(1-2*delta)^2."""

from __future__ import annotations

from ..analysis import EngineTrial
from ..model.config import PopulationConfig
from ..types import SourceCounts
from .base import CheckResult, Experiment, ExperimentOutcome
from .registry import register


def noise_shape(delta: float) -> float:
    """The Theorem 4 noise factor."""
    return delta / (1.0 - 2.0 * delta) ** 2


@register
class NoiseDependence(Experiment):
    """SF round counts against the uniform noise level."""

    experiment_id = "E3"
    title = "SF rounds vs noise level (Theorem 4)"
    claim = "The dominant round term scales as delta/(1-2*delta)^2."

    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        self._validate_scale(scale)
        n, h = (2048, 16) if scale == "full" else (512, 16)
        deltas = (
            [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
            if scale == "full"
            else [0.1, 0.2, 0.3, 0.4]
        )
        trials = 6 if scale == "full" else 3
        rows = []
        for delta in deltas:
            config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=h)
            engine = self._engine_handle(config, delta)
            stats = self._trials(
                EngineTrial(engine), trials, seed=seed + int(delta * 1000)
            )
            rows.append(
                {
                    "delta": delta,
                    "rounds": engine.schedule.total_rounds,
                    "success_rate": stats.success_rate,
                    "theory_shape": round(noise_shape(delta), 3),
                    "rounds_per_shape": round(
                        engine.schedule.total_rounds / noise_shape(delta), 0
                    ),
                }
            )

        rounds = [r["rounds"] for r in rows]
        ratios = [r["rounds_per_shape"] for r in rows if r["delta"] >= 0.15]
        checks = [
            CheckResult(
                "w.h.p. convergence at every noise level",
                all(r["success_rate"] == 1.0 for r in rows),
            ),
            CheckResult(
                "rounds strictly increase with noise",
                all(b > a for a, b in zip(rounds, rounds[1:])),
            ),
            CheckResult(
                "rounds/shape constant in the noise-dominated regime",
                bool(ratios) and max(ratios) / min(ratios) < 2.5,
                f"band ratio={max(ratios) / min(ratios):.2f}" if ratios else "",
            ),
        ]
        return self._outcome(rows, checks, notes=f"n={n}, h={h}, s=1")
