"""ABL2 — SF design ablations: displays, boosting window, faults."""

from __future__ import annotations

import numpy as np

from ..analysis import EngineTrial
from ..model.config import PopulationConfig
from ..protocols import (
    FastAlternatingSourceFilter,
    FastSourceFilter,
    SFSchedule,
)
from ..types import SourceCounts
from .base import CheckResult, Experiment, ExperimentOutcome
from .registry import register

DELTA = 0.2


@register
class DesignAblation(Experiment):
    """Block vs alternating displays, boosting window, observation loss."""

    experiment_id = "ABL2"
    title = "SF design ablations (Remark 2.1 variant, window w, faults)"
    claim = (
        "The alternating-display variant matches block SF (the paper's "
        "conjecture); the boosting window has large slack; SF tolerates "
        "substantial observation loss."
    )

    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        self._validate_scale(scale)
        n = 1024 if scale == "full" else 512
        trials = 15 if scale == "full" else 8
        rows = []

        # (a) display-schedule variant.
        config = PopulationConfig(n=n, sources=SourceCounts(0, 2), h=n)
        weak_accuracy = {}
        for name, engine in (
            ("block (Algorithm 1)", FastSourceFilter(config, DELTA)),
            (
                "alternating (Remark 2.1)",
                FastAlternatingSourceFilter(config, DELTA),
            ),
        ):
            stats = self._trials(EngineTrial(engine), trials, seed=seed + 1)
            weak = float(
                np.mean(
                    [
                        engine.draw_weak_opinions(
                            np.random.default_rng(seed + t)
                        ).mean()
                        for t in range(trials)
                    ]
                )
            )
            weak_accuracy[name] = weak
            rows.append(
                {
                    "ablation": "displays",
                    "setting": name,
                    "success_rate": stats.success_rate,
                    "weak_accuracy": round(weak, 4),
                }
            )

        # (b) boosting-window shrink.
        config1 = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)
        numerators = (
            [2.0, 5.0, 10.0, 25.0, 100.0] if scale == "full" else [5.0, 100.0]
        )
        window_rates = {}
        for numerator in numerators:
            schedule = SFSchedule.from_config(
                config1, DELTA, boost_numerator=numerator
            )
            engine = FastSourceFilter(config1, DELTA, schedule=schedule)
            stats = self._trials(
                EngineTrial(engine), trials, seed=seed + int(numerator)
            )
            window_rates[numerator] = stats.success_rate
            rows.append(
                {
                    "ablation": "boost window",
                    "setting": f"w={schedule.boost_window}",
                    "success_rate": stats.success_rate,
                    "weak_accuracy": None,
                }
            )

        # (c) observation loss.
        losses = [0.0, 0.2, 0.4, 0.6] if scale == "full" else [0.0, 0.4]
        loss_rates = {}
        for loss in losses:
            engine = FastSourceFilter(config1, DELTA, sample_loss=loss)
            stats = self._trials(
                EngineTrial(engine), trials, seed=seed + int(loss * 100)
            )
            loss_rates[loss] = stats.success_rate
            rows.append(
                {
                    "ablation": "sample loss",
                    "setting": f"loss={loss}",
                    "success_rate": stats.success_rate,
                    "weak_accuracy": None,
                }
            )

        checks = [
            CheckResult(
                "alternating variant matches block SF (conjecture)",
                abs(
                    weak_accuracy["block (Algorithm 1)"]
                    - weak_accuracy["alternating (Remark 2.1)"]
                )
                < 0.05
                and all(
                    r["success_rate"] == 1.0
                    for r in rows
                    if r["ablation"] == "displays"
                ),
            ),
            CheckResult(
                "paper window (and 4x smaller) fully reliable",
                window_rates[100.0] == 1.0
                and window_rates[min(25.0, max(numerators[:-1]))] >= 0.8,
            ),
            CheckResult(
                "40% observation loss still converges",
                loss_rates[0.4] >= 0.9 and loss_rates[0.0] == 1.0,
            ),
        ]
        return self._outcome(rows, checks, notes=f"n={n}, delta={DELTA}")
