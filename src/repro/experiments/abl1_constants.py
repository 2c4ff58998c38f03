"""ABL1 — calibration ablation: where do the theory constants cliff?"""

from __future__ import annotations

from ..analysis import EngineTrial
from ..model.config import PopulationConfig
from ..protocols import (
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SSFSchedule,
)
from ..protocols.parameters import DEFAULT_SF_CONSTANT, DEFAULT_SSF_CONSTANT
from ..types import SourceCounts
from .base import CheckResult, Experiment, ExperimentOutcome
from .registry import register


@register
class ConstantAblation(Experiment):
    """Success-rate cliffs of the Eq. (19)/(30) constants."""

    experiment_id = "ABL1"
    title = "calibration ablation: Eq. (19)/(30) constants"
    claim = (
        "The paper's 'sufficiently large' constants have an empirical "
        "cliff; the library defaults sit on the plateau."
    )

    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        self._validate_scale(scale)
        trials = 20 if scale == "full" else 10
        rows = []

        # SF cliff: hard regime (high noise, moderate h) — at h = n the
        # budget slack hides the cliff entirely.
        sf_config = PopulationConfig(n=1024, sources=SourceCounts(0, 1), h=32)
        c1_grid = (
            [0.02, 0.1, 0.25, 1.0, 4.0] if scale == "full" else [0.02, 1.0, 4.0]
        )
        for c1 in c1_grid:
            engine = FastSourceFilter(sf_config, 0.35, constant=c1)
            stats = self._trials(
                EngineTrial(engine), trials, seed=seed + int(c1 * 100)
            )
            rows.append(
                {
                    "knob": "c1 (SF, Eq. 19)",
                    "value": c1,
                    "is_default": c1 == DEFAULT_SF_CONSTANT,
                    "m": engine.schedule.m,
                    "success_rate": stats.success_rate,
                }
            )

        # SSF cliff probe.
        ssf_config = PopulationConfig(n=512, sources=SourceCounts(0, 1), h=512)
        c2_grid = (
            [2.0, 10.0, 25.0, 50.0, 100.0] if scale == "full" else [2.0, 50.0]
        )
        for c2 in c2_grid:
            schedule = SSFSchedule.from_config(ssf_config, 0.15, constant=c2)
            engine = FastSelfStabilizingSourceFilter(
                ssf_config, 0.15, schedule=schedule
            )
            stats = self._trials(
                EngineTrial(engine), max(trials // 2, 5), seed=seed + int(c2)
            )
            rows.append(
                {
                    "knob": "c2 (SSF, Eq. 30)",
                    "value": c2,
                    "is_default": c2 == DEFAULT_SSF_CONSTANT,
                    "m": schedule.m,
                    "success_rate": stats.success_rate,
                }
            )

        sf_rows = {r["value"]: r for r in rows if r["knob"].startswith("c1")}
        ssf_rows = {r["value"]: r for r in rows if r["knob"].startswith("c2")}
        checks = [
            CheckResult(
                "SF default (and above) on the plateau",
                sf_rows[1.0]["success_rate"] == 1.0
                and sf_rows[4.0]["success_rate"] == 1.0,
            ),
            CheckResult(
                "tiny SF constants visibly fail",
                sf_rows[0.02]["success_rate"] < 0.95,
                f"rate={sf_rows[0.02]['success_rate']}",
            ),
            CheckResult(
                "SSF default on the plateau",
                ssf_rows[50.0]["success_rate"] == 1.0,
            ),
        ]
        return self._outcome(rows, checks)
