"""Instance reports: everything the library knows about one configuration.

``instance_report`` assembles, for a single ``(n, s0, s1, h, delta)``
instance: the Section 2.3 regime classification, the three theorem
bounds, the resolved SF/SSF schedules, predicted weak-opinion quality,
and (optionally) measured convergence over a few seeded trials — as one
markdown document.  The CLI exposes it as ``repro-spreading report``.
"""

from __future__ import annotations

from typing import List, Optional

from ..model.config import PopulationConfig
from ..protocols import (
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SSFSchedule,
)
from ..theory import (
    lower_bound_rounds,
    regime_report,
    sf_step_distribution,
    sf_upper_bound_rounds,
    ssf_step_distribution,
    ssf_upper_bound_rounds,
    weak_opinion_success_probability,
)
from .tables import format_markdown_table
from .trials import repeat_trials

__all__ = ["instance_report"]


def instance_report(
    config: PopulationConfig,
    delta: float,
    trials: int = 0,
    seed: Optional[int] = 0,
) -> str:
    """Build the markdown report for one instance.

    ``trials > 0`` additionally measures SF and SSF convergence over
    that many independent runs (SSF only when ``delta < 1/4``).
    """
    lines: List[str] = []
    lines.append(
        f"# Instance report: n={config.n}, s0={config.s0}, s1={config.s1}, "
        f"h={config.h}, delta={delta}"
    )

    report = regime_report(config, delta)
    lines.append("")
    lines.append("## Regime (Section 2.3)")
    lines.append(report.describe())

    lines.append("")
    lines.append("## Theory bounds (unit constants)")
    bound_rows = [
        {
            "bound": "Theorem 3 (lower)",
            "rounds": round(
                lower_bound_rounds(config.n, config.h, max(config.bias, 1), delta),
                1,
            ),
        },
        {
            "bound": "Theorem 4 (SF upper)",
            "rounds": round(sf_upper_bound_rounds(config, delta), 1),
        },
    ]
    if delta < 0.25:
        bound_rows.append(
            {
                "bound": "Theorem 5 (SSF upper)",
                "rounds": round(ssf_upper_bound_rounds(config, delta), 1),
            }
        )
    lines.append(format_markdown_table(bound_rows))

    lines.append("")
    lines.append("## Schedules and predicted weak opinions")
    sf_schedule = SFSchedule.from_config(config, delta)
    sf_step = sf_step_distribution(config, delta)
    sf_quality = weak_opinion_success_probability(
        sf_step, sf_schedule.phase_rounds * config.h
    )
    schedule_rows = [
        {
            "protocol": "SF",
            "m": sf_schedule.m,
            "total_rounds": sf_schedule.total_rounds,
            "predicted_weak_accuracy": round(sf_quality, 4),
        }
    ]
    if delta < 0.25:
        ssf_schedule = SSFSchedule.from_config(config, delta)
        ssf_step = ssf_step_distribution(config, delta)
        ssf_quality = weak_opinion_success_probability(
            ssf_step, ssf_schedule.epoch_rounds * config.h
        )
        schedule_rows.append(
            {
                "protocol": "SSF",
                "m": ssf_schedule.m,
                "total_rounds": ssf_schedule.convergence_horizon,
                "predicted_weak_accuracy": round(ssf_quality, 4),
            }
        )
    lines.append(format_markdown_table(schedule_rows))

    if trials > 0:
        lines.append("")
        lines.append(f"## Measured ({trials} trials, seed={seed})")
        sf_engine = FastSourceFilter(config, delta)
        sf_stats = repeat_trials(
            lambda g: sf_engine.run(g), trials=trials, seed=seed
        )
        measured_rows = [
            {
                "protocol": "SF",
                "success": f"{sf_stats.successes}/{trials}",
                "rounds": sf_schedule.total_rounds,
            }
        ]
        if delta < 0.25:
            ssf_stats = repeat_trials(
                lambda g: FastSelfStabilizingSourceFilter(config, delta).run(
                    rng=g
                ),
                trials=trials,
                seed=seed,
            )
            measured_rows.append(
                {
                    "protocol": "SSF",
                    "success": f"{ssf_stats.successes}/{trials}",
                    "rounds": ssf_stats.median,
                }
            )
        lines.append(format_markdown_table(measured_rows))

    return "\n".join(lines)
