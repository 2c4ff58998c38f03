"""Experiment harness: repeated trials, sweeps, statistics and reporting."""

from .resilience import (
    ChaosError,
    ChaosSpec,
    ChaosTrial,
    ResilienceConfig,
    TrialInfo,
)
from .trials import EngineTrial, TrialStats, repeat_trials, run_length, run_trials
from .sweep import scaling_sweep
from .stats import bootstrap_ci, fit_loglog_slope, median_and_iqr, wilson_interval
from .tables import format_markdown_table, format_table
from .io import write_csv, write_json
from .mean_field import (
    MeanFieldEngine,
    MeanFieldHandoff,
    MeanFieldRunResult,
    MeanFieldTrajectory,
    boosting_map,
    iterate_map,
    majority_map,
    voter_fixed_point,
    voter_map,
)
from .ascii_plots import bar_chart, line_plot, scatter_plot
from .sequential import SPRT, SPRTDecision, adaptive_trials
from .report import instance_report
from .convergence import (
    hitting_time,
    plateaus,
    stable_consensus_index,
    time_average,
)

__all__ = [
    "hitting_time",
    "instance_report",
    "plateaus",
    "stable_consensus_index",
    "time_average",
    "SPRT",
    "SPRTDecision",
    "adaptive_trials",
    "bar_chart",
    "line_plot",
    "scatter_plot",
    "MeanFieldEngine",
    "MeanFieldHandoff",
    "MeanFieldRunResult",
    "MeanFieldTrajectory",
    "boosting_map",
    "iterate_map",
    "majority_map",
    "voter_fixed_point",
    "voter_map",
    "ChaosError",
    "ChaosSpec",
    "ChaosTrial",
    "ResilienceConfig",
    "TrialInfo",
    "EngineTrial",
    "TrialStats",
    "bootstrap_ci",
    "fit_loglog_slope",
    "format_markdown_table",
    "format_table",
    "median_and_iqr",
    "repeat_trials",
    "run_length",
    "run_trials",
    "scaling_sweep",
    "wilson_interval",
    "write_csv",
    "write_json",
]
