"""Quantitative analysis of the Majority-Boosting phase (Lemmas 32-35).

The boosting phase turns a sliver of advantage (the weak opinions'
1/2 + Omega(sqrt(log n / n))) into unanimity.  The paper's Lemma 33
shows each sub-phase multiplies the advantage by >= 1.2 w.h.p. until it
reaches Theta(n); this module makes that machinery executable:

* :func:`stage_success_probability` — exact per-agent probability of
  adopting the majority side after one sub-phase (window w, current
  advantage, noise);
* :func:`expected_trajectory` — the deterministic advantage recursion
  (the mean-field Lemma 33), with the stage count to unanimity;
* :func:`stages_to_consensus` — how many sub-phases the drift needs,
  compared against Algorithm 1's ``10 log n`` provision;
* :func:`minimum_initial_advantage` — the smallest starting advantage
  from which the expected trajectory still escapes to 1 (the boosting
  phase's basin boundary), found by bisection.

Tests pin these against both the closed-form boosting map and simulated
SF runs; the ABL2 boosting-window ablation uses them to predict where
shrinking ``w`` stalls amplification.
"""

from __future__ import annotations

from typing import List

from ..analysis.mean_field import boosting_map, iterate_map
from ..noise import uniform_observation
from .tails import majority_success_probability

__all__ = [
    "stage_success_probability",
    "expected_trajectory",
    "stages_to_consensus",
    "minimum_initial_advantage",
]


def stage_success_probability(
    fraction_correct: float, window: int, delta: float
) -> float:
    """P(one agent ends a sub-phase on the majority side).

    With a fraction ``x`` of the population displaying the correct
    opinion, each of the agent's ``window`` observations reads correct
    with probability ``q = delta + x(1-2delta)``; the agent adopts the
    majority (coin on ties).
    """
    if not 0.0 <= fraction_correct <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    q = uniform_observation(fraction_correct, delta, 2)
    return majority_success_probability(min(max(q, 0.0), 1.0), window)


def expected_trajectory(
    initial_fraction: float,
    window: int,
    delta: float,
    max_stages: int = 200,
    tolerance: float = 1e-12,
) -> List[float]:
    """Deterministic per-stage fraction-correct trajectory."""
    step = boosting_map(n=0, delta=delta, window=window)  # n unused by the map
    return iterate_map(step, initial_fraction, max_stages, tolerance).fractions


def stages_to_consensus(
    initial_fraction: float,
    window: int,
    delta: float,
    threshold: float = 1.0 - 1e-9,
    max_stages: int = 200,
) -> int:
    """Stages the expected drift needs to exceed ``threshold`` (-1: never)."""
    trajectory = expected_trajectory(initial_fraction, window, delta, max_stages)
    for stage, value in enumerate(trajectory):
        if value >= threshold:
            return stage
    return -1


def minimum_initial_advantage(
    window: int,
    delta: float,
    precision: float = 1e-4,
    max_stages: int = 500,
) -> float:
    """Basin boundary of the boosting drift, by bisection.

    Returns the smallest ``eps`` such that starting from
    ``1/2 + eps`` the expected trajectory reaches (near-)unanimity.  By
    symmetry the map fixes 1/2; for large windows the basin boundary
    approaches 0 and for tiny windows it grows — quantifying the ABL2
    observation that even ``w ~ 10`` suffices at moderate noise.
    """
    lo, hi = 0.0, 0.5

    def escapes(eps: float) -> bool:
        return (
            stages_to_consensus(
                0.5 + eps, window, delta, threshold=0.999, max_stages=max_stages
            )
            >= 0
        )

    if not escapes(hi - 1e-12):
        raise ValueError(
            f"boosting cannot reach consensus at window={window}, delta={delta}"
        )
    while hi - lo > precision:
        mid = (lo + hi) / 2.0
        if escapes(mid):
            hi = mid
        else:
            lo = mid
    return hi
