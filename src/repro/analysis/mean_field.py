"""Mean-field (deterministic) recursions for the library's dynamics.

For large n the expected one-round evolution of the fraction of
1-opinions is a deterministic map; iterating it gives the mean-field
trajectory that the stochastic simulation fluctuates around by
O(1/sqrt(n)).  These recursions serve three purposes:

* cheap sanity oracles for the simulators (tests compare trajectories);
* fixed-point analysis — e.g. the noisy voter's stall point, which
  explains *why* the baselines in E9 cannot reach consensus;
* the boosting-phase drift map, the paper's Lemma 33 in expectation.

All maps take and return the fraction ``x`` of agents (including
sources, which are pinned) holding opinion 1.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Union

import numpy as np

from ..model.config import PopulationConfig
from ..noise import uniform_level, uniform_observation
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike
from .stats import fit_loglog_slope  # noqa: F401  (re-exported convenience)

__all__ = [
    "MeanFieldTrajectory",
    "MeanFieldHandoff",
    "MeanFieldRunResult",
    "MeanFieldEngine",
    "voter_map",
    "voter_fixed_point",
    "majority_map",
    "boosting_map",
    "iterate_map",
]


@dataclasses.dataclass
class MeanFieldTrajectory:
    """A deterministic trajectory of the 1-opinion fraction."""

    fractions: List[float]

    @property
    def final(self) -> float:
        """Last value of the trajectory."""
        return self.fractions[-1]

    def rounds_to_reach(self, threshold: float) -> int:
        """First index with fraction >= threshold.

        Raises :class:`ValueError` when the trajectory never reaches the
        threshold — callers that used to compare against the old ``-1``
        sentinel should catch the error (or check ``final``) instead.
        """
        for index, value in enumerate(self.fractions):
            if value >= threshold:
                return index
        raise ValueError(
            f"trajectory never reaches threshold {threshold} "
            f"(final value {self.final} after {len(self.fractions) - 1} "
            f"rounds)"
        )


def voter_map(config: PopulationConfig, delta: float) -> Callable[[float], float]:
    """One voter round in expectation.

    Zealots are pinned: the updatable mass is ``1 - z`` with z the source
    fraction; each updatable agent independently becomes 1 with
    probability ``q(x) = delta + x(1-2delta)``.
    """
    z1 = config.s1 / config.n
    z0 = config.s0 / config.n
    free = 1.0 - z0 - z1

    def step(x: float) -> float:
        return z1 + free * uniform_observation(x, delta, 2)

    return step


def voter_fixed_point(config: PopulationConfig, delta: float) -> float:
    """The noisy zealot voter's stall point (exact solution of x = F(x)).

    Solving ``x = z1 + (1-z)(delta + x(1-2delta))`` gives a unique fixed
    point; with constant delta it sits near 1/2 + O(s/(delta*n)) — far
    from consensus, which is the quantitative content of E9's voter row.
    """
    z1 = config.s1 / config.n
    z = (config.s0 + config.s1) / config.n
    free = 1.0 - z
    a = free * (1.0 - 2.0 * delta)
    b = z1 + free * delta
    if a >= 1.0:
        raise ValueError("degenerate voter map (no noise, no zealots)")
    return b / (1.0 - a)


def majority_map(
    config: PopulationConfig, delta: float
) -> Callable[[float], float]:
    """One round of majority-of-h in expectation.

    Each updatable agent adopts 1 with probability
    ``P(Binomial(h, q(x)) > h/2) (+ half the tie mass)``.
    """
    from ..theory.tails import majority_success_probability

    z1 = config.s1 / config.n
    z0 = config.s0 / config.n
    free = 1.0 - z0 - z1
    h = config.h

    def step(x: float) -> float:
        q = min(max(uniform_observation(x, delta, 2), 0.0), 1.0)
        return z1 + free * majority_success_probability(q, h)

    return step


def boosting_map(
    n: int, delta: float, window: int
) -> Callable[[float], float]:
    """SF's Majority-Boosting sub-phase drift (Lemma 33 in expectation).

    Everyone — sources included — displays and updates, so there is no
    pinned mass; each agent's new opinion is the majority of ``window``
    noisy observations.
    """
    from ..theory.tails import majority_success_probability

    def step(x: float) -> float:
        q = min(max(uniform_observation(x, delta, 2), 0.0), 1.0)
        return majority_success_probability(q, window)

    return step


def iterate_map(
    step: Callable[[float], float],
    initial: float,
    rounds: int,
    tolerance: float = 0.0,
) -> MeanFieldTrajectory:
    """Iterate a one-round map; stop early once |x' - x| <= tolerance."""
    if not 0.0 <= initial <= 1.0:
        raise ValueError(f"initial fraction must lie in [0, 1], got {initial}")
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    values = [initial]
    x = initial
    for _ in range(rounds):
        nxt = step(x)
        values.append(nxt)
        if tolerance > 0 and math.isclose(nxt, x, abs_tol=tolerance):
            break
        x = nxt
    return MeanFieldTrajectory(fractions=values)


# ----------------------------------------------------------------------
# Mean-field as a first-class engine
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class MeanFieldHandoff:
    """Gate deciding when a count draw may be mean-field fast-forwarded.

    The count engine's population draws are ``Binomial(n, p)``; the
    resulting fraction fluctuates around ``p`` with standard deviation
    at most ``1/(2*sqrt(n))``.  Far from the critical bias (SF/SSF
    majority dynamics are bistable around 1/2) the fluctuation cannot
    move the trajectory across the basin boundary, so replacing the draw
    by its expectation is statistically invisible; near the critical
    bias the fluctuation *is* the dynamics and exact sampling is kept.

    ``use_deterministic(p, n)`` approves the fast-forward iff
    ``|p - critical| > width_constant / sqrt(n)``.  The default
    ``width_constant = 8`` keeps exact sampling within 16 standard
    deviations of the critical point: by Hoeffding, the probability a
    single approved draw deviates by more than its distance to the gate
    is at most ``2*exp(-2 * width_constant^2) < 1e-55``.  The gate is
    validated empirically by the ``handoff`` leg of
    ``repro-spreading verify`` (hybrid vs fully stochastic success
    probabilities under one false-positive budget).
    """

    width_constant: float = 8.0
    critical: float = 0.5

    def gate_width(self, n: int) -> float:
        """Half-width of the exact-sampling band around ``critical``."""
        if n <= 0:
            raise ValueError(f"population size must be positive, got {n}")
        return self.width_constant / math.sqrt(n)

    def use_deterministic(self, p: float, n: int) -> bool:
        """Whether a ``Binomial(n, p)`` draw may become ``round(n*p)``."""
        return abs(p - self.critical) > self.gate_width(n)


@dataclasses.dataclass
class MeanFieldRunResult(RunReport):
    """Outcome of one deterministic mean-field SF execution.

    ``converged`` means the final correct fraction rounds to ``n/n`` —
    the deterministic analogue of all-agents-correct.  ``trace`` holds
    the correct fraction after each boosting sub-phase, mirroring
    ``SFRunResult.boost_trace``.
    """

    _rounds_attr = "total_rounds"

    converged: bool
    total_rounds: int
    weak_fraction_correct: float
    final_fraction_correct: float
    trace: List[float]
    seed: Optional[int] = None


class MeanFieldEngine:
    """The n -> infinity SF dynamics behind the engine seam.

    Runs :meth:`SFSchedule.stages` on a fractional state, taking each
    stage's expectation where the count engine draws: the next 1-count
    is ``n * p`` instead of ``Binomial(n, p)``, with ``p`` the count
    adapter's own :meth:`~repro.protocols.CountSourceFilter.stage_law`
    (weak-opinion comparison, then one majority tail per boosting
    sub-phase) through its price memo, which lasts the engine's life.
    Each stage's ``q`` is the uniform observation law on the display
    fractions.  No sampling: the whole run is O(num_subphases)
    arithmetic and deterministic.
    ``run(rng=..., telemetry=...)`` matches the engine seam used by
    ``repeat_trials``/``run_trials``; the ``rng`` argument is accepted
    and ignored.

    For a stochastic trajectory that fast-forwards deterministically
    only where it is safe, pass a :class:`MeanFieldHandoff` to
    :class:`repro.protocols.CountSourceFilter` instead — this class is
    the pure limit, useful as an oracle and as the fastest possible
    estimate far from the critical bias.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, "object"],
        schedule=None,
        constant: Optional[float] = None,
        fault_model=None,
    ) -> None:
        from ..engines import admit_seams
        from ..protocols import CountSourceFilter

        admit_seams("mean-field", "sf", fault_model)
        self.config = config
        self.delta = uniform_level(noise, 2)
        self._counts = CountSourceFilter(
            config, self.delta, schedule=schedule, constant=constant
        )
        self.schedule = self._counts.schedule

    def run(
        self,
        rng: RngLike = None,
        telemetry: Optional[Telemetry] = None,
    ) -> MeanFieldRunResult:
        """Execute the deterministic SF trajectory (rng is ignored)."""
        tele = ensure_telemetry(telemetry)
        cfg, sched, counts = self.config, self.schedule, self._counts
        n, correct = cfg.n, cfg.correct_opinion
        x = 0.0  # the expected fraction of agents holding opinion 1
        trace: List[float] = []
        with tele.phase("mean_field.run", rounds=sched.total_rounds):
            for stage in sched.stages():
                shown = counts.shown_ones(stage.kind, n * x)
                fractions = np.array([n - shown, shown]) / n
                q = uniform_observation(fractions, self.delta, 2)
                p = counts.stage_law(stage.kind, stage.rounds * sched.h, q)
                if p is None:
                    continue
                x = p
                if stage.kind == "phase1":
                    weak_fraction = _correct_fraction(x, correct)
                else:
                    trace.append(_correct_fraction(x, correct))
        final_fraction = _correct_fraction(x, correct)
        # Deterministic analogue of all-n-agents-correct.
        converged = correct is not None and round(final_fraction * n) == n
        if tele.enabled:
            tele.counter("mean_field.runs")
            if converged:
                tele.counter("mean_field.converged_runs")
        return MeanFieldRunResult(
            converged=converged,
            total_rounds=sched.total_rounds,
            weak_fraction_correct=weak_fraction,
            final_fraction_correct=final_fraction,
            trace=trace,
            seed=None,
        )


def _correct_fraction(x: float, correct: Optional[int]) -> float:
    """Map the 1-opinion fraction to the correct-opinion fraction."""
    if correct is None:
        return 0.5
    return x if correct == 1 else 1.0 - x
