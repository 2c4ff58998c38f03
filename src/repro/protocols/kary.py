"""K-ary plurality Source Filter (extension).

The paper treats binary opinions; its problem statement ("converge to
the plurality preference of the sources") generalizes naturally to k
opinions, and the related-works section frames the task as *plurality
consensus*.  This module extends SF to a k-letter opinion alphabet:

* **Listening stage** — k phases of ``ceil(m/h)`` rounds.  In phase j
  every non-source displays symbol ``j`` (the neutral wall), sources
  display their preference.  Each agent tallies, per phase, how often it
  observed each symbol.  The *score* of opinion ``sigma`` is its tally
  summed over the phases where non-sources were NOT displaying it
  (``j != sigma``) — there, sigma-observations are either source signal
  or the (symmetric, uniform) noise floor, so the arg-max score
  estimates the sources' plurality.  For k = 2 this is exactly
  Algorithm 1's Counter1/Counter0 comparison.
* **Plurality boosting** — sub-phases as in Algorithm 1, with the
  majority rule replaced by arg-max over the window's tallies.

Exactness: within each phase/sub-phase displays are constant, so each
agent's tallies are ``Multinomial(rounds*h, q)`` with
``q = delta + (display_counts/n)(1-k*delta)`` under the k-ary uniform
channel — the same exchangeability shortcut as the binary engines.

The budget reuses Eq. (19) with ``(1-k*delta)^2`` in place of
``(1-2*delta)^2`` and the bias ``s = top1 - top2``.  This extension is
empirical (no theorem from the paper covers k > 2); the tests document
where it works.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..noise import uniform_observation
from ..results import RunReport, register_record
from ..types import RngLike, coerce_rng

__all__ = ["KAryConfig", "KAryRunResult", "FastKAryPluralityFilter"]


@register_record
@dataclasses.dataclass(frozen=True)
class KAryConfig:
    """Instance of the k-ary plurality problem.

    ``source_counts[sigma]`` is the number of sources preferring opinion
    ``sigma``; the plurality must be strict and sources at most n/4
    overall (mirroring Eq. 18).
    """

    n: int
    source_counts: Sequence[int]
    h: int

    def __post_init__(self) -> None:
        counts = list(self.source_counts)
        if len(counts) < 2:
            raise ConfigurationError("need at least 2 opinions")
        if self.n < 2 or self.h < 1:
            raise ConfigurationError("need n >= 2 and h >= 1")
        if min(counts) < 0 or sum(counts) == 0:
            raise ConfigurationError("source counts must be non-negative, not all 0")
        if sum(counts) > self.n / 4:
            raise ConfigurationError("sources must total at most n/4")
        ordered = sorted(counts, reverse=True)
        if ordered[0] == ordered[1]:
            raise ConfigurationError("the sources' plurality must be strict")

    @property
    def k(self) -> int:
        """Number of opinions (= alphabet size)."""
        return len(self.source_counts)

    @property
    def num_sources(self) -> int:
        """Total source agents."""
        return int(sum(self.source_counts))

    @property
    def plurality(self) -> int:
        """The opinion the strict plurality of sources prefers."""
        return int(np.argmax(self.source_counts))

    @property
    def bias(self) -> int:
        """Gap between the top two source counts."""
        ordered = sorted(self.source_counts, reverse=True)
        return int(ordered[0] - ordered[1])


@dataclasses.dataclass
class KAryRunResult(RunReport):
    """Outcome of one k-ary run."""

    _rounds_attr = "total_rounds"

    converged: bool
    total_rounds: int
    weak_opinions: np.ndarray
    weak_fraction_correct: float
    final_opinions: np.ndarray
    boost_trace: List[float]


class FastKAryPluralityFilter:
    """Vectorized k-ary plurality filter under uniform k-ary noise."""

    def __init__(
        self,
        config: KAryConfig,
        delta: float,
        constant: float = 4.0,
        boost_numerator: float = 100.0,
        subphase_factor: float = 10.0,
    ) -> None:
        k = config.k
        if not 0.0 <= delta < 1.0 / k:
            raise ConfigurationError(
                f"k-ary uniform delta must lie in [0, 1/{k}), got {delta}"
            )
        self.config = config
        self.delta = delta
        n, s = config.n, max(config.bias, 1)
        log_n = math.log(n)
        margin = (1.0 - k * delta) ** 2
        m = constant * (
            n * delta * log_n / (min(s * s, n) * margin)
            + math.sqrt(n) * log_n / s
            + config.num_sources * log_n / (s * s)
            + config.h * log_n
        )
        self.m = max(int(math.ceil(m)), 1)
        self.phase_rounds = math.ceil(self.m / config.h)
        self.boost_window = max(int(math.ceil(boost_numerator / margin)), 1)
        self.subphase_rounds = math.ceil(self.boost_window / config.h)
        self.num_subphases = max(int(math.ceil(subphase_factor * log_n)), 1)

    @property
    def total_rounds(self) -> int:
        """Round horizon: k listening phases + the boosting stage."""
        return (
            self.config.k * self.phase_rounds
            + self.num_subphases * self.subphase_rounds
            + self.phase_rounds
        )

    # ------------------------------------------------------------------
    def _observation_distribution(self, display_counts: np.ndarray) -> np.ndarray:
        return uniform_observation(
            display_counts / self.config.n, self.delta, self.config.k
        )

    def draw_weak_opinions(self, rng: RngLike = None) -> np.ndarray:
        """The k-phase listening stage, one multinomial per agent-phase."""
        generator = coerce_rng(rng)
        cfg = self.config
        n, k = cfg.n, cfg.k
        samples = self.phase_rounds * cfg.h
        sources = np.asarray(cfg.source_counts, dtype=float)
        scores = np.zeros((n, k), dtype=np.int64)
        for phase in range(k):
            display = sources.copy()
            display[phase] += n - cfg.num_sources  # the neutral wall
            q = self._observation_distribution(display)
            tallies = generator.multinomial(samples, q / q.sum(), size=n)
            # Credit every symbol except the phase's wall symbol.
            mask = np.ones(k, dtype=bool)
            mask[phase] = False
            scores[:, mask] += tallies[:, mask]
        return self._argmax_with_ties(scores, generator)

    def boost_step(
        self, opinions: np.ndarray, window: int, rng: RngLike = None
    ) -> np.ndarray:
        """One plurality sub-phase: display, tally, arg-max."""
        generator = coerce_rng(rng)
        cfg = self.config
        display = np.bincount(opinions, minlength=cfg.k).astype(float)
        q = self._observation_distribution(display)
        tallies = generator.multinomial(window, q / q.sum(), size=cfg.n)
        return self._argmax_with_ties(tallies, generator)

    @staticmethod
    def _argmax_with_ties(
        scores: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        # Uniform tie-breaking: jitter below the integer resolution.
        jitter = generator.random(scores.shape)
        return np.argmax(scores + 0.5 * jitter, axis=1).astype(np.int64)

    def run(self, rng: RngLike = None) -> KAryRunResult:
        """Execute one full k-ary run."""
        generator = coerce_rng(rng)
        cfg = self.config
        plurality = cfg.plurality
        weak = self.draw_weak_opinions(generator)
        weak_fraction = float(np.mean(weak == plurality))

        opinions = weak.copy()
        trace: List[float] = []
        short_window = self.subphase_rounds * cfg.h
        for _ in range(self.num_subphases):
            opinions = self.boost_step(opinions, short_window, generator)
            trace.append(float(np.mean(opinions == plurality)))
        opinions = self.boost_step(
            opinions, self.phase_rounds * cfg.h, generator
        )
        trace.append(float(np.mean(opinions == plurality)))

        return KAryRunResult(
            converged=bool(np.all(opinions == plurality)),
            total_rounds=self.total_rounds,
            weak_opinions=weak,
            weak_fraction_correct=weak_fraction,
            final_opinions=opinions,
            boost_trace=trace,
        )
