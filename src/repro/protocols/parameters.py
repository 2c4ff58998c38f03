"""Protocol parameter schedules (Eq. 19, Eq. 30, Algorithm 1's phase plan).

The paper's proofs fix sample budgets

    m_SF  = c1 * ( n*delta*log(n) / (min(s^2, n) * (1-2*delta)^2)
                   + sqrt(n)*log(n)/s
                   + (s0+s1)*log(n)/s^2
                   + h*log(n) )                                  (Eq. 19)

    m_SSF = c2 * ( delta*n*log(n) / (1-4*delta)^2 + n )         (Eq. 30)

for "sufficiently large" constants c1, c2 that the analysis never
optimizes.  For empirical work we keep the *formulas* and expose the
constants as knobs with defaults calibrated so that populations of a few
hundred to a few tens of thousands of agents converge w.h.p. (see
EXPERIMENTS.md for the calibration evidence).  Logarithms are natural.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
from typing import NamedTuple, Optional, Tuple

from ..exceptions import ConfigurationError
from ..model.config import PopulationConfig

#: Calibrated default for Eq. (19)'s constant c1.  The paper's constant is
#: astronomically larger; 4.0 empirically yields w.h.p. convergence across
#: the benchmark grid (n up to ~2^14, delta up to 0.35, s >= 1).
DEFAULT_SF_CONSTANT = 4.0

#: Calibrated default for Eq. (30)'s constant c2 (the paper uses
#: 2916 * c1).  50.0 is empirically sufficient across the benchmark grid.
DEFAULT_SSF_CONSTANT = 50.0

#: Algorithm 1's per-sub-phase sample budget is w = 100 / (1-2*delta)^2.
DEFAULT_BOOST_NUMERATOR = 100.0

#: Algorithm 1 runs 10 * log(n) boosting sub-phases.
DEFAULT_SUBPHASE_FACTOR = 10.0


def _validate_common(n: int, delta: float, h: int) -> None:
    if n < 2:
        raise ConfigurationError(f"population size must be >= 2, got {n}")
    if h < 1:
        raise ConfigurationError(f"sample size h must be >= 1, got {h}")


def _validate_sf(config: PopulationConfig, delta: float) -> None:
    _validate_common(config.n, delta, config.h)
    if not 0.0 <= delta < 0.5:
        raise ConfigurationError(f"SF requires uniform delta in [0, 0.5), got {delta}")


def sf_sample_budget(
    config: PopulationConfig,
    delta: float,
    constant: float = DEFAULT_SF_CONSTANT,
) -> int:
    """The SF sample budget ``m`` of Eq. (19).

    ``delta`` is the *uniform* noise level the protocol runs under (after
    the Section 4 reduction if the physical noise is non-uniform); for the
    binary alphabet it must lie in ``[0, 1/2)``.
    """
    _validate_sf(config, delta)
    n = config.n
    s = max(config.bias, 1)
    log_n = math.log(n)
    noise_term = n * delta * log_n / (min(s * s, n) * (1.0 - 2.0 * delta) ** 2)
    sqrt_term = math.sqrt(n) * log_n / s
    source_term = config.num_sources * log_n / (s * s)
    sample_term = config.h * log_n
    m = constant * (noise_term + sqrt_term + source_term + sample_term)
    return max(int(math.ceil(m)), 1)


def ssf_sample_budget(
    config: PopulationConfig,
    delta: float,
    constant: float = DEFAULT_SSF_CONSTANT,
) -> int:
    """The SSF sample budget ``m`` of Eq. (30).

    ``delta`` is the uniform noise level over the 4-letter alphabet, so it
    must lie in ``[0, 1/4)``.  Note Eq. (30) does not depend on the bias
    ``s`` — SSF gives up the multi-source speedup (Theorem 5's remark).
    """
    _validate_common(config.n, delta, config.h)
    if not 0.0 <= delta < 0.25:
        raise ConfigurationError(f"SSF requires uniform delta in [0, 0.25), got {delta}")
    n = config.n
    noise_term = delta * n * math.log(n) / (1.0 - 4.0 * delta) ** 2
    m = constant * (noise_term + n)
    return max(int(math.ceil(m)), 1)


class SFStage(NamedTuple):
    """``rounds`` rounds of fixed displays, opinions changing only at the
    end: ``kind`` is ``"phase0"``, ``"phase1"`` (commits the weak
    opinions), ``"boosting"`` or ``"boosting_final"`` (adopt a majority).
    """

    kind: str
    rounds: int


@dataclasses.dataclass(frozen=True)
class SFSchedule:
    """Fully resolved round plan for one SF execution (Algorithm 1).

    Attributes
    ----------
    m:
        Sample budget per listening phase (and for the final sub-phase).
    h:
        Per-round sample size.
    phase_rounds:
        ``ceil(m/h)`` — duration of Phase 0 and of Phase 1.
    boost_window:
        ``w = 100/(1-2*delta)^2`` — samples per boosting sub-phase.
    subphase_rounds:
        ``ceil(w/h)`` — duration of each short boosting sub-phase.
    num_subphases:
        ``ceil(10 * log n)`` short sub-phases (the final, long sub-phase is
        separate).
    """

    m: int
    h: int
    phase_rounds: int
    boost_window: int
    subphase_rounds: int
    num_subphases: int

    @classmethod
    def from_config(
        cls,
        config: PopulationConfig,
        delta: float,
        constant: Optional[float] = None,
        boost_numerator: float = DEFAULT_BOOST_NUMERATOR,
        subphase_factor: float = DEFAULT_SUBPHASE_FACTOR,
        m: int = None,
    ) -> "SFSchedule":
        """Build the schedule from a population config and noise level.

        ``constant=None`` is the calibrated :data:`DEFAULT_SF_CONSTANT`.
        Passing ``m`` explicitly overrides Eq. (19) (useful for ablations).
        """
        if m is None:
            if constant is None:
                constant = DEFAULT_SF_CONSTANT
            m = sf_sample_budget(config, delta, constant)
        else:
            _validate_sf(config, delta)
        if m < 1:
            raise ConfigurationError(f"sample budget m must be >= 1, got {m}")
        h = config.h
        w = max(int(math.ceil(boost_numerator / (1.0 - 2.0 * delta) ** 2)), 1)
        num_subphases = max(int(math.ceil(subphase_factor * math.log(config.n))), 1)
        return cls(
            m=int(m),
            h=h,
            phase_rounds=math.ceil(m / h),
            boost_window=w,
            subphase_rounds=math.ceil(w / h),
            num_subphases=num_subphases,
        )

    @property
    def final_rounds(self) -> int:
        """Duration of the long, final boosting sub-phase: ``ceil(m/h)``."""
        return self.phase_rounds

    # The plan is built once: the agent-level protocol reads it every round.
    @functools.cached_property
    def _stages(self) -> Tuple[SFStage, ...]:
        return (
            SFStage("phase0", self.phase_rounds),
            SFStage("phase1", self.phase_rounds),
            *[SFStage("boosting", self.subphase_rounds)] * self.num_subphases,
            SFStage("boosting_final", self.final_rounds),
        )

    @functools.cached_property
    def _ends(self) -> Tuple[int, ...]:
        return tuple(itertools.accumulate(stage.rounds for stage in self._stages))

    def stages(self) -> Tuple[SFStage, ...]:
        """Algorithm 1's plan: Phase 0, Phase 1, ``num_subphases`` short
        boosting sub-phases, then the final sub-phase."""
        return self._stages

    def stage_ends(self) -> Tuple[int, ...]:
        """The round each stage of :meth:`stages` ends before."""
        return self._ends

    def stage_at(self, round_index: int) -> int:
        """Index into :meth:`stages` of the stage round ``round_index``
        belongs to (``len(stages())`` from the horizon on)."""
        if round_index < 0:
            raise ValueError("round index must be non-negative")
        return bisect.bisect_right(self._ends, round_index)

    @property
    def boosting_rounds(self) -> int:
        """Total rounds of the Majority Boosting phase."""
        return self.total_rounds - self._ends[1]

    @property
    def total_rounds(self) -> int:
        """Total rounds of one SF execution."""
        return self._ends[-1]

    def phase_of(self, round_index: int) -> str:
        """Which part of the protocol round ``round_index`` belongs to:
        ``"phase0"``, ``"phase1"``, ``"boosting"`` or ``"done"``."""
        index = self.stage_at(round_index)
        if index == len(self._stages):
            return "done"
        kind = self._stages[index].kind
        return "boosting" if kind == "boosting_final" else kind


@dataclasses.dataclass(frozen=True)
class SSFSchedule:
    """Resolved parameters for one SSF execution (Algorithm 2).

    SSF has no global phases — only the per-agent memory capacity ``m``.
    ``epoch_rounds`` is the steady-state update period ``ceil(m/h)`` of an
    agent whose memory starts empty; Theorem 5's convergence horizon is
    three epochs (Lemma 39: opinions are correct from round
    ``3*ceil(m/h)`` on).
    """

    m: int
    h: int

    @classmethod
    def from_config(
        cls,
        config: PopulationConfig,
        delta: float,
        constant: Optional[float] = None,
        m: int = None,
    ) -> "SSFSchedule":
        """Build the schedule from a population config and noise level.

        ``constant=None`` is the calibrated :data:`DEFAULT_SSF_CONSTANT`.
        """
        if m is None:
            if constant is None:
                constant = DEFAULT_SSF_CONSTANT
            m = ssf_sample_budget(config, delta, constant)
        if m < 1:
            raise ConfigurationError(f"sample budget m must be >= 1, got {m}")
        return cls(m=int(m), h=config.h)

    @property
    def epoch_rounds(self) -> int:
        """Steady-state rounds between two updates of one agent."""
        return math.ceil(self.m / self.h)

    @property
    def convergence_horizon(self) -> int:
        """Rounds after which Theorem 5 guarantees correctness: 3 epochs."""
        return 3 * self.epoch_rounds
