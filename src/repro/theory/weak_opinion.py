"""Closed-form weak-opinion statistics (Section 2.3, Lemmas 28 and 36).

Both protocols reduce the weak-opinion computation to a sum
``X = sum_k X_k`` of i.i.d. steps ``X_k in {-1, 0, +1}``:

* **SF** (Lemma 28): ``X_k`` pairs the k-th Phase-0 message ``A_k`` with
  the k-th Phase-1 message ``B_k``; ``X_k = +1`` iff ``(A,B) = (1,1)``,
  ``-1`` iff ``(0,0)``, else 0.
* **SSF** (Lemma 36): one ``X_k`` per buffered message; ``+1`` for
  symbol (1,1), ``-1`` for (1,0), 0 otherwise.

The weak opinion is 1 iff ``X > 0`` (coin on ties), so its success
probability is ``P(X>0) + 0.5*P(X=0)``, the law of two coordinates of
one multinomial that :mod:`repro.theory.tails` evaluates.
"""

from __future__ import annotations

import dataclasses
import math

from ..model.config import PopulationConfig
from ..noise import uniform_observation
from .tails import multinomial_pair_gt_probability


@dataclasses.dataclass(frozen=True)
class TrinomialStep:
    """Distribution of one step ``X_k`` over {-1, 0, +1}.

    ``p_plus + p_zero + p_minus = 1``.  ``nonzero_probability`` and
    ``conditional_plus`` are the quantities the paper calls
    ``P(X_k != 0)`` and ``p = P(X_k = 1 | X_k != 0)``.
    """

    p_plus: float
    p_zero: float
    p_minus: float

    def __post_init__(self) -> None:
        total = self.p_plus + self.p_zero + self.p_minus
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"step probabilities must sum to 1, got {total}")
        if min(self.p_plus, self.p_zero, self.p_minus) < -1e-12:
            raise ValueError("step probabilities must be non-negative")

    @property
    def nonzero_probability(self) -> float:
        """``P(X_k != 0)``."""
        return self.p_plus + self.p_minus

    @property
    def conditional_plus(self) -> float:
        """``p = P(X_k = 1 | X_k != 0)``."""
        nz = self.nonzero_probability
        if nz == 0:
            return 0.5
        return self.p_plus / nz

    @property
    def mean(self) -> float:
        """``E[X_k]``."""
        return self.p_plus - self.p_minus

    @property
    def variance(self) -> float:
        """``Var[X_k]``."""
        return self.nonzero_probability - self.mean**2


def sf_step_distribution(config: PopulationConfig, delta: float) -> TrinomialStep:
    """SF's step distribution (the displayed computation in Lemma 28).

    ``P(A_k = 1) = delta + (s1/n)(1-2delta)`` (Phase 0: ``s1`` agents
    display 1) and ``P(B_k = 1) = delta + ((n-s0)/n)(1-2delta)`` (Phase 1:
    all but ``s0`` do); the pair is independent, ``X_k = +1`` iff both
    are 1, ``-1`` iff both are 0.
    """
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    n = config.n
    a1 = uniform_observation(config.s1 / n, delta, 2)
    b1 = uniform_observation((n - config.s0) / n, delta, 2)
    p_plus = a1 * b1
    p_minus = (1.0 - a1) * (1.0 - b1)
    return TrinomialStep(p_plus=p_plus, p_zero=1.0 - p_plus - p_minus, p_minus=p_minus)


def ssf_step_distribution(config: PopulationConfig, delta: float) -> TrinomialStep:
    """SSF's step distribution (Eq. 33).

    ``P(X_k = +1) = delta + (s1/n)(1-4delta)`` (a clean sample of a
    1-source, or any other sample corrupted into (1,1)); symmetrically
    for ``-1``.
    """
    if not 0.0 <= delta <= 0.25:
        raise ValueError(f"delta must lie in [0, 0.25], got {delta}")
    n = config.n
    p_plus = uniform_observation(config.s1 / n, delta, 4)
    p_minus = uniform_observation(config.s0 / n, delta, 4)
    return TrinomialStep(p_plus=p_plus, p_zero=1.0 - p_plus - p_minus, p_minus=p_minus)


def weak_opinion_success_probability(step: TrinomialStep, m: int) -> float:
    """``P(weak opinion = 1) = P(X > 0) + 0.5 * P(X = 0)`` for ``X = sum X_k``.

    A sum of ``m`` i.i.d. steps is ``M+ - M-`` for one
    ``Multinomial(m; p_plus, p_zero, p_minus)`` draw, so this is
    :func:`~repro.theory.tails.multinomial_pair_gt_probability`: exact
    (conditioning on the number of non-zero steps, Lemma 20) up to
    :data:`~repro.theory.tails.EXACT_COMPARISON_LIMIT` steps, a normal
    approximation with a measured error bound beyond.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return multinomial_pair_gt_probability(m, step.p_plus, step.p_minus)
