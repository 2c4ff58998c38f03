"""Probability lemmas from Section 5.1 and Appendix B.

These are the quantitative tools of the paper's analysis, implemented so
tests can check them against exact computations and so the theory oracles
can predict protocol behaviour.
"""

from __future__ import annotations

import math

from .tails import majority_success_probability


def binomial_one_lower_bound(n: int, p: float) -> float:
    """Claim 19: for ``X ~ Binomial(n, p)`` with ``n*p <= 1``,
    ``P(X = 1) >= n*p / e``.

    Returns the bound value ``n*p/e``; raises when the hypothesis fails.
    """
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    if n * p > 1.0 + 1e-12:
        raise ValueError(f"Claim 19 requires n*p <= 1, got {n * p}")
    return n * p / math.e


def lemma21_g(theta: float, m: int) -> float:
    """Lemma 21's function ``g(theta, m)``.

    ``g = theta*(1-theta^2)^((m-1)/2)`` for ``theta < 1/sqrt(m)`` and
    ``(1/sqrt(m))*(1-1/m)^((m-1)/2)`` otherwise.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if theta < 1.0 / math.sqrt(m):
        return theta * (1.0 - theta * theta) ** ((m - 1) / 2.0)
    return (1.0 / math.sqrt(m)) * (1.0 - 1.0 / m) ** ((m - 1) / 2.0)


def lemma22_advantage_lower_bound(theta: float, m: int) -> float:
    """Lemma 22: for ``X`` a sum of m i.i.d. Rad(1/2 + theta),
    ``P(X>0) - P(X<0) >= sqrt(2/(pi*e)) * min(sqrt(m)*theta, 1)``.

    Returns the bound value.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0.0 <= theta <= 0.5:
        raise ValueError(f"theta must lie in [0, 1/2], got {theta}")
    return math.sqrt(2.0 / (math.pi * math.e)) * min(math.sqrt(m) * theta, 1.0)


def exact_majority_advantage(theta: float, m: int) -> float:
    """Exact ``P(X>0) - P(X<0)`` for a sum of m i.i.d. Rad(1/2 + theta).

    ``{X>0} = {B > m/2}`` for ``B ~ Binomial(m, 1/2+theta)``, so this is
    ``2 * majority_success_probability(1/2 + theta, m) - 1``.  Used by
    tests to verify Lemma 22 is a genuine lower bound.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    p = 0.5 + theta
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"theta must lie in [-1/2, 1/2], got {theta}")
    return 2.0 * majority_success_probability(p, m) - 1.0


def chernoff_multiplicative_upper(mu: float, eps: float) -> float:
    """Theorem 41: ``P(X <= (1-eps)*mu) <= exp(-eps^2 * mu / 2)``."""
    if mu < 0 or not 0.0 < eps < 1.0:
        raise ValueError("need mu >= 0 and eps in (0, 1)")
    return math.exp(-(eps**2) * mu / 2.0)


def hoeffding_deviation_upper(n: int, t: float) -> float:
    """Theorem 42 for {0,1} variables: ``P(|X - mu| >= t) <= 2exp(-2t^2/n)``."""
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    return 2.0 * math.exp(-2.0 * t * t / n)
