"""An exact O(n) binomial reference for the tests.

The library evaluates every binomial law in :mod:`repro.theory.tails`
(an incomplete beta by continued fraction).  The tests check it against
this module, which shares none of that machinery: it sums log-pmf terms,
one ``math.lgamma`` evaluation per term, and so costs O(n) per tail.
"""

from __future__ import annotations

import math

import numpy as np


def log_pmf(ks, n: int, p: float) -> np.ndarray:
    """Log of the Binomial(n, p) pmf at each integer in ``ks``."""
    ks = np.asarray(ks, dtype=np.int64)
    log_coeff = np.array(
        [
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            for i in ks.ravel()
        ]
    ).reshape(ks.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(ks > 0, ks * np.log(p) if p > 0 else -np.inf, 0.0)
        log_q = np.where(
            n - ks > 0, (n - ks) * np.log1p(-p) if p < 1 else -np.inf, 0.0
        )
    return log_coeff + log_p + log_q


def _log_sum_exp(log_terms: np.ndarray) -> float:
    peak = float(log_terms.max())
    if peak == -math.inf:
        return 0.0
    return min(1.0, math.exp(peak + math.log(float(np.exp(log_terms - peak).sum()))))


def tail_ge(k: int, n: int, p: float) -> float:
    """``P(X >= k)``, summed over the upper tail so tiny tails keep
    their relative precision."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return _log_sum_exp(log_pmf(np.arange(k, n + 1), n, p))


def tail_le(k: int, n: int, p: float) -> float:
    """``P(X <= k)``, summed over the lower tail."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return _log_sum_exp(log_pmf(np.arange(0, k + 1), n, p))


def majority_success(q: float, window: int) -> float:
    """``P(Bin(window, q) > window/2) + P(tie)/2``."""
    ks = np.arange(window + 1)
    pmf = np.exp(log_pmf(ks, window, q))
    return float(pmf[2 * ks > window].sum() + 0.5 * pmf[2 * ks == window].sum())


def trinomial_success(p_plus: float, p_minus: float, m: int) -> float:
    """``P(M+ > M-) + P(M+ = M-)/2`` for ``(M+, M-, M0)`` one
    ``Multinomial(m; p_plus, p_minus, 1 - p_plus - p_minus)`` draw,
    summed over every outcome: O(m^2) terms, no conditioning."""
    p_zero = max(1.0 - p_plus - p_minus, 0.0)
    lgam = np.array([math.lgamma(i + 1) for i in range(m + 1)])
    plus, minus = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    zero = m - plus - minus
    feasible = zero >= 0
    zero = np.where(feasible, zero, 0)

    def xlogp(count: np.ndarray, prob: float) -> np.ndarray:
        if prob > 0:
            return count * math.log(prob)
        return np.where(count > 0, -np.inf, 0.0)

    log_terms = (
        lgam[m] - lgam[plus] - lgam[minus] - lgam[zero]
        + xlogp(plus, p_plus) + xlogp(minus, p_minus) + xlogp(zero, p_zero)
    )
    pmf = np.where(feasible, np.exp(log_terms), 0.0)
    return float(pmf[plus > minus].sum() + 0.5 * pmf[plus == minus].sum())
