"""Statistical utilities for Monte-Carlo experiment analysis."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

import numpy as np

from ..types import RngLike, coerce_rng


def median_and_iqr(values: Sequence[float]) -> Tuple[float, float, float]:
    """Median with the 25th and 75th percentiles: ``(median, q25, q75)``."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q25, med, q75 = np.percentile(arr, [25, 50, 75])
    return float(med), float(q25), float(q75)


def bootstrap_ci(
    values: Sequence[float],
    statistic=np.median,
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: RngLike = None,
) -> Tuple[float, float, float]:
    """Percentile-bootstrap confidence interval.

    Returns ``(point_estimate, low, high)`` for ``statistic`` over
    ``values``.  ``statistic`` must accept ``axis=``, as the NumPy
    reductions do: it reduces all ``resamples`` rows in one call.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    generator = coerce_rng(rng)
    point = float(statistic(arr))
    if arr.size == 1:
        return point, point, point
    indices = generator.integers(0, arr.size, size=(resamples, arr.size))
    stats = statistic(arr[indices], axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return point, float(low), float(high)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Wilson score interval for a binomial proportion.

    Returns ``(point, low, high)``.  Preferred over the normal interval
    for the near-1 success probabilities w.h.p. experiments produce.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return p, max(center - half, 0.0), min(center + half, 1.0)


def fit_loglog_slope(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[float, float, float]:
    """Least-squares slope of ``log y`` against ``log x``.

    Returns ``(slope, intercept, r_squared)``.  The slope is the empirical
    scaling exponent — the quantity the Theorem 4/5 shape checks assert
    on (e.g. ``T ~ n^1`` for PULL(1), ``T ~ n^0`` polylog for PULL(n)).
    """
    x = np.log(np.asarray(list(xs), dtype=float))
    y = np.log(np.asarray(list(ys), dtype=float))
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (x, y) pairs of equal length")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r_squared
