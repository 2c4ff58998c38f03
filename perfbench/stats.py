"""Order statistics shared by the runner, the workloads and compare.py.

Standard library only: the runner imports this before it knows whether
the program under test can be imported at all.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Mapping, Optional, Sequence

__all__ = ["percentile", "tail_summary", "op_latency", "quartiles", "spread"]

#: Percentiles considered for a timing's reported tail, highest last.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
#: Samples that must lie beyond a percentile for it to be reported.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_summary(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median plus the highest percentile with >= 10 samples beyond it.

    Returns ``n`` (the sample count), ``p50``, ``tail_pct`` and ``tail``
    (``None`` when too few samples leave ten beyond even the median) and
    ``beyond``, the number of samples strictly above the tail value.
    """
    ordered = sorted(samples)
    out: Dict[str, Optional[float]] = {
        "n": len(ordered),
        "p50": statistics.median(ordered) if ordered else None,
        "tail_pct": None,
        "tail": None,
        "beyond": None,
    }
    for q in TAIL_PERCENTILES:
        if not ordered:
            break
        value = percentile(ordered, q)
        beyond = sum(1 for x in ordered if x > value)
        if beyond < TAIL_BEYOND:
            break
        out.update(tail_pct=q, tail=value, beyond=beyond)
    return out


def op_latency(
    latencies: Mapping[str, Sequence[float]], weights: Mapping[str, float]
) -> float:
    """One operation's latency: the sum over call kinds of ``weights[kind]``
    times the kind's median latency."""
    return sum(
        weight * statistics.median(latencies[kind])
        for kind, weight in weights.items()
        if latencies.get(kind)
    )


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
