"""The two-party reduction gadget behind the w.h.p. lower bound.

Footnote 3 of the paper: [19] shows that a protocol solving bit
dissemination in noisy PULL(h) can be converted into an
``(m, x, delta)``-**Two-Party Protocol** — party B (standing for the
source) reliably transfers one bit to party A (the non-sources) with
error probability at most ``x`` using ``m`` delta-noisy messages, where
``m`` is the number of rounds times ``h``.  Lower bounds on the
two-party problem therefore translate into round lower bounds, and the
extra ``log n`` in the w.h.p. regime is exactly the cost of driving the
two-party error below ``1/poly(n)``.

For one bit over a binary symmetric channel, repetition coding with
majority decoding is the maximum-likelihood (optimal) strategy, so the
two-party trade-off is exactly computable:

    error(m, delta) = P( majority of m BSC(delta) copies is wrong ).

This module computes that curve, inverts it (messages needed for a
target error), derives the induced w.h.p. round lower-bound shape, and
provides a Monte-Carlo simulator that the tests check against the exact
computation.
"""

from __future__ import annotations

from ..types import RngLike, coerce_rng
from .tails import majority_success_probability

__all__ = [
    "two_party_error",
    "messages_needed",
    "whp_round_lower_bound",
    "simulate_two_party",
]


def two_party_error(m: int, delta: float) -> float:
    """Exact error of the optimal (repetition + majority) strategy.

    One bit sent as ``m`` copies through BSC(delta), decoded by majority
    (fair coin on ties): the probability that the wrong symbol, read
    with probability ``delta`` per copy, wins the vote.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    return majority_success_probability(delta, m)


def messages_needed(target_error: float, delta: float, max_m: int = 1 << 22) -> int:
    """Minimal ``m`` with ``two_party_error(m, delta) <= target_error``.

    Odd majorities are tie-free and their error falls strictly along odd
    ``m``, while an even ``m`` errs exactly as ``m - 1`` does; so the
    answer is odd, found by bisection over the odd index ``j``,
    ``m = 2j + 1``.
    """
    if not 0.0 < target_error < 0.5:
        raise ValueError(
            f"target error must lie in (0, 0.5), got {target_error}"
        )
    if delta == 0.0:
        return 1
    if delta == 0.5:
        raise ValueError("delta = 1/2 carries no information: no m suffices")

    def misses(j: int) -> bool:
        return two_party_error(2 * j + 1, delta) > target_error

    # Exponential search for a hit, then bisect (lo, hi]: every odd
    # index below lo misses, hi hits.
    lo, hi = 0, 0
    while misses(hi):
        lo, hi = hi + 1, 2 * hi + 1
        if 2 * hi + 1 > max_m:
            raise ValueError(
                f"no m <= {max_m} reaches error {target_error} at delta={delta}"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if misses(mid):
            lo = mid + 1
        else:
            hi = mid
    return 2 * hi + 1


def whp_round_lower_bound(n: int, h: int, delta: float) -> float:
    """Round lower-bound shape induced by the two-party reduction.

    A dissemination protocol correct w.h.p. (error ``<= 1/n^2``) gives a
    two-party protocol with ``m = rounds * h`` messages and the same
    error, so ``rounds >= messages_needed(1/n^2, delta) / h``.  For
    constant delta this is Theta(log n / h) — the source of the extra
    log factor in the w.h.p. regime ([19], Theorem 7; see the paper's
    remark after Theorem 4).  Note this bound concerns the *information
    from the source alone*; the full Theorem 3 machinery adds the
    delta*n/s^2 dilution factor.
    """
    if n < 2 or h < 1:
        raise ValueError("need n >= 2 and h >= 1")
    return messages_needed(1.0 / (n * n), delta) / h


def simulate_two_party(
    m: int, delta: float, trials: int, rng: RngLike = None
) -> float:
    """Monte-Carlo estimate of :func:`two_party_error`."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    generator = coerce_rng(rng)
    # By symmetry, send bit 1: copies arrive correct w.p. 1 - delta.
    correct_counts = generator.binomial(m, 1.0 - delta, size=trials)
    wrong = correct_counts * 2 < m
    ties = correct_counts * 2 == m
    errors = wrong.sum() + 0.5 * ties.sum()
    return float(errors / trials)
