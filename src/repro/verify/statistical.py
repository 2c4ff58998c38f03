"""Statistical assertions with explicit, auditable false-positive rates.

The paper's guarantees are probabilistic (w.h.p. round bounds, success
probabilities like Theorem 4), so the test suite cannot assert exact
values.  Hand-rolled checks of the form ``assert p_hat > 0.9`` are either
flaky (the threshold is inside the sampling noise) or vacuous (the
threshold is so loose it catches nothing).  This module replaces them with
assertions derived from binomial tails (:mod:`repro.theory.tails`,
accurate to ~1e-11 relative at test sizes) and Hoeffding's inequality,
each parameterised by a *confidence* level: the assertion fails with
probability at most ``1 - confidence`` when the claimed property actually
holds.

Every assertion charges its significance level ``alpha = 1 - confidence``
to a :class:`FalsePositiveBudget` so a suite can bound (via the union
bound) the overall probability that a fully-correct implementation fails
the run.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ConfigurationError, ReproError
from ..theory.tails import binomial_tail_ge

__all__ = [
    "StatisticalAssertionError",
    "FalsePositiveBudget",
    "GLOBAL_BUDGET",
    "binomial_cdf",
    "binomial_sf",
    "hoeffding_radius",
    "assert_success_probability",
    "assert_binomial_plausible",
    "assert_mean_within",
    "assert_proportions_close",
    "assert_rounds_within",
]


class StatisticalAssertionError(ReproError, AssertionError):
    """A statistical assertion rejected the observed data.

    Deriving from :class:`AssertionError` keeps pytest's reporting
    machinery (rewritten tracebacks, ``-x`` semantics) working while the
    :class:`~repro.exceptions.ReproError` base lets callers treat it as a
    library-level failure.
    """


def binomial_cdf(k: int, n: int, p: float) -> float:
    """``P(X <= k)`` for ``X ~ Binomial(n, p)``, as the upper tail
    ``P(n - X >= n - k)`` of ``n - X ~ Binomial(n, 1 - p)``.

    See :func:`binomial_sf` for the accuracy.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must lie in [0, 1], got {p}")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return binomial_tail_ge(n - k, n, 1.0 - p)


def binomial_sf(k: int, n: int, p: float) -> float:
    """``P(X >= k)`` for ``X ~ Binomial(n, p)``: :func:`binomial_tail_ge`.

    Against an exact O(n) log-pmf sum, the relative gap is at most
    7.5e-12 over ``n <= 5000`` and ``p`` in ``[1e-9, 1 - 1e-9]`` (tails
    down to ``2**-50`` included), and 4.8e-11 on a random grid up to
    ``n = 4e4``; either side is off by ~5e-12 at ``n = 5000`` against
    50-digit sums.  From ``n ~ 5e5``, within about 0.1 sd of the mean,
    the continued fraction does not converge and a normal tail stands
    in, with an absolute error of at most 1.8e-4
    (``tests/test_tails.py``).
    """
    return binomial_tail_ge(k, n, p)


def hoeffding_radius(n: int, alpha: float, width: float = 1.0) -> float:
    """Two-sided Hoeffding confidence radius for a mean of ``n`` samples.

    For i.i.d. samples bounded in an interval of length ``width``,
    ``P(|mean - E| >= radius) <= alpha``.
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    return width * math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@dataclasses.dataclass
class _Charge:
    label: str
    alpha: float


class FalsePositiveBudget:
    """Union-bound ledger of significance levels spent by a test run.

    Each statistical assertion charges ``alpha = 1 - confidence``.  The
    sum of charges upper-bounds (by the union bound) the probability that
    at least one assertion in the run fails even though every claimed
    property holds.  The budget is advisory by default — exceeding it does
    not fail anything — but ``strict=True`` turns overdrafts into
    :class:`StatisticalAssertionError` so CI can enforce a suite-wide
    false-positive rate.
    """

    def __init__(self, total: float = 1e-3, strict: bool = False) -> None:
        if not 0.0 < total < 1.0:
            raise ConfigurationError(
                f"budget total must lie in (0, 1), got {total}"
            )
        self.total = float(total)
        self.strict = bool(strict)
        self._charges: List[_Charge] = []
        self._lock = threading.Lock()

    @property
    def spent(self) -> float:
        with self._lock:
            return float(sum(c.alpha for c in self._charges))

    @property
    def remaining(self) -> float:
        return self.total - self.spent

    def charge(self, alpha: float, label: str = "") -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(
                f"alpha must lie in (0, 1), got {alpha}"
            )
        with self._lock:
            self._charges.append(_Charge(label=label, alpha=float(alpha)))
            overdrawn = sum(c.alpha for c in self._charges) > self.total
        if overdrawn and self.strict:
            raise StatisticalAssertionError(
                f"false-positive budget exhausted: spent "
                f"{self.spent:.2e} of {self.total:.2e} "
                f"(last charge {alpha:.2e} for {label!r})"
            )

    def reset(self) -> None:
        with self._lock:
            self._charges.clear()

    def report(self) -> str:
        lines = [
            f"false-positive budget: spent {self.spent:.3e} "
            f"of {self.total:.3e} over {len(self._charges)} assertions"
        ]
        with self._lock:
            for charge in self._charges:
                lines.append(f"  {charge.alpha:.2e}  {charge.label}")
        return "\n".join(lines)


#: Default ledger charged by every assertion unless one is passed
#: explicitly.  ``reset()`` it at session start to audit a single run.
GLOBAL_BUDGET = FalsePositiveBudget(total=0.05)


def _charge(
    budget: Optional[FalsePositiveBudget], alpha: float, label: str
) -> None:
    (GLOBAL_BUDGET if budget is None else budget).charge(alpha, label)


def assert_success_probability(
    successes: int,
    trials: int,
    claimed_lower_bound: float,
    *,
    confidence: float = 1 - 1e-6,
    context: str = "",
    budget: Optional[FalsePositiveBudget] = None,
) -> None:
    """Assert observed successes are consistent with ``p >= claimed``.

    One-sided exact binomial test: fails iff, assuming the true success
    probability is at least ``claimed_lower_bound``, seeing ``successes``
    or fewer out of ``trials`` has probability below ``1 - confidence``.
    A correct implementation therefore fails with probability at most
    ``1 - confidence``.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes must lie in [0, {trials}], got {successes}"
        )
    if not 0.0 <= claimed_lower_bound <= 1.0:
        raise ConfigurationError(
            f"claimed_lower_bound must lie in [0, 1], "
            f"got {claimed_lower_bound}"
        )
    alpha = 1.0 - confidence
    label = context or (
        f"success_probability(claimed={claimed_lower_bound}, n={trials})"
    )
    _charge(budget, alpha, label)
    p_value = binomial_cdf(successes, trials, claimed_lower_bound)
    if p_value < alpha:
        raise StatisticalAssertionError(
            f"{label}: observed {successes}/{trials} successes "
            f"(p_hat={successes / trials:.4f}) is implausible under the "
            f"claimed lower bound p>={claimed_lower_bound} "
            f"(one-sided p-value {p_value:.3e} < alpha={alpha:.1e})"
        )


def assert_binomial_plausible(
    count: int,
    trials: int,
    p: float,
    *,
    confidence: float = 1 - 1e-6,
    context: str = "",
    budget: Optional[FalsePositiveBudget] = None,
) -> None:
    """Assert a count is a plausible ``Binomial(trials, p)`` draw.

    Two-sided exact equal-tailed test, e.g. for "ties are fair coin
    flips".  Fails iff either tail probability of the observed count is
    below ``(1 - confidence) / 2``.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if not 0 <= count <= trials:
        raise ConfigurationError(
            f"count must lie in [0, {trials}], got {count}"
        )
    alpha = 1.0 - confidence
    label = context or f"binomial_plausible(p={p}, n={trials})"
    _charge(budget, alpha, label)
    lower_tail = binomial_cdf(count, trials, p)
    upper_tail = binomial_sf(count, trials, p)
    if min(lower_tail, upper_tail) < alpha / 2.0:
        raise StatisticalAssertionError(
            f"{label}: observed count {count}/{trials} "
            f"(rate {count / trials:.4f}) is implausible for "
            f"Binomial(n={trials}, p={p}) "
            f"(tails {lower_tail:.3e}/{upper_tail:.3e}, "
            f"alpha/2={alpha / 2:.1e})"
        )


def assert_mean_within(
    samples: Sequence[float],
    expected: float,
    *,
    bounds: Sequence[float] = (0.0, 1.0),
    confidence: float = 1 - 1e-6,
    extra_tolerance: float = 0.0,
    context: str = "",
    budget: Optional[FalsePositiveBudget] = None,
) -> None:
    """Assert the sample mean is Hoeffding-consistent with ``expected``.

    For i.i.d. samples bounded in ``bounds``, the two-sided Hoeffding
    radius at level ``1 - confidence`` (plus ``extra_tolerance`` for any
    systematic modelling slack) must cover ``|mean - expected|``.
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.size == 0:
        raise ConfigurationError("samples must be non-empty")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not hi > lo:
        raise ConfigurationError(f"invalid bounds {bounds!r}")
    if data.min() < lo or data.max() > hi:
        raise ConfigurationError(
            f"samples fall outside declared bounds [{lo}, {hi}]"
        )
    alpha = 1.0 - confidence
    label = context or f"mean_within(expected={expected}, n={data.size})"
    _charge(budget, alpha, label)
    radius = hoeffding_radius(data.size, alpha, width=hi - lo)
    mean = float(data.mean())
    if abs(mean - expected) > radius + extra_tolerance:
        raise StatisticalAssertionError(
            f"{label}: sample mean {mean:.5f} deviates from expected "
            f"{expected:.5f} by {abs(mean - expected):.5f} > Hoeffding "
            f"radius {radius:.5f} + tolerance {extra_tolerance:.5f} "
            f"(n={data.size}, alpha={alpha:.1e})"
        )


def assert_proportions_close(
    successes_a: int,
    trials_a: int,
    successes_b: int,
    trials_b: int,
    *,
    confidence: float = 1 - 1e-6,
    extra_tolerance: float = 0.0,
    context: str = "",
    budget: Optional[FalsePositiveBudget] = None,
) -> None:
    """Assert two empirical proportions share a common underlying rate.

    Two-sample check used for differential testing of distributionally
    equivalent engines: if both samples are Binomial with the same ``p``,
    the gap between the empirical rates exceeds the combined Hoeffding
    radii with probability at most ``1 - confidence``.
    """
    for name, (k, n) in (
        ("a", (successes_a, trials_a)),
        ("b", (successes_b, trials_b)),
    ):
        if n <= 0:
            raise ConfigurationError(f"trials_{name} must be positive")
        if not 0 <= k <= n:
            raise ConfigurationError(
                f"successes_{name} must lie in [0, {n}], got {k}"
            )
    alpha = 1.0 - confidence
    label = context or (
        f"proportions_close(n_a={trials_a}, n_b={trials_b})"
    )
    _charge(budget, alpha, label)
    # Split alpha across the two one-sample deviations (union bound).
    radius = hoeffding_radius(trials_a, alpha / 2.0) + hoeffding_radius(
        trials_b, alpha / 2.0
    )
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    if abs(p_a - p_b) > radius + extra_tolerance:
        raise StatisticalAssertionError(
            f"{label}: proportions {p_a:.5f} ({successes_a}/{trials_a}) "
            f"and {p_b:.5f} ({successes_b}/{trials_b}) differ by "
            f"{abs(p_a - p_b):.5f} > radius {radius:.5f} + tolerance "
            f"{extra_tolerance:.5f} (alpha={alpha:.1e})"
        )


def assert_rounds_within(
    observed: Union[int, float, Sequence[float]],
    theory_bound: float,
    slack: float = 1.0,
    *,
    quantile: float = 1.0,
    context: str = "",
) -> None:
    """Assert observed round counts respect ``slack * theory_bound``.

    Deterministic given the observations (no alpha is charged): with
    ``quantile=1.0`` every observation must satisfy the bound; with e.g.
    ``quantile=0.9`` at least 90% of them must.  Use a ``slack`` matching
    the constant hidden by the theorem's big-O.
    """
    if slack <= 0:
        raise ConfigurationError(f"slack must be positive, got {slack}")
    if not 0.0 < quantile <= 1.0:
        raise ConfigurationError(
            f"quantile must lie in (0, 1], got {quantile}"
        )
    data = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    if data.size == 0:
        raise ConfigurationError("observed must be non-empty")
    limit = slack * float(theory_bound)
    within = data <= limit
    fraction = float(within.mean())
    label = context or f"rounds_within(bound={theory_bound}, slack={slack})"
    if fraction < quantile:
        worst = float(data.max())
        raise StatisticalAssertionError(
            f"{label}: only {fraction:.3f} of {data.size} observations "
            f"are <= {limit:.2f} (required quantile {quantile}); "
            f"worst observation {worst:.2f}"
        )
