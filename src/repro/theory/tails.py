"""The one implementation of the binomial laws: O(1) binomial tails.

The count engine (:mod:`repro.model.count_engine`) replaces per-agent
sampling with closed-form per-agent success probabilities followed by one
population-level binomial draw.  Those probabilities are binomial and
multinomial tail events:

* ``P(Binomial(w, q) > w/2)`` — one agent's majority vote over a window
  of ``w`` noisy observations (SF boosting, SSF opinion vote);
* ``P(C1 > C0)`` for two independent binomial counters — SF's weak
  opinion (Counter1 vs Counter0 over the two listening phases);
* ``P(M1 > M0)`` for two coordinates of one multinomial — SSF's weak
  opinion (source-1 vs source-0 tallies in a flushed buffer);
* their *mixtures*: the same votes over a window whose observations
  come in parts with different laws — an SSF epoch that straddles a
  crash or recovery round.

The theory oracles (weak opinions, majorities, the two-party error), the
mean-field maps and the statistical assertions of :mod:`repro.verify`
evaluate the same laws through this module.  Its central tool is the
regularized incomplete beta function, evaluated with Lentz's continued
fraction (no scipy required), which gives every binomial tail in O(1)
time; its relative error grows with ``n``, to ~5e-12 at ``n = 5000``.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "regularized_incomplete_beta",
    "binomial_tail_ge",
    "binomial_pmf",
    "majority_success_probability",
    "binomial_vs_binomial_probability",
    "multinomial_pair_gt_probability",
    "majority_mixture_success_probability",
    "multinomial_pair_mixture_gt_probability",
]

#: Above this many trials the pairwise-comparison laws switch from the
#: exact O(trials) convolution to a normal approximation.  Measured
#: against the exact convolution over total trials 16 385 .. 2^20
#: (multinomial: .. 2^16), delta 0.001 .. 0.45 and means within 2 sd,
#: the worst absolute error is 4.4e-3 for the binomial comparison and
#: 1.8e-3 for the multinomial one.  Both sit at the switch with
#: delta = 0.001, where a counter expects only ~8 hits, and shrink about
#: as 1/trials (binomial: 4.1e-5 at 2^20; <= 1.1e-5 at the switch once
#: delta >= 0.1).  Deep in a tail the *relative* error is large: 3.0e-3
#: against an exact 5.4e-4 at -2.75 sd.  tests/test_tails.py pins the
#: bounds; see docs/performance.md.
EXACT_COMPARISON_LIMIT = 16_384

_BETACF_MAX_ITERATIONS = 300
_BETACF_EPS = 3e-16
_BETACF_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method).

    ``v < t and -t < v`` and ``-t < v < t`` are ``abs(v) < t`` for every
    float, -0.0, NaN and +-inf included, without a builtin call; the
    first form stops after one comparison on the usual large ``v``.
    The constants are bound locally for the same reason.
    """
    fpmin, eps = _BETACF_FPMIN, _BETACF_EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if d < fpmin and -fpmin < d:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if d < fpmin and -fpmin < d:
            d = fpmin
        c = 1.0 + aa / c
        if c < fpmin and -fpmin < c:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if d < fpmin and -fpmin < d:
            d = fpmin
        c = 1.0 + aa / c
        if c < fpmin and -fpmin < c:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise ConfigurationError(
        f"incomplete-beta continued fraction failed to converge for "
        f"a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the regularized incomplete beta function.

    Evaluated as ``B(x; a, b) / B(a, b)`` with Lentz's continued fraction
    on whichever of ``x`` / ``1-x`` converges fast (the standard
    symmetry split at ``x = (a+1)/(a+b+2)``).
    """
    if a <= 0.0 or b <= 0.0:
        raise ConfigurationError(
            f"incomplete beta requires a, b > 0, got a={a}, b={b}"
        )
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, front * _betacf(a, b, x) / a)
    return min(1.0, 1.0 - front * _betacf(b, a, 1.0 - x) / b)


def binomial_tail_ge(k: int, n: int, p: float) -> float:
    """``P(X >= k)`` for ``X ~ Binomial(n, p)`` in O(1).

    Uses the identity ``P(X >= k) = I_p(k, n - k + 1)``, in constant
    time.  The test suite cross-validates it against an exact O(n)
    log-pmf sum (``tests/binomial_reference.py``).
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must lie in [0, 1], got {p}")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    try:
        return regularized_incomplete_beta(float(k), float(n - k + 1), p)
    except ConfigurationError:
        # Lentz's iteration needs ~sqrt(min(a, b)) terms near the
        # distribution's bulk, so the central region at extreme n can
        # exhaust the budget (from n ~ 5e5, within ~0.1 sd of the mean).
        # There the CLT is sharp: fall back to the continuity-corrected
        # normal tail (error O(1/sqrt(n)), measured <= 1.8e-4 up to
        # n = 1e6 by tests/test_tails.py; orders below the count
        # engine's conformance tolerance at such n).
        mean = n * p
        sd = math.sqrt(n * p * (1.0 - p))
        return 0.5 * math.erfc((k - 0.5 - mean) / (math.sqrt(2.0) * sd))


def binomial_pmf(k: int, n: int, p: float) -> float:
    """``P(X = k)`` for ``X ~ Binomial(n, p)`` via log-gamma (O(1))."""
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must lie in [0, 1], got {p}")
    if k < 0 or k > n:
        return 0.0
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def majority_success_probability(q: float, window: int) -> float:
    """``P(Bin(window, q) > window/2) + P(tie)/2`` in O(1).

    The probability that one agent's majority vote over ``window``
    observations, each reading the counted symbol with probability ``q``,
    lands on that symbol (ties broken by a fair coin).  ``window = 0``
    is a pure tie, hence 1/2.  O(1) rather than O(window), which is what
    lets the count engine price a sub-phase of ``m`` samples without
    touching ``m``.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"q must lie in [0, 1], got {q}")
    if window < 0:
        raise ConfigurationError(f"window must be non-negative, got {window}")
    if window == 0:
        return 0.5
    k = window // 2 + 1
    p_gt = binomial_tail_ge(k, window, q)
    if window % 2 == 0:
        return p_gt + 0.5 * binomial_pmf(window // 2, window, q)
    return p_gt


def _binomial_pmf_vector(n: int, p: float) -> np.ndarray:
    """Full pmf vector of ``Binomial(n, p)``; O(n) and log-stable."""
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    k = np.arange(n + 1, dtype=np.float64)
    # Recur the log binomial coefficients: C(n, k+1) = C(n, k)*(n-k)/(k+1).
    log_coeff = np.concatenate(
        [[0.0], np.cumsum(np.log((n - k[:-1]) / (k[:-1] + 1.0)))]
    )
    log_pmf = log_coeff + k * math.log(p) + (n - k) * math.log1p(-p)
    return np.exp(log_pmf)


def _normal_gt_half_tie(mean: float, variance: float) -> float:
    """``P(D > 0) + P(D = 0)/2`` under a normal approximation of ``D``."""
    if variance <= 0.0:
        if mean > 0.0:
            return 1.0
        if mean < 0.0:
            return 0.0
        return 0.5
    return 0.5 * math.erfc(-mean / math.sqrt(2.0 * variance))


def binomial_vs_binomial_probability(
    trials1: int, p1: float, trials0: int, p0: float
) -> float:
    """``P(C1 > C0) + P(C1 = C0)/2`` for independent binomial counters.

    The law of SF's weak opinion (Lemma 28): ``C1 ~ Bin(trials1, p1)``
    counts 1s over Phase 0, ``C0 ~ Bin(trials0, p0)`` counts 0s over
    Phase 1, and the weak opinion is 1 iff ``C1 > C0`` (fair coin on
    ties).  Exact by pmf convolution up to
    :data:`EXACT_COMPARISON_LIMIT` total trials, then a normal
    approximation of ``C1 - C0``, whose measured absolute error is at
    most 4.4e-3 (see :data:`EXACT_COMPARISON_LIMIT`).
    """
    for name, (t, p) in (("1", (trials1, p1)), ("0", (trials0, p0))):
        if t < 0:
            raise ConfigurationError(f"trials{name} must be non-negative, got {t}")
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p{name} must lie in [0, 1], got {p}")
    if trials1 == 0 and trials0 == 0:
        return 0.5
    if trials1 + trials0 <= EXACT_COMPARISON_LIMIT:
        pmf1 = _binomial_pmf_vector(trials1, p1)
        pmf0 = _binomial_pmf_vector(trials0, p0)
        # sf1[k] = P(C1 >= k) for k = 0 .. trials1 + 1.
        sf1 = np.concatenate([np.cumsum(pmf1[::-1])[::-1], [0.0]])
        limit = min(trials0, trials1) + 1
        p_gt = float(np.dot(pmf0[:limit], sf1[1 : limit + 1]))
        p_eq = float(np.dot(pmf0[:limit], pmf1[:limit]))
        return min(1.0, p_gt + 0.5 * p_eq)
    mean = trials1 * p1 - trials0 * p0
    variance = trials1 * p1 * (1.0 - p1) + trials0 * p0 * (1.0 - p0)
    return _normal_gt_half_tie(mean, variance)


def multinomial_pair_gt_probability(
    trials: int, p_plus: float, p_minus: float
) -> float:
    """``P(M+ > M-) + P(M+ = M-)/2`` for two multinomial coordinates.

    ``(M+, M-)`` are two category counts of one ``Multinomial(trials,
    ...)`` draw with category probabilities ``p_plus`` / ``p_minus`` —
    the law of SSF's weak vote (source-1 vs source-0 tallies within one
    flushed buffer).  Conditioning on the combined relevant count ``B =
    M+ + M- ~ Bin(trials, p_plus + p_minus)``, within which ``M+ ~
    Bin(B, p_plus / (p_plus + p_minus))``, gives

        ``sum_b P(B = b) * majority_success(p_plus/(p_plus+p_minus), b)``

    — exact in O(trials) with O(1) inner terms; beyond
    :data:`EXACT_COMPARISON_LIMIT` the normal approximation of
    ``M+ - M-`` (mean ``trials*(p+ - p-)``, variance
    ``trials*(p+ + p- - (p+ - p-)^2)``) takes over, with a measured
    absolute error of at most 1.8e-3.
    """
    if trials < 0:
        raise ConfigurationError(f"trials must be non-negative, got {trials}")
    for name, p in (("p_plus", p_plus), ("p_minus", p_minus)):
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"{name} must lie in [0, 1], got {p}")
    if p_plus + p_minus > 1.0 + 1e-12:
        raise ConfigurationError(
            f"p_plus + p_minus must not exceed 1, got {p_plus + p_minus}"
        )
    mass = p_plus + p_minus
    if trials == 0 or mass <= 0.0:
        return 0.5
    ratio = p_plus / mass
    if trials <= EXACT_COMPARISON_LIMIT:
        pmf_b = _binomial_pmf_vector(trials, min(mass, 1.0))
        total = 0.0
        for b, weight in enumerate(pmf_b):
            if weight < 1e-18:
                continue
            total += weight * majority_success_probability(ratio, b)
        return min(1.0, total)
    diff = p_plus - p_minus
    mean = trials * diff
    variance = trials * (mass - diff * diff)
    return _normal_gt_half_tie(mean, variance)


def _sum_pmf(parts) -> np.ndarray:
    """pmf of a sum of independent draws, each ``(trials, probs)`` part
    adding ``trials`` draws that land on ``j`` with probability
    ``probs[j]``: the convolution of the parts, taken through the FFT of
    the product of their generating functions on the unit circle
    (O(S log S) over the sum's S values; round-off ~1e-12)."""
    values = 1 + sum(trials * (len(probs) - 1) for trials, probs in parts)
    size = 1 << (values - 1).bit_length()  # a fast FFT length, no wrap
    circle = np.exp(-2j * math.pi * np.arange(size // 2 + 1) / size)
    generating = np.ones_like(circle)
    for trials, probs in parts:
        generating *= np.polynomial.polynomial.polyval(circle, probs) ** trials
    return np.fft.irfft(generating, n=size)[:values]


def _above_half(pmf: np.ndarray, total: int) -> float:
    """``P(S > total/2) + P(S = total/2)/2`` for ``S`` on ``0..total``."""
    half, odd = divmod(total, 2)
    tie = 0.0 if odd else 0.5 * float(pmf[half])
    return min(1.0, max(0.0, float(pmf[half + 1 :].sum()) + tie))


def majority_mixture_success_probability(parts) -> float:
    """:func:`majority_success_probability` over a window in parts.

    ``parts`` lists ``(window, q)`` pairs: the vote counts ``X = sum_i
    Bin(window_i, q_i)`` hits over ``w = sum_i window_i`` observations
    and succeeds with ``P(X > w/2) + P(X = w/2)/2``.  One part is
    :func:`majority_success_probability` itself.  Exact by convolution
    up to :data:`EXACT_COMPARISON_LIMIT` total observations, then a
    normal form of ``X - w/2`` with the parts' summed mean and variance
    (tests/test_tails.py pins its measured error).
    """
    if len(parts) == 1:
        ((window, q),) = parts
        return majority_success_probability(q, window)
    for window, q in parts:
        if window < 0:
            raise ConfigurationError(f"window must be non-negative, got {window}")
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must lie in [0, 1], got {q}")
    total = sum(window for window, _ in parts)
    if total <= EXACT_COMPARISON_LIMIT:
        pmf = _sum_pmf([(window, (1.0 - q, q)) for window, q in parts])
        return _above_half(pmf, total)
    mean = sum(window * q for window, q in parts) - 0.5 * total
    variance = sum(window * q * (1.0 - q) for window, q in parts)
    return _normal_gt_half_tie(mean, variance)


def multinomial_pair_mixture_gt_probability(parts) -> float:
    """:func:`multinomial_pair_gt_probability` over a buffer in parts.

    ``parts`` lists ``(trials, p_plus, p_minus)`` triples, one
    multinomial draw each: the vote compares the summed ``M+`` and
    ``M-`` tallies, ``P(D > 0) + P(D = 0)/2`` for ``D = sum_i (M+_i -
    M-_i)``.  One part is :func:`multinomial_pair_gt_probability`
    itself.  Exact by convolution up to :data:`EXACT_COMPARISON_LIMIT`
    total trials, then a normal form of ``D`` with the parts' summed
    mean and variance (tests/test_tails.py pins its measured error).
    """
    if len(parts) == 1:
        ((trials, p_plus, p_minus),) = parts
        return multinomial_pair_gt_probability(trials, p_plus, p_minus)
    for trials, p_plus, p_minus in parts:
        if trials < 0:
            raise ConfigurationError(f"trials must be non-negative, got {trials}")
        if not (0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0
                and p_plus + p_minus <= 1.0 + 1e-12):
            raise ConfigurationError(
                f"p_plus={p_plus} and p_minus={p_minus} must be probabilities "
                f"summing to at most 1"
            )
    total = sum(trials for trials, _, _ in parts)
    if total <= EXACT_COMPARISON_LIMIT:
        # D + total counts one step per trial: 0 (minus), 1 or 2 (plus).
        pmf = _sum_pmf([
            (trials, (p_minus, max(0.0, 1.0 - p_plus - p_minus), p_plus))
            for trials, p_plus, p_minus in parts
        ])
        return _above_half(pmf, 2 * total)
    mean = sum(trials * (p_plus - p_minus) for trials, p_plus, p_minus in parts)
    variance = sum(
        trials * (p_plus + p_minus - (p_plus - p_minus) ** 2)
        for trials, p_plus, p_minus in parts
    )
    return _normal_gt_half_tie(mean, variance)
