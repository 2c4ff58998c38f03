"""Tests for repro.theory.tails: the one implementation of the binomial laws.

Cross-validated against the exact O(n) log-pmf sums of
``tests/binomial_reference.py`` and against Monte Carlo.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.theory import tails
from repro.theory.tails import (
    EXACT_COMPARISON_LIMIT,
    binomial_tail_ge,
    binomial_vs_binomial_probability,
    majority_mixture_success_probability,
    majority_success_probability,
    multinomial_pair_gt_probability,
    multinomial_pair_mixture_gt_probability,
    regularized_incomplete_beta,
)
from repro.verify import binomial_cdf, binomial_sf
from tests import binomial_reference as ref


class TestRegularizedIncompleteBeta:
    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(2.0, 5.0, 0.3), (10.0, 1.0, 0.9), (7.5, 7.5, 0.5)]:
            assert regularized_incomplete_beta(
                a, b, x
            ) == pytest.approx(
                1.0 - regularized_incomplete_beta(b, a, 1.0 - x), abs=1e-12
            )

    def test_endpoints(self):
        assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0

    def test_uniform_case(self):
        # a = b = 1 is the uniform CDF: I_x(1, 1) = x.
        for x in (0.1, 0.5, 0.93):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-12
            )

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            regularized_incomplete_beta(1.0, -1.0, 0.5)

    def test_out_of_range_x_clamps(self):
        # x outside [0, 1] clamps to the nearest endpoint (the engine
        # feeds float-rounded probabilities through here).
        assert regularized_incomplete_beta(1.0, 1.0, 1.5) == 1.0
        assert regularized_incomplete_beta(1.0, 1.0, -0.5) == 0.0


class TestBinomialTailGe:
    @pytest.mark.parametrize("n,p", [(10, 0.3), (100, 0.5), (541, 0.17), (2000, 0.85)])
    def test_matches_exact_sum(self, n, p):
        for k in [0, 1, n // 3, n // 2, n - 1, n]:
            assert binomial_tail_ge(k, n, p) == pytest.approx(
                ref.tail_ge(k, n, p), abs=1e-10
            )

    def test_edge_cases(self):
        assert binomial_tail_ge(0, 10, 0.4) == 1.0
        assert binomial_tail_ge(-3, 10, 0.4) == 1.0
        assert binomial_tail_ge(11, 10, 0.4) == 0.0
        assert binomial_tail_ge(5, 10, 0.0) == 0.0
        assert binomial_tail_ge(5, 10, 1.0) == 1.0
        assert binomial_tail_ge(0, 0, 0.3) == 1.0

    def test_large_n_stays_normalized(self):
        # The continued fraction must stay stable far beyond any exact sum.
        value = binomial_tail_ge(500_000, 1_000_000, 0.5)
        assert 0.49 < value < 0.51
        assert binomial_tail_ge(1, 10**9, 0.5) == pytest.approx(1.0, abs=1e-9)


class TestMajoritySuccessProbability:
    @pytest.mark.parametrize("q,w", [(0.6, 11), (0.6, 12), (0.5, 101), (0.9, 4), (0.31, 333)])
    def test_matches_rademacher_oracle(self, q, w):
        # P(X>0) + P(X=0)/2 for X the Rademacher sum with per-step
        # success q, summed over the whole pmf.
        assert majority_success_probability(q, w) == pytest.approx(
            ref.majority_success(q, w), abs=1e-10
        )

    def test_zero_window_is_coin_flip(self):
        assert majority_success_probability(0.7, 0) == 0.5

    def test_symmetry(self):
        for q, w in [(0.3, 17), (0.45, 40)]:
            assert majority_success_probability(
                q, w
            ) == pytest.approx(
                1.0 - majority_success_probability(1.0 - q, w), abs=1e-12
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            majority_success_probability(1.2, 10)
        with pytest.raises(ConfigurationError):
            majority_success_probability(0.5, -1)


class TestBinomialVsBinomial:
    def test_symmetric_case_is_half(self):
        # C1 ~ Bin(s, q), C0 ~ Bin(s, q): P(C1 > C0) + P(=)/2 = 1/2.
        assert binomial_vs_binomial_probability(
            50, 0.3, 50, 0.3
        ) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.statistical
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        cases = [(60, 0.25, 40, 0.2), (200, 0.55, 200, 0.5), (30, 0.1, 90, 0.05)]
        for t1, p1, t0, p0 in cases:
            samples = 200_000
            c1 = rng.binomial(t1, p1, size=samples)
            c0 = rng.binomial(t0, p0, size=samples)
            estimate = np.mean((c1 > c0) + 0.5 * (c1 == c0))
            exact = binomial_vs_binomial_probability(t1, p1, t0, p0)
            # 200k samples: 4-sigma radius ~ 0.0045.
            assert exact == pytest.approx(estimate, abs=0.005)

    def test_normal_branch_continuity(self):
        # Exact and normal-approximation branches must agree near the
        # crossover trial count.
        t = EXACT_COMPARISON_LIMIT // 2
        exact = binomial_vs_binomial_probability(t, 0.52, t, 0.5)
        approx = binomial_vs_binomial_probability(
            EXACT_COMPARISON_LIMIT, 0.52, EXACT_COMPARISON_LIMIT, 0.5
        )
        # Same drift direction and a smooth handoff: the larger sample
        # is strictly more separating.
        assert 0.5 < exact < approx < 1.0

    def test_dominant_side_wins(self):
        assert binomial_vs_binomial_probability(400, 0.8, 400, 0.2) > 1 - 1e-9
        assert binomial_vs_binomial_probability(400, 0.2, 400, 0.8) < 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            binomial_vs_binomial_probability(-1, 0.5, 10, 0.5)
        with pytest.raises(ConfigurationError):
            binomial_vs_binomial_probability(10, 1.5, 10, 0.5)


class TestMultinomialPairGt:
    def test_zero_mass_is_coin_flip(self):
        assert multinomial_pair_gt_probability(100, 0.0, 0.0) == 0.5
        assert multinomial_pair_gt_probability(0, 0.3, 0.2) == 0.5

    def test_symmetric_coordinates_are_half(self):
        assert multinomial_pair_gt_probability(80, 0.25, 0.25) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.statistical
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        cases = [(64, 0.1, 0.05), (200, 0.3, 0.25), (48, 0.02, 0.01)]
        for trials, p_plus, p_minus in cases:
            samples = 200_000
            draws = rng.multinomial(
                trials, [p_plus, p_minus, 1.0 - p_plus - p_minus], size=samples
            )
            estimate = np.mean(
                (draws[:, 0] > draws[:, 1]) + 0.5 * (draws[:, 0] == draws[:, 1])
            )
            exact = multinomial_pair_gt_probability(trials, p_plus, p_minus)
            assert exact == pytest.approx(estimate, abs=0.005)

    def test_normal_branch_matches_exact_shape(self):
        # Force the normal branch with a huge trial count and check it
        # sits between the exact values of nearby smaller cases.
        big = multinomial_pair_gt_probability(10 * EXACT_COMPARISON_LIMIT, 0.02, 0.019)
        assert 0.5 < big < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            multinomial_pair_gt_probability(10, 0.8, 0.3)  # mass > 1
        with pytest.raises(ConfigurationError):
            multinomial_pair_gt_probability(-1, 0.1, 0.1)


# ----------------------------------------------------------------------
# Mixture laws: one vote over a window whose parts have different laws
# ----------------------------------------------------------------------
#: (opinion parts, weak parts) below the switch: two and three parts,
#: a tiny part, a certain part and a part with no weight.
MIXTURE_CASES = [
    (((40, 0.45), (24, 0.7)), ((40, 0.1, 0.12), (24, 0.4, 0.05))),
    (((1, 0.9), (300, 0.49), (3, 0.0)), ((1, 0.3, 0.0), (300, 0.02, 0.03), (3, 0.0, 0.0))),
    (((500, 0.505), (499, 0.5), (0, 0.2)), ((250, 0.2, 0.19), (249, 0.1, 0.12), (0, 0.5, 0.5))),
    (((900, 0.48), (1100, 0.515)), ((120, 0.001, 0.002), (180, 0.25, 0.24))),
]


class TestMixtureLaws:
    @pytest.mark.parametrize("opinion,weak", MIXTURE_CASES)
    def test_exact_branch_matches_direct_convolution(self, opinion, weak):
        assert majority_mixture_success_probability(opinion) == pytest.approx(
            ref.majority_mixture_success(opinion), abs=1e-12
        )
        assert multinomial_pair_mixture_gt_probability(weak) == pytest.approx(
            ref.pair_mixture_success(weak), abs=1e-12
        )

    @pytest.mark.parametrize("window", [1, 2, 7, 64, 333, 5000])
    def test_one_part_is_the_plain_law_bit_for_bit(self, window):
        for q in (0.0, 0.3, 0.5, 0.51, 1.0):
            assert majority_mixture_success_probability(((window, q),)) == (
                majority_success_probability(q, window)
            )
        for p_plus, p_minus in ((0.1, 0.05), (0.2, 0.2), (0.0, 0.3)):
            assert multinomial_pair_mixture_gt_probability(
                ((window, p_plus, p_minus),)
            ) == multinomial_pair_gt_probability(window, p_plus, p_minus)

    def test_parts_with_one_law_are_one_window(self):
        # Bin(a, q) + Bin(b, q) is Bin(a + b, q), at the switch too.
        for a, b in ((3, 4), (100, 57), (EXACT_COMPARISON_LIMIT - 5000, 5000)):
            assert majority_mixture_success_probability(
                ((a, 0.497), (b, 0.497))
            ) == pytest.approx(majority_success_probability(0.497, a + b), abs=1e-11)
            assert multinomial_pair_mixture_gt_probability(
                ((a, 0.011, 0.01), (b, 0.011, 0.01))
            ) == pytest.approx(
                multinomial_pair_gt_probability(a + b, 0.011, 0.01), abs=1e-11
            )

    def test_empty_window_is_coin_flip(self):
        assert majority_mixture_success_probability(((0, 0.9), (0, 0.1))) == 0.5
        assert multinomial_pair_mixture_gt_probability(((0, 0.9, 0.1), (0, 0.0, 0.0))) == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            majority_mixture_success_probability(((10, 0.5), (-1, 0.5)))
        with pytest.raises(ConfigurationError):
            majority_mixture_success_probability(((10, 0.5), (3, 1.5)))
        with pytest.raises(ConfigurationError):
            multinomial_pair_mixture_gt_probability(((10, 0.8, 0.3), (3, 0.1, 0.1)))
        with pytest.raises(ConfigurationError):
            multinomial_pair_mixture_gt_probability(((10, 0.1, 0.1), (-3, 0.1, 0.1)))


# ----------------------------------------------------------------------
# The normal branch above EXACT_COMPARISON_LIMIT: a measured error bound
# ----------------------------------------------------------------------
#: Worst absolute error of each comparison law's normal branch against
#: its exact convolution, measured over total trials 16 385 .. 2**20
#: (the multinomial law: .. 2**16, its exact form being a Python loop),
#: delta 0.001 .. 0.45 and means -2 .. +2 standard deviations.  Both
#: maxima sit at the switch, at delta = 0.001 and mean -2 sd, and shrink
#: about as 1/trials (docs/performance.md).
BINOMIAL_NORMAL_ERROR = 4.5e-3
MULTINOMIAL_NORMAL_ERROR = 1.9e-3
#: The same for the mixture laws, over the grid of
#: ``test_mixture_errors_are_bounded``.  The opinion law's worst case
#: sits at the switch, three parts, q near 1/2 and mean 0 (an odd
#: window's half-step); the pair law's at the switch, base level 0.001
#: and mean -3 sd, as for one part.
OPINION_MIXTURE_NORMAL_ERROR = 2.4e-5
PAIR_MIXTURE_NORMAL_ERROR = 1.6e-3


def _normal_and_exact(monkeypatch, law, *args):
    """``law(*args)`` on its normal branch, then on its exact one."""
    normal = law(*args)
    with monkeypatch.context() as patch:
        patch.setattr(tails, "EXACT_COMPARISON_LIMIT", 2**62)
        exact = law(*args)
    return normal, exact


def _at_z(z, fixed_mean, variance_of, scale):
    """The shifted probability putting the comparison's mean at ``z`` sd."""
    p = fixed_mean
    for _ in range(50):
        p = min(max(fixed_mean + z * math.sqrt(variance_of(p)) / scale, 0.0), 1.0)
    return p


class TestNormalApproximationError:
    def test_binomial_comparison_error_is_bounded(self, monkeypatch):
        worst = 0.0
        for total, delta, z in itertools.product(
            (EXACT_COMPARISON_LIMIT + 1, 2**17, 2**20),
            (0.001, 0.01, 0.1, 0.45),
            (-2.0, -1.5, -0.5, 0.5, 1.5, 2.0),
        ):
            t1, t0 = total - total // 2, total // 2
            p1 = _at_z(
                z, t0 * delta / t1,
                lambda p: t1 * p * (1 - p) + t0 * delta * (1 - delta), t1,
            )
            normal, exact = _normal_and_exact(
                monkeypatch, binomial_vs_binomial_probability, t1, p1, t0, delta
            )
            worst = max(worst, abs(normal - exact))
        assert worst <= BINOMIAL_NORMAL_ERROR
        # The bound is the measured worst case, not a loose one.
        assert worst > 0.9 * BINOMIAL_NORMAL_ERROR

    def test_multinomial_comparison_error_is_bounded(self, monkeypatch):
        worst = 0.0
        for total, delta, z in itertools.product(
            (EXACT_COMPARISON_LIMIT + 1, 2**16),
            (0.001, 0.1, 0.45),
            (-2.0, -0.5, 0.5, 2.0),
        ):
            p_plus = _at_z(
                z, delta, lambda p: total * (p + delta - (p - delta) ** 2), total
            )
            normal, exact = _normal_and_exact(
                monkeypatch, multinomial_pair_gt_probability, total, p_plus, delta
            )
            worst = max(worst, abs(normal - exact))
        assert worst <= MULTINOMIAL_NORMAL_ERROR
        assert worst > 0.9 * MULTINOMIAL_NORMAL_ERROR

    def test_mixture_errors_are_bounded(self, monkeypatch):
        """Over two- and three-part windows just above the switch and at
        2**15 (the adversary search's SSF epochs hold 32 768 samples),
        parts whose laws differ by half their base level, and means at
        -3, 0 and +3 standard deviations."""
        worst_opinion = worst_pair = 0.0
        for total, shares, base, z in itertools.product(
            (EXACT_COMPARISON_LIMIT + 1, 2**15),
            ((0.5, 0.5), (0.375, 0.25, 0.375)),
            (0.001, 0.3),
            (-3.0, 0.0, 3.0),
        ):
            sizes = [int(total * share) for share in shares[:-1]]
            sizes.append(total - sum(sizes))
            offsets = [(-1) ** i * 0.5 * base for i in range(len(sizes))]
            spread = sum(w * o for w, o in zip(sizes, offsets))

            def opinion(shift):
                return tuple(
                    (w, min(max(0.5 + o + shift, 0.0), 1.0))
                    for w, o in zip(sizes, offsets)
                )

            def pair(shift):
                return tuple(
                    (w, min(max(base + o + shift, 0.0), 1.0 - base), base)
                    for w, o in zip(sizes, offsets)
                )

            shift = 0.0
            for _ in range(50):
                variance = sum(w * q * (1 - q) for w, q in opinion(shift))
                shift = (z * math.sqrt(variance) - spread) / total
            normal, exact = _normal_and_exact(
                monkeypatch, majority_mixture_success_probability, opinion(shift)
            )
            worst_opinion = max(worst_opinion, abs(normal - exact))
            shift = 0.0
            for _ in range(50):
                variance = sum(
                    t * (pp + pm - (pp - pm) ** 2) for t, pp, pm in pair(shift)
                )
                shift = (z * math.sqrt(variance) - spread) / total
            normal, exact = _normal_and_exact(
                monkeypatch, multinomial_pair_mixture_gt_probability, pair(shift)
            )
            worst_pair = max(worst_pair, abs(normal - exact))
        assert 0.9 * OPINION_MIXTURE_NORMAL_ERROR < worst_opinion <= OPINION_MIXTURE_NORMAL_ERROR
        assert 0.9 * PAIR_MIXTURE_NORMAL_ERROR < worst_pair <= PAIR_MIXTURE_NORMAL_ERROR

    def test_exact_branch_below_the_switch(self, monkeypatch):
        # At the limit itself the law is already the exact convolution.
        half = EXACT_COMPARISON_LIMIT // 2
        normal, exact = _normal_and_exact(
            monkeypatch, binomial_vs_binomial_probability, half, 0.0015, half, 0.001
        )
        assert normal == exact


# ----------------------------------------------------------------------
# The normal fallback when the continued fraction does not converge
# ----------------------------------------------------------------------
#: Worst absolute error of ``binomial_tail_ge``'s normal fallback over
#: the grid below, against the log-pmf reference.  It sits at n = 10**6,
#: p = 0.1, 0.1 sd below the mean, and is the skewness the
#: continuity-corrected normal tail ignores (zero at p = 1/2).
FALLBACK_ERROR = 1.8e-4

FALLBACK_GRID = list(itertools.product(
    (10**4, 10**5, 5 * 10**5, 10**6),
    (0.5, 0.3, 0.1),
    (-1.0, -0.1, 0.0, 0.1, 1.0),
))


def _grid_point(n, p, z):
    return int(round(n * p + z * math.sqrt(n * p * (1.0 - p)))), n, p


def _converges(k, n, p):
    try:
        regularized_incomplete_beta(float(k), float(n - k + 1), p)
    except ConfigurationError:
        return False
    return True


def _windowed_tail_ge(k, n, p):
    """The reference upper tail, summed only to 40 sd above the mean
    (the rest is below 1e-300)."""
    top = min(n, int(n * p + 40 * math.sqrt(n * p * (1.0 - p))))
    log_terms = ref.log_pmf(np.arange(k, top + 1), n, p)
    peak = float(log_terms.max())
    return math.exp(peak) * float(np.exp(log_terms - peak).sum())


class TestContinuedFractionFallback:
    def test_fallback_only_near_the_centre_at_large_n(self):
        fallbacks = [
            (n, p, z) for n, p, z in FALLBACK_GRID
            if not _converges(*_grid_point(n, p, z))
        ]
        # 11 of 60 grid points: never below n = 5e5, never a full sd out.
        assert len(fallbacks) == 11
        assert min(n for n, _, _ in fallbacks) == 5 * 10**5
        assert max(abs(z) for _, _, z in fallbacks) <= 0.1

    def test_fallback_error_is_bounded(self):
        worst = 0.0
        for n, p, z in FALLBACK_GRID:
            k, n, p = _grid_point(n, p, z)
            if _converges(k, n, p):
                continue
            exact = _windowed_tail_ge(k, n, p)
            # binomial_sf and binomial_cdf (through the mirrored tail)
            # inherit the fallback.
            for value in (
                binomial_tail_ge(k, n, p),
                binomial_sf(k, n, p),
                binomial_cdf(n - k, n, 1.0 - p),
            ):
                worst = max(worst, abs(value - exact))
        assert worst <= FALLBACK_ERROR
        assert worst > 0.9 * FALLBACK_ERROR


#: sha256 of ``_betacf``'s outputs on the sweep below, taken from the
#: form with builtin ``abs`` checks: a faster form must keep every float.
BETACF_SWEEP_SHA256 = (
    "30d4abf19afce968574f1a9141c7642c4d77de72c6d70022bfa5faba2fd97059"
)


class TestContinuedFractionBits:
    def test_sweep_outputs_are_pinned(self):
        rng = np.random.default_rng(20_000)
        a, b = np.exp(rng.uniform(math.log(0.05), math.log(2e4), (2, 20_000)))
        x = rng.uniform(0.0, 1.0, 20_000)
        # The side of the symmetry split regularized_incomplete_beta takes.
        args = [
            (float(ai), float(bi), float(xi)) if xi < (ai + 1) / (ai + bi + 2)
            else (float(bi), float(ai), float(1.0 - xi))
            for ai, bi, xi in zip(a, b, x)
        ]
        specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320]
        args += [(3.0, 4.0, s) for s in specials] + [(s, 2.0, 0.3) for s in specials]
        outputs = []
        for point in args:
            try:
                outputs.append(repr(tails._betacf(*point)))
            except ConfigurationError:
                outputs.append("no-convergence")
        digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        assert digest == BETACF_SWEEP_SHA256


# ----------------------------------------------------------------------
# No scipy fork: the laws give the same bits with scipy hidden
# ----------------------------------------------------------------------
_LAWS_SCRIPT = """
import json, sys
from repro.analysis import wilson_interval
from repro.theory import (
    TrinomialStep, exact_majority_advantage, two_party_error,
    weak_opinion_success_probability,
)
from repro.verify import binomial_cdf
print(json.dumps([
    wilson_interval(8, 10, 0.95), wilson_interval(993, 1000, 0.999),
    weak_opinion_success_probability(TrinomialStep(0.3, 0.5, 0.2), 300),
    weak_opinion_success_probability(TrinomialStep(0.12, 0.8, 0.08), 20000),
    exact_majority_advantage(0.05, 301),
    binomial_cdf(40, 100, 0.5), binomial_cdf(3, 5000, 0.01),
    two_party_error(101, 0.1), two_party_error(40, 0.3),
]))
"""


class TestNoScipyFork:
    def test_laws_are_identical_without_scipy(self):
        hide = 'import sys; sys.modules["scipy"] = None\n'
        outputs = [
            subprocess.run(
                [sys.executable, "-c", prelude + _LAWS_SCRIPT],
                capture_output=True, text=True, check=True, timeout=240,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            ).stdout
            for prelude in (hide, "")
        ]
        assert json.loads(outputs[0]) == json.loads(outputs[1])
