"""Tests for repro.verify.statistical (exact binomial / Hoeffding layer)."""

import itertools
import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.verify import (
    FalsePositiveBudget,
    StatisticalAssertionError,
    assert_binomial_plausible,
    assert_mean_within,
    assert_proportions_close,
    assert_rounds_within,
    assert_success_probability,
    binomial_cdf,
    binomial_sf,
    hoeffding_radius,
)
from tests import binomial_reference as ref


class TestBinomialTails:
    def test_cdf_matches_direct_sum(self):
        # n small enough to sum the pmf with exact arithmetic.
        n, p = 12, 0.3
        for k in range(-1, n + 2):
            direct = sum(
                math.comb(n, i) * p**i * (1 - p) ** (n - i)
                for i in range(0, min(k, n) + 1)
            )
            assert binomial_cdf(k, n, p) == pytest.approx(direct, rel=1e-12)

    def test_sf_complements_cdf(self):
        n, p = 25, 0.47
        for k in range(0, n + 1):
            total = binomial_cdf(k - 1, n, p) + binomial_sf(k, n, p)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_tiny_tail_keeps_relative_precision(self):
        # P(X >= 50 | n=50, p=0.5) = 2^-50; 1 - cdf would lose this.
        assert binomial_sf(50, 50, 0.5) == pytest.approx(2.0**-50, rel=1e-9)

    def test_degenerate_p(self):
        assert binomial_cdf(3, 10, 0.0) == 1.0
        assert binomial_cdf(3, 10, 1.0) == 0.0
        assert binomial_sf(3, 10, 1.0) == 1.0
        assert binomial_sf(3, 10, 0.0) == 0.0

    def test_matches_log_pmf_reference(self):
        # Both tails against the exact O(n) sums, from p = 1e-9 to
        # 1 - 1e-9: the lower tail goes through 1 - p, so tiny p is where
        # it would lose digits.
        worst = 0.0
        probabilities = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)
        for n, p in itertools.product((1, 10, 100, 1000, 5000), probabilities):
            sd = math.sqrt(n * p * (1 - p))
            mean = n * p
            for k in {0, 1, n // 2, n - 1, n, int(mean), int(mean + 3 * sd),
                      max(int(mean - 3 * sd), 0)}:
                for ours, exact in (
                    (binomial_sf(k, n, p), ref.tail_ge(k, n, p)),
                    (binomial_cdf(k, n, p), ref.tail_le(k, n, p)),
                ):
                    if exact > 0.0:
                        worst = max(worst, abs(ours - exact) / exact)
        assert worst <= 1e-11

    def test_scipy_agreement(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for n, p, k in [(100, 0.3, 25), (400, 0.9, 351), (17, 0.02, 1)]:
            assert binomial_cdf(k, n, p) == pytest.approx(
                float(scipy_stats.binom.cdf(k, n, p)), rel=1e-9
            )
            assert binomial_sf(k, n, p) == pytest.approx(
                float(scipy_stats.binom.sf(k - 1, n, p)), rel=1e-9
            )


class TestSuccessProbability:
    def test_accepts_consistent_data(self):
        budget = FalsePositiveBudget()
        assert_success_probability(95, 100, 0.9, budget=budget)

    def test_rejects_implausible_data(self):
        budget = FalsePositiveBudget()
        with pytest.raises(StatisticalAssertionError):
            assert_success_probability(
                50, 100, 0.9, confidence=1 - 1e-6, budget=budget
            )

    def test_is_an_assertion_and_a_repro_error(self):
        budget = FalsePositiveBudget()
        with pytest.raises(AssertionError):
            assert_success_probability(0, 50, 0.9, budget=budget)
        with pytest.raises(ReproError):
            assert_success_probability(0, 50, 0.9, budget=budget)

    def test_near_threshold_honors_confidence(self):
        # 85/100 at claimed 0.9: one-sided p-value ~0.04 — rejected at
        # confidence 0.9 but accepted at 0.999.
        budget = FalsePositiveBudget(total=0.5)
        with pytest.raises(StatisticalAssertionError):
            assert_success_probability(
                85, 100, 0.9, confidence=0.9, budget=budget
            )
        assert_success_probability(
            85, 100, 0.9, confidence=0.999, budget=budget
        )

    def test_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            assert_success_probability(5, 0, 0.9)
        with pytest.raises(ConfigurationError):
            assert_success_probability(11, 10, 0.9)


class TestBinomialPlausible:
    def test_fair_coin_accepts_center(self):
        budget = FalsePositiveBudget()
        assert_binomial_plausible(1000, 2000, 0.5, budget=budget)

    def test_fair_coin_rejects_far_tail(self):
        budget = FalsePositiveBudget()
        with pytest.raises(StatisticalAssertionError):
            assert_binomial_plausible(1300, 2000, 0.5, budget=budget)
        with pytest.raises(StatisticalAssertionError):
            assert_binomial_plausible(700, 2000, 0.5, budget=budget)


class TestMeanWithin:
    def test_accepts_true_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.random(4000)
        budget = FalsePositiveBudget()
        assert_mean_within(samples, 0.5, budget=budget)

    def test_rejects_shifted_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.random(4000) * 0.8  # mean 0.4
        budget = FalsePositiveBudget()
        with pytest.raises(StatisticalAssertionError):
            assert_mean_within(samples, 0.5, budget=budget)

    def test_bounds_are_enforced(self):
        with pytest.raises(ConfigurationError):
            assert_mean_within([1.5], 0.5, bounds=(0, 1))


class TestProportionsClose:
    def test_same_rate_passes(self):
        rng = np.random.default_rng(1)
        a = int(rng.binomial(5000, 0.6))
        b = int(rng.binomial(5000, 0.6))
        budget = FalsePositiveBudget()
        assert_proportions_close(a, 5000, b, 5000, budget=budget)

    def test_different_rates_fail(self):
        budget = FalsePositiveBudget()
        with pytest.raises(StatisticalAssertionError):
            assert_proportions_close(
                3000, 5000, 2000, 5000, budget=budget
            )


class TestRoundsWithin:
    def test_scalar_and_vector(self):
        assert_rounds_within(90, 100, 1.0)
        assert_rounds_within([80, 95, 99], 100, 1.0)

    def test_violation_raises(self):
        with pytest.raises(StatisticalAssertionError):
            assert_rounds_within(150, 100, 1.0)

    def test_quantile_tolerates_outliers(self):
        observations = [50] * 9 + [500]
        with pytest.raises(StatisticalAssertionError):
            assert_rounds_within(observations, 100, 1.0)
        assert_rounds_within(observations, 100, 1.0, quantile=0.9)

    def test_slack_scales_bound(self):
        assert_rounds_within(190, 100, 2.0)
        with pytest.raises(ConfigurationError):
            assert_rounds_within(10, 100, 0.0)


class TestFalsePositiveBudget:
    def test_ledger_accumulates(self):
        budget = FalsePositiveBudget(total=0.01)
        assert_success_probability(10, 10, 0.5, confidence=1 - 1e-3,
                                   budget=budget)
        assert_success_probability(10, 10, 0.5, confidence=1 - 1e-3,
                                   budget=budget)
        assert budget.spent == pytest.approx(2e-3)
        assert budget.remaining == pytest.approx(8e-3)
        assert "2 assertions" in budget.report()

    def test_strict_budget_raises_on_overdraft(self):
        budget = FalsePositiveBudget(total=1e-3, strict=True)
        budget.charge(9e-4, "first")
        with pytest.raises(StatisticalAssertionError):
            budget.charge(9e-4, "second")

    def test_reset(self):
        budget = FalsePositiveBudget(total=0.01)
        budget.charge(5e-3, "x")
        budget.reset()
        assert budget.spent == 0.0

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            FalsePositiveBudget(total=0.0)
        with pytest.raises(ConfigurationError):
            FalsePositiveBudget(total=1.5)


class TestHoeffdingRadius:
    def test_formula(self):
        assert hoeffding_radius(200, 0.01) == pytest.approx(
            math.sqrt(math.log(200.0) / 400.0)
        )

    def test_width_scales_linearly(self):
        assert hoeffding_radius(50, 0.05, width=3.0) == pytest.approx(
            3.0 * hoeffding_radius(50, 0.05)
        )
