"""Tests for the Section 5.1 probability lemmas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory import (
    binomial_one_lower_bound,
    chernoff_multiplicative_upper,
    exact_majority_advantage,
    hoeffding_deviation_upper,
    lemma21_g,
    lemma22_advantage_lower_bound,
)
from repro.theory.tails import majority_success_probability


class TestClaim19:
    def test_bound_value(self):
        assert binomial_one_lower_bound(10, 0.05) == pytest.approx(0.5 / math.e)

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            binomial_one_lower_bound(10, 0.2)  # np = 2 > 1

    @given(
        n=st.integers(min_value=1, max_value=500),
        p_scaled=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_claim_19_is_a_true_lower_bound(self, n, p_scaled):
        p = p_scaled / n  # guarantees np <= 1
        bound = binomial_one_lower_bound(n, p)
        exact = n * p * (1 - p) ** (n - 1)
        assert exact >= bound - 1e-12


class TestLemma21G:
    def test_small_theta_branch(self):
        m = 100
        theta = 0.01  # < 1/sqrt(100) = 0.1
        assert lemma21_g(theta, m) == pytest.approx(
            theta * (1 - theta**2) ** ((m - 1) / 2)
        )

    def test_large_theta_branch(self):
        m = 100
        theta = 0.5
        expected = (1 / math.sqrt(m)) * (1 - 1 / m) ** ((m - 1) / 2)
        assert lemma21_g(theta, m) == pytest.approx(expected)

    def test_continuity_at_threshold(self):
        m = 64
        below = lemma21_g(1 / math.sqrt(m) - 1e-9, m)
        above = lemma21_g(1 / math.sqrt(m), m)
        assert below == pytest.approx(above, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma21_g(0.5, 0)
        with pytest.raises(ValueError):
            lemma21_g(1.5, 10)


class TestLemma22:
    def test_bound_value_saturates_at_one(self):
        value = lemma22_advantage_lower_bound(0.5, 10_000)
        assert value == pytest.approx(math.sqrt(2 / (math.pi * math.e)))

    @given(
        theta=st.floats(min_value=0.0, max_value=0.5),
        m=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=80, deadline=None)
    def test_lemma_22_is_a_true_lower_bound(self, theta, m):
        """P(X>0) - P(X<0) >= sqrt(2/pi e) min(sqrt(m) theta, 1), verified
        against the exact binomial computation."""
        bound = lemma22_advantage_lower_bound(theta, m)
        exact = exact_majority_advantage(theta, m)
        assert exact >= bound - 1e-9


class TestExactMajority:
    def test_fair_coin_zero_advantage(self):
        assert exact_majority_advantage(0.0, 101) == pytest.approx(0.0, abs=1e-12)

    def test_certain_signal(self):
        assert exact_majority_advantage(0.5, 11) == pytest.approx(1.0)

    def test_single_trial(self):
        assert exact_majority_advantage(0.3, 1) == pytest.approx(0.6)

    def test_success_half_tie_convention(self):
        # m = 2, theta = 0: outcomes {2:1/4, 1:1/2, 0:1/4}; X>0 w.p. 1/4,
        # tie w.p. 1/2 -> success = 1/4 + 1/4 = 1/2.
        assert majority_success_probability(0.5, 2) == pytest.approx(0.5)

    def test_advantage_increases_with_m(self):
        values = [exact_majority_advantage(0.1, m) for m in (1, 9, 81, 729)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monte_carlo_agreement(self, rng):
        theta, m = 0.15, 25
        draws = rng.choice([1, -1], p=[0.5 + theta, 0.5 - theta], size=(20_000, m))
        sums = draws.sum(axis=1)
        empirical = np.mean(sums > 0) - np.mean(sums < 0)
        assert exact_majority_advantage(theta, m) == pytest.approx(
            empirical, abs=0.02
        )


class TestConcentrationBounds:
    def test_chernoff_decreases_in_mu(self):
        assert chernoff_multiplicative_upper(100, 0.5) < chernoff_multiplicative_upper(
            10, 0.5
        )

    def test_chernoff_validation(self):
        with pytest.raises(ValueError):
            chernoff_multiplicative_upper(10, 1.5)

    def test_chernoff_is_valid_on_binomial(self, rng):
        # P(X <= (1-eps) mu) for X ~ Bin(200, 0.5), eps = 0.2.
        n, p, eps = 200, 0.5, 0.2
        mu = n * p
        draws = rng.binomial(n, p, size=100_000)
        empirical = np.mean(draws <= (1 - eps) * mu)
        assert empirical <= chernoff_multiplicative_upper(mu, eps) + 0.01

    def test_hoeffding_value(self):
        assert hoeffding_deviation_upper(100, 10) == pytest.approx(
            2 * math.exp(-2.0)
        )

    def test_hoeffding_validation(self):
        with pytest.raises(ValueError):
            hoeffding_deviation_upper(0, 1)
