"""Tests for the weak-opinion theory oracle (Lemmas 28 and 36)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.model.config import PopulationConfig
from repro.theory import (
    TrinomialStep,
    sf_step_distribution,
    ssf_step_distribution,
    weak_opinion_success_probability,
)
from repro.types import SourceCounts
from tests import binomial_reference as ref


def config(n=100, s0=1, s1=3):
    return PopulationConfig(n=n, sources=SourceCounts(s0, s1), h=1)


class TestTrinomialStep:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrinomialStep(p_plus=0.5, p_zero=0.5, p_minus=0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrinomialStep(p_plus=-0.1, p_zero=1.0, p_minus=0.1)

    def test_derived_quantities(self):
        step = TrinomialStep(p_plus=0.3, p_zero=0.5, p_minus=0.2)
        assert step.nonzero_probability == pytest.approx(0.5)
        assert step.conditional_plus == pytest.approx(0.6)
        assert step.mean == pytest.approx(0.1)
        assert step.variance == pytest.approx(0.5 - 0.01)

    def test_degenerate_all_zero(self):
        step = TrinomialStep(p_plus=0.0, p_zero=1.0, p_minus=0.0)
        assert step.conditional_plus == 0.5  # convention


class TestSFStepDistribution:
    def test_lemma_28_formulas(self):
        cfg = config(n=100, s0=1, s1=3)
        delta = 0.2
        step = sf_step_distribution(cfg, delta)
        a1 = 0.03 * 0.8 + 0.97 * 0.2
        b1 = 0.01 * 0.2 + 0.99 * 0.8
        assert step.p_plus == pytest.approx(a1 * b1)
        assert step.p_minus == pytest.approx((1 - a1) * (1 - b1))

    def test_correct_majority_gives_positive_mean(self):
        step = sf_step_distribution(config(s0=1, s1=3), 0.2)
        assert step.mean > 0

    def test_symmetric_sources_give_zero_mean(self):
        cfg = PopulationConfig(
            n=100, sources=SourceCounts(3, 3), h=1, allow_zero_bias=True
        )
        step = sf_step_distribution(cfg, 0.2)
        assert step.mean == pytest.approx(0.0, abs=1e-12)

    def test_claim_29_nonzero_probability_lower_bound(self):
        """P(X_k != 0) >= (1-2delta)^2 (s0+s1)/(2n) + delta (Eq. 21)."""
        for delta in (0.0, 0.1, 0.3, 0.45):
            for s0, s1 in ((0, 1), (1, 3), (5, 20)):
                cfg = config(n=100, s0=s0, s1=s1)
                step = sf_step_distribution(cfg, delta)
                bound = (1 - 2 * delta) ** 2 * (s0 + s1) / (2 * 100) + delta
                assert step.nonzero_probability >= bound - 1e-12

    def test_claim_29_conditional_plus_bounds(self):
        """Eqs. (22)/(23): p >= 1/2 + regime-dependent advantage."""
        n = 400
        for delta in (0.05, 0.2, 0.4):
            for s0, s1 in ((0, 1), (2, 6)):
                cfg = config(n=n, s0=s0, s1=s1)
                step = sf_step_distribution(cfg, delta)
                s = s1 - s0
                threshold = ((s0 + s1) / (2 * n)) * (1 - 2 * delta)
                if delta >= threshold:
                    bound = 0.5 + (s / n) * (1 - 2 * delta) / (16 * max(delta, 1e-9))
                else:
                    bound = 0.5 + s / (4 * (s0 + s1))
                assert step.conditional_plus >= min(bound, 1.0) - 1e-9

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            sf_step_distribution(config(), 0.6)


class TestSSFStepDistribution:
    def test_eq_33_formulas(self):
        cfg = config(n=100, s0=1, s1=3)
        delta = 0.1
        step = ssf_step_distribution(cfg, delta)
        assert step.p_plus == pytest.approx(0.03 * 0.7 + 0.97 * 0.1)
        assert step.p_minus == pytest.approx(0.01 * 0.7 + 0.99 * 0.1)

    def test_claim_37_nonzero_lower_bound(self):
        """Eq. (34): P(X_k != 0) >= (1-4delta)^2 (s0+s1)/n + 2delta."""
        for delta in (0.0, 0.05, 0.2):
            for s0, s1 in ((0, 1), (1, 3)):
                cfg = config(n=100, s0=s0, s1=s1)
                step = ssf_step_distribution(cfg, delta)
                bound = (1 - 4 * delta) ** 2 * (s0 + s1) / 100 + 2 * delta
                # Eq. (37) is exact: 2delta + (1-4delta)(s0+s1)/n; since
                # (1-4delta)^2 <= (1-4delta), the bound follows.
                assert step.nonzero_probability >= bound - 1e-12

    def test_noiseless_ssf_step(self):
        step = ssf_step_distribution(config(n=100, s0=0, s1=1), 0.0)
        assert step.p_plus == pytest.approx(0.01)
        assert step.p_minus == 0.0

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            ssf_step_distribution(config(), 0.3)


class TestWeakOpinionSuccess:
    def test_no_signal_is_half(self):
        step = TrinomialStep(p_plus=0.1, p_zero=0.8, p_minus=0.1)
        assert weak_opinion_success_probability(step, 100) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_positive_mean_above_half(self):
        step = TrinomialStep(p_plus=0.15, p_zero=0.8, p_minus=0.05)
        assert weak_opinion_success_probability(step, 200) > 0.5

    def test_success_increases_with_m(self):
        step = TrinomialStep(p_plus=0.12, p_zero=0.8, p_minus=0.08)
        values = [
            weak_opinion_success_probability(step, m) for m in (10, 100, 1000)
        ]
        assert values[0] < values[1] < values[2]

    def test_exact_matches_monte_carlo(self, rng):
        step = TrinomialStep(p_plus=0.2, p_zero=0.6, p_minus=0.2)
        m = 51
        draws = rng.choice(
            [1, 0, -1], p=[step.p_plus, step.p_zero, step.p_minus], size=(40_000, m)
        )
        sums = draws.sum(axis=1)
        ties = sums == 0
        empirical = np.mean(sums > 0) + 0.5 * np.mean(ties)
        predicted = weak_opinion_success_probability(step, m)
        assert predicted == pytest.approx(empirical, abs=0.01)

    def test_auto_method_dispatch(self):
        # Exact below the tails switch, normal above it; same law.
        step = TrinomialStep(p_plus=0.12, p_zero=0.8, p_minus=0.08)
        small = weak_opinion_success_probability(step, 100)
        large = weak_opinion_success_probability(step, 100_000)
        assert 0.5 < small < large <= 1.0

    @pytest.mark.parametrize(
        "step",
        [
            TrinomialStep(p_plus=0.3, p_zero=0.5, p_minus=0.2),
            TrinomialStep(p_plus=0.05, p_zero=0.9, p_minus=0.05),
            TrinomialStep(p_plus=0.6, p_zero=0.0, p_minus=0.4),
            TrinomialStep(p_plus=0.0, p_zero=0.7, p_minus=0.3),
        ],
    )
    def test_matches_multinomial_reference(self, step):
        # Summed over every (M+, M-) outcome, with no conditioning.
        for m in (1, 2, 3, 10, 51, 200):
            assert weak_opinion_success_probability(step, m) == pytest.approx(
                ref.trinomial_success(step.p_plus, step.p_minus, m), abs=1e-12
            )

    @pytest.mark.parametrize("m", [1, 2, 5, 50])
    def test_no_zero_steps_is_finite_and_exact(self, m):
        # p_zero = 0 once made 0 * log(0) = NaN at r = m; the law is then
        # one majority vote, P(Bin(m, 0.6) > m/2) + P(tie)/2.
        step = TrinomialStep(p_plus=0.6, p_zero=0.0, p_minus=0.4)
        plus, minus = Fraction(3, 5), Fraction(2, 5)
        exact = sum(
            (Fraction(1, 2) if 2 * k == m else 1)
            * math.comb(m, k) * plus**k * minus ** (m - k)
            for k in range(m + 1)
            if 2 * k >= m
        )
        assert weak_opinion_success_probability(step, m) == pytest.approx(
            float(exact), rel=1e-12
        )

    def test_lemma_28_style_guarantee(self):
        """With m from Eq. (19), the weak-opinion advantage scales as
        Omega(sqrt(log n / n)) — the quantitative heart of the paper.
        (The constant in front depends on c1; our calibrated default gives
        about 0.66 * sqrt(log n / n).)"""
        from repro.protocols import sf_sample_budget

        for n in (256, 1024, 4096):
            cfg = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=1)
            m = sf_sample_budget(cfg, 0.2)
            step = sf_step_distribution(cfg, 0.2)
            success = weak_opinion_success_probability(step, m)
            assert success >= 0.5 + 0.5 * math.sqrt(math.log(n) / n)

    def test_advantage_scales_with_sqrt_of_constant(self):
        """Quadrupling c1 (hence m) roughly doubles the advantage."""
        from repro.protocols import sf_sample_budget

        cfg = PopulationConfig(n=1024, sources=SourceCounts(0, 1), h=1)
        step = sf_step_distribution(cfg, 0.2)
        adv = {}
        for c1 in (4.0, 16.0):
            m = sf_sample_budget(cfg, 0.2, constant=c1)
            adv[c1] = weak_opinion_success_probability(step, m) - 0.5
        assert adv[16.0] == pytest.approx(2 * adv[4.0], rel=0.15)
