"""Tests for repro.analysis.stats."""

import math

import numpy as np
import pytest

from repro.analysis import (
    bootstrap_ci,
    fit_loglog_slope,
    median_and_iqr,
    wilson_interval,
)


class TestMedianAndIqr:
    def test_values(self):
        med, q25, q75 = median_and_iqr([1, 2, 3, 4, 5])
        assert med == 3.0
        assert q25 == 2.0
        assert q75 == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_and_iqr([])

    def test_single_value(self):
        med, q25, q75 = median_and_iqr([7.0])
        assert med == q25 == q75 == 7.0


class TestBootstrapCI:
    def test_interval_contains_point(self):
        point, low, high = bootstrap_ci(list(range(50)), rng=0)
        assert low <= point <= high

    def test_degenerate_sample(self):
        point, low, high = bootstrap_ci([3.0], rng=0)
        assert point == low == high == 3.0

    def test_tightens_with_more_data(self, rng):
        small = rng.normal(0, 1, size=10)
        large = rng.normal(0, 1, size=1000)
        _, lo_s, hi_s = bootstrap_ci(small, statistic=np.mean, rng=1)
        _, lo_l, hi_l = bootstrap_ci(large, statistic=np.mean, rng=1)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1, 2], confidence=1.5)

    def test_coverage_of_known_mean(self):
        """~95% of bootstrap intervals should contain the true mean."""
        rng = np.random.default_rng(0)
        hits = 0
        trials = 60
        for i in range(trials):
            sample = rng.normal(10.0, 2.0, size=80)
            _, low, high = bootstrap_ci(sample, statistic=np.mean, rng=i)
            hits += low <= 10.0 <= high
        assert hits / trials > 0.8

    @pytest.mark.parametrize("statistic", [np.median, np.mean])
    @pytest.mark.parametrize("k", [2, 8, 9, 100, 1000])
    def test_one_call_over_resamples_equals_one_call_per_row(self, statistic, k):
        values = np.round(np.random.default_rng(k).normal(500.0, 80.0, size=k))
        _, low, high = bootstrap_ci(values, statistic=statistic, rng=3)
        indices = np.random.default_rng(3).integers(0, k, size=(2000, k))
        per_row = np.apply_along_axis(statistic, 1, values[indices])
        alpha = (1.0 - 0.95) / 2.0
        expected = np.percentile(per_row, [100 * alpha, 100 * (1 - alpha)])
        assert [low, high] == list(expected)


class TestWilsonInterval:
    def test_point_estimate(self):
        p, low, high = wilson_interval(8, 10)
        assert p == pytest.approx(0.8)
        assert low < 0.8 < high

    def test_extreme_success(self):
        p, low, high = wilson_interval(10, 10)
        assert p == 1.0
        assert high == 1.0
        assert low < 1.0  # Wilson never collapses at the boundary

    def test_extreme_failure(self):
        p, low, high = wilson_interval(0, 10)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert high > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_z_is_the_exact_normal_quantile(self):
        # For 0 successes in 1 trial the upper bound is z^2 / (1 + z^2),
        # so it recovers z; at 95% z is 1.959963984540054.
        _, _, high = wilson_interval(0, 1, 0.95)
        assert math.sqrt(high / (1.0 - high)) == pytest.approx(
            1.959963984540054, abs=1e-12
        )

    def test_tightens_with_trials(self):
        _, lo1, hi1 = wilson_interval(8, 10)
        _, lo2, hi2 = wilson_interval(800, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        xs = [2, 4, 8, 16, 32]
        ys = [x**1.5 for x in xs]
        slope, _, r2 = fit_loglog_slope(xs, ys)
        assert slope == pytest.approx(1.5)
        assert r2 == pytest.approx(1.0)

    def test_constant_is_slope_zero(self):
        slope, _, _ = fit_loglog_slope([1, 10, 100], [5, 5, 5])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_linear(self):
        slope, intercept, _ = fit_loglog_slope([1, 2, 4], [3, 6, 12])
        assert slope == pytest.approx(1.0)
        assert np.exp(intercept) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1], [2])
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [1, 2, 3])
