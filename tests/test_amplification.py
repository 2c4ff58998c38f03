"""Tests for the boosting-amplification theory (Lemmas 32-35)."""

import numpy as np
import pytest

from repro.theory.amplification import (
    expected_trajectory,
    minimum_initial_advantage,
    stage_success_probability,
    stages_to_consensus,
)


class TestStageSuccessProbability:
    def test_validation(self):
        with pytest.raises(ValueError):
            stage_success_probability(1.5, 10, 0.2)
        with pytest.raises(ValueError):
            stage_success_probability(0.5, 0, 0.2)
        with pytest.raises(ValueError):
            stage_success_probability(0.5, 10, 0.7)

    def test_balanced_is_half(self):
        assert stage_success_probability(0.5, 101, 0.2) == pytest.approx(0.5)

    def test_majority_amplified(self):
        assert stage_success_probability(0.6, 278, 0.2) > 0.9

    def test_lemma_33_factor(self):
        """With the paper's w = 100/(1-2d)^2, the advantage multiplies by
        well over 1.2 per stage near 1/2."""
        for x in (0.52, 0.55, 0.6):
            out = stage_success_probability(x, 278, 0.2)
            assert (out - 0.5) >= 1.2 * (x - 0.5)

    def test_matches_simulation(self, rng):
        from repro.model.config import PopulationConfig
        from repro.protocols import FastSourceFilter
        from repro.types import SourceCounts

        n = 50_000
        config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=1)
        engine = FastSourceFilter(config, 0.2)
        opinions = np.zeros(n, dtype=np.int8)
        opinions[: int(0.56 * n)] = 1
        out = engine.boost_step(opinions, window=278, rng=rng)
        predicted = stage_success_probability(0.56, 278, 0.2)
        assert out.mean() == pytest.approx(predicted, abs=0.01)


class TestTrajectories:
    def test_escapes_upwards(self):
        trajectory = expected_trajectory(0.53, 278, 0.2)
        assert trajectory[-1] == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_escape_downwards(self):
        trajectory = expected_trajectory(0.47, 278, 0.2)
        assert trajectory[-1] == pytest.approx(0.0, abs=1e-6)

    def test_stage_count_small(self):
        """The drift needs far fewer than Algorithm 1's 10 log n stages."""
        import math

        stages = stages_to_consensus(0.52, 278, 0.2, threshold=0.999)
        assert 0 < stages < 10 * math.log(256)

    def test_never_flag(self):
        assert stages_to_consensus(0.5, 278, 0.2) == -1


class TestMinimumInitialAdvantage:
    def test_large_window_tiny_basin(self):
        eps = minimum_initial_advantage(278, 0.2)
        assert eps < 1e-3

    def test_moderate_window_small_basin(self):
        eps = minimum_initial_advantage(25, 0.2, precision=1e-3)
        assert eps < 0.1

    def test_even_window_tie_ceiling(self):
        """Small even windows tie with constant probability, capping the
        mean-field fraction below 1: in expectation they never reach
        near-unanimity unless they start there (the finite-population
        protocol is rescued by fluctuations plus the long final
        sub-phase)."""
        eps = minimum_initial_advantage(6, 0.2, precision=1e-3)
        assert eps > 0.45

    def test_weak_opinion_advantage_is_inside_the_basin(self):
        """End-to-end consistency: the Lemma 28 advantage at the Eq. (19)
        budget clears the boosting basin boundary."""
        import math

        from repro.model.config import PopulationConfig
        from repro.protocols import SFSchedule, sf_sample_budget
        from repro.theory import sf_step_distribution, weak_opinion_success_probability
        from repro.types import SourceCounts

        config = PopulationConfig(n=1024, sources=SourceCounts(0, 1), h=1)
        delta = 0.2
        m = sf_sample_budget(config, delta)
        step = sf_step_distribution(config, delta)
        advantage = weak_opinion_success_probability(step, m) - 0.5
        schedule = SFSchedule.from_config(config, delta)
        basin = minimum_initial_advantage(
            schedule.boost_window, delta, precision=1e-4
        )
        assert advantage > basin
