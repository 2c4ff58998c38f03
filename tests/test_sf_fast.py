"""Tests for the vectorized Source Filter engine."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model.config import PopulationConfig
from repro.noise import NoiseMatrix, uniform_observation
from repro.protocols import FastSourceFilter, SFSchedule
from repro.theory import sf_step_distribution, weak_opinion_success_probability
from repro.types import SourceCounts
from repro.verify import assert_binomial_plausible, assert_success_probability


def config(n=256, s0=0, s1=1, h=None):
    return PopulationConfig(
        n=n, sources=SourceCounts(s0, s1), h=h if h is not None else n
    )


class TestConstruction:
    def test_accepts_float_delta(self):
        assert FastSourceFilter(config(), 0.2).delta == 0.2

    def test_accepts_uniform_matrix(self):
        noise = NoiseMatrix.uniform(0.3, 2)
        assert FastSourceFilter(config(), noise).delta == pytest.approx(0.3)

    def test_rejects_nonbinary_matrix(self):
        with pytest.raises(ConfigurationError):
            FastSourceFilter(config(), NoiseMatrix.uniform(0.1, 4))

    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigurationError):
            FastSourceFilter(config(), 0.7)

    def test_explicit_schedule(self):
        sched = SFSchedule.from_config(config(), 0.2, m=500)
        engine = FastSourceFilter(config(), 0.2, schedule=sched)
        assert engine.schedule.m == 500

    def test_constant_override(self):
        small = FastSourceFilter(config(), 0.2, constant=1.0)
        large = FastSourceFilter(config(), 0.2, constant=8.0)
        assert large.schedule.m > small.schedule.m


class TestObserveOneProbability:
    """The binary observation law fast SF prices its tallies with."""

    def test_no_displayers(self):
        assert uniform_observation(0 / 100, 0.2, 2) == pytest.approx(0.2)

    def test_all_displayers(self):
        assert uniform_observation(100 / 100, 0.2, 2) == pytest.approx(0.8)

    def test_noiseless(self):
        assert uniform_observation(25 / 100, 0.0, 2) == pytest.approx(0.25)

    def test_max_noise_is_uninformative(self):
        assert uniform_observation(10 / 100, 0.5, 2) == pytest.approx(0.5)


class TestWeakOpinions:
    def test_shape_and_values(self, rng):
        weak = FastSourceFilter(config(), 0.2).draw_weak_opinions(rng)
        assert weak.shape == (256,)
        assert set(np.unique(weak)) <= {0, 1}

    @pytest.mark.statistical
    def test_mean_matches_theory_oracle(self):
        """Lemma 28's success probability, checked against Monte Carlo."""
        cfg = config(n=128)
        engine = FastSourceFilter(cfg, 0.2)
        step = sf_step_distribution(cfg, 0.2)
        samples = engine.schedule.phase_rounds * engine.schedule.h
        predicted = weak_opinion_success_probability(step, samples)
        # Weak opinions are i.i.d. Bernoulli across agents and seeds, so
        # pool all 60 x 128 draws into one exact binomial test.  At this
        # confidence the acceptance radius is ~0.02 — the same strength
        # as the old abs=0.02 window, but with the level made explicit.
        successes = sum(
            int(engine.draw_weak_opinions(np.random.default_rng(seed)).sum())
            for seed in range(60)
        )
        assert_binomial_plausible(
            successes,
            trials=60 * cfg.n,
            p=predicted,
            confidence=1 - 1e-4,
            context="SF weak-opinion success probability vs Lemma 28",
        )

    def test_weak_advantage_positive(self, rng):
        weak = FastSourceFilter(config(n=1024), 0.2).draw_weak_opinions(rng)
        assert weak.mean() > 0.5

    def test_majority_zero_sources_bias_down(self, rng):
        cfg = config(n=1024, s0=5, s1=1)
        weak = FastSourceFilter(cfg, 0.2).draw_weak_opinions(rng)
        assert weak.mean() < 0.5


class TestBoostStep:
    def test_unanimous_stays_unanimous(self, rng):
        engine = FastSourceFilter(config(n=512), 0.1)
        opinions = np.ones(512, dtype=np.int8)
        out = engine.boost_step(opinions, window=400, rng=rng)
        assert np.all(out == 1)

    def test_majority_amplifies(self, rng):
        engine = FastSourceFilter(config(n=2048), 0.1)
        opinions = np.zeros(2048, dtype=np.int8)
        opinions[:1300] = 1  # 63% ones
        out = engine.boost_step(opinions, window=500, rng=rng)
        assert out.mean() > 0.9

    def test_balanced_stays_balanced(self, rng):
        engine = FastSourceFilter(config(n=4096), 0.1)
        opinions = np.zeros(4096, dtype=np.int8)
        opinions[:2048] = 1
        out = engine.boost_step(opinions, window=100, rng=rng)
        assert 0.35 < out.mean() < 0.65


class TestRun:
    def test_converges_single_source(self):
        result = FastSourceFilter(config(n=512), 0.2).run(rng=0)
        assert result.converged
        assert np.all(result.final_opinions == 1)

    def test_converges_to_plurality_with_conflicts(self):
        result = FastSourceFilter(config(n=512, s0=2, s1=7), 0.2).run(rng=1)
        assert result.converged
        assert np.all(result.final_opinions == 1)

    def test_converges_to_zero_when_plurality_zero(self):
        result = FastSourceFilter(config(n=512, s0=7, s1=2), 0.2).run(rng=2)
        assert result.converged
        assert np.all(result.final_opinions == 0)

    def test_trace_monotone_tail(self):
        result = FastSourceFilter(config(n=512), 0.2).run(rng=3)
        # Once boosting locks in, the fraction stays at 1.0.
        assert result.boost_trace[-1] == 1.0

    def test_total_rounds_matches_schedule(self):
        engine = FastSourceFilter(config(n=256), 0.2)
        result = engine.run(rng=4)
        assert result.total_rounds == engine.schedule.total_rounds

    def test_deterministic_given_seed(self):
        engine = FastSourceFilter(config(n=128), 0.2)
        a = engine.run(rng=5)
        b = engine.run(rng=5)
        assert np.array_equal(a.final_opinions, b.final_opinions)
        assert a.boost_trace == b.boost_trace

    def test_weak_fraction_recorded(self):
        result = FastSourceFilter(config(n=512), 0.2).run(rng=6)
        assert 0.0 <= result.weak_fraction_correct <= 1.0
        assert result.weak_fraction_correct == pytest.approx(
            float(np.mean(result.weak_opinions == 1))
        )

    @pytest.mark.parametrize("h", [1, 4, 64, 256])
    def test_converges_across_sample_sizes(self, h):
        result = FastSourceFilter(config(n=256, h=h), 0.2).run(rng=7)
        assert result.converged

    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.3, 0.4])
    def test_converges_across_noise_levels(self, delta):
        result = FastSourceFilter(config(n=256), delta).run(rng=8)
        assert result.converged

    @pytest.mark.statistical
    def test_reliability_many_seeds(self):
        engine = FastSourceFilter(config(n=512), 0.25)
        outcomes = [engine.run(rng=seed).converged for seed in range(30)]
        # The paper claims w.h.p. convergence; 30/30 observed successes
        # must be consistent with a >= 90% success probability.
        assert_success_probability(
            sum(outcomes),
            trials=30,
            claimed_lower_bound=0.9,
            confidence=1 - 1e-6,
            context="fast SF convergence reliability",
        )
        assert sum(outcomes) == 30  # deterministic regression on these seeds


def test_graph_sample_loss_thins_observations_once():
    """Lost looks shrink the boosting window; they do not also bias the
    kept ones towards 0 (noise-free SF on an expander stays correct)."""
    from repro.topology import RandomRegularTopology

    engine = FastSourceFilter(
        config(n=64, s0=0, s1=8, h=16), 0.0, sample_loss=0.5,
        topology=RandomRegularTopology(degree=16),
    )
    result = engine.run(rng=0)
    assert result.converged
    assert result.boost_trace == [1.0] * len(result.boost_trace)
