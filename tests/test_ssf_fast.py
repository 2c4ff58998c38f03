"""Tests for the gap-batched vectorized SSF engine."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model.adversary import (
    DesynchronizingAdversary,
    RandomStateAdversary,
    TargetedAdversary,
)
from repro.model.config import PopulationConfig
from repro.noise import NoiseMatrix
from repro.protocols import FastSelfStabilizingSourceFilter, SSFSchedule
from repro.types import SourceCounts
from repro.verify import assert_success_probability


def config(n=256, s0=0, s1=1, h=None):
    return PopulationConfig(
        n=n, sources=SourceCounts(s0, s1), h=h if h is not None else n
    )


class TestConstruction:
    def test_accepts_float(self):
        assert FastSelfStabilizingSourceFilter(config(), 0.1).delta == 0.1

    def test_accepts_uniform_4_matrix(self):
        noise = NoiseMatrix.uniform(0.05, 4)
        engine = FastSelfStabilizingSourceFilter(config(), noise)
        assert engine.delta == pytest.approx(0.05)

    def test_rejects_binary_matrix(self):
        with pytest.raises(ConfigurationError):
            FastSelfStabilizingSourceFilter(config(), NoiseMatrix.uniform(0.1, 2))

    def test_rejects_large_delta(self):
        with pytest.raises(ConfigurationError):
            FastSelfStabilizingSourceFilter(config(), 0.3)

    def test_memory_capacity(self):
        sched = SSFSchedule.from_config(config(), 0.1, m=999)
        engine = FastSelfStabilizingSourceFilter(config(), 0.1, schedule=sched)
        assert engine.memory_capacity == 999


class TestObservationDistribution:
    def test_sums_to_one(self):
        engine = FastSelfStabilizingSourceFilter(config(n=64, s0=1, s1=3), 0.1)
        engine.reset(np.random.default_rng(0))
        q = engine._observation_distribution()
        assert q.sum() == pytest.approx(1.0)

    def test_source_symbols_visible(self):
        engine = FastSelfStabilizingSourceFilter(config(n=64, s0=1, s1=3), 0.1)
        engine.reset(np.random.default_rng(0))
        q = engine._observation_distribution()
        # Symbol 3 = (1,1) from the 3 sources, plus noise floor delta.
        assert q[3] == pytest.approx(0.1 + (3 / 64) * 0.6)
        assert q[2] == pytest.approx(0.1 + (1 / 64) * 0.6)


class TestInstallState:
    def test_validation(self):
        engine = FastSelfStabilizingSourceFilter(config(n=16), 0.1)
        with pytest.raises(ConfigurationError):
            engine.install_state(
                np.ones(16), np.ones(16), np.full((16, 4), 10**9)
            )

    def test_fill_tracks_memory(self):
        engine = FastSelfStabilizingSourceFilter(config(n=16), 0.1)
        memory = np.zeros((16, 4), dtype=np.int64)
        memory[:, 1] = 7
        engine.install_state(np.ones(16), np.zeros(16), memory)
        assert np.all(engine.fill == 7)


class TestRun:
    def test_clean_start_converges(self):
        result = FastSelfStabilizingSourceFilter(config(n=256), 0.1).run(rng=0)
        assert result.converged
        assert result.consensus_round is not None

    def test_conflicting_sources_plurality(self):
        result = FastSelfStabilizingSourceFilter(
            config(n=256, s0=2, s1=6), 0.1
        ).run(rng=1)
        assert result.converged
        assert np.all(result.final_opinions == 1)

    def test_plurality_zero(self):
        result = FastSelfStabilizingSourceFilter(
            config(n=256, s0=6, s1=2), 0.1
        ).run(rng=2)
        assert result.converged
        assert np.all(result.final_opinions == 0)

    @pytest.mark.parametrize(
        "adversary_cls",
        [RandomStateAdversary, TargetedAdversary, DesynchronizingAdversary],
    )
    def test_recovers_from_adversarial_state(self, adversary_cls):
        """The self-stabilization claim of Theorem 5."""
        engine = FastSelfStabilizingSourceFilter(config(n=256), 0.1)
        result = engine.run(rng=3, adversary=adversary_cls())
        assert result.converged

    def test_targeted_adversary_delays_but_does_not_prevent(self):
        clean = FastSelfStabilizingSourceFilter(config(n=256), 0.1).run(rng=4)
        attacked = FastSelfStabilizingSourceFilter(config(n=256), 0.1).run(
            rng=4, adversary=TargetedAdversary()
        )
        assert clean.converged and attacked.converged

    def test_consensus_within_theorem_horizon_scaled(self):
        """Convergence lands within a small multiple of 3 epochs."""
        engine = FastSelfStabilizingSourceFilter(config(n=512), 0.1)
        result = engine.run(rng=5)
        horizon = engine.schedule.convergence_horizon
        assert result.consensus_round is not None
        assert result.consensus_round <= 2 * horizon

    def test_trace_records_updates(self):
        result = FastSelfStabilizingSourceFilter(config(n=128), 0.1).run(rng=6)
        assert len(result.trace) >= 2
        rounds = [t for t, _ in result.trace]
        assert rounds == sorted(rounds)
        assert result.trace[-1][1] == 1.0

    def test_round_budget_respected(self):
        engine = FastSelfStabilizingSourceFilter(config(n=128), 0.1)
        result = engine.run(max_rounds=engine.schedule.epoch_rounds, rng=7,
                            stop_on_consensus=False)
        assert result.rounds_executed <= engine.schedule.epoch_rounds

    def test_deterministic_given_seed(self):
        a = FastSelfStabilizingSourceFilter(config(n=128), 0.1).run(rng=8)
        b = FastSelfStabilizingSourceFilter(config(n=128), 0.1).run(rng=8)
        assert a.rounds_executed == b.rounds_executed
        assert np.array_equal(a.final_opinions, b.final_opinions)

    @pytest.mark.parametrize("h", [16, 64, 256])
    def test_converges_across_sample_sizes(self, h):
        result = FastSelfStabilizingSourceFilter(config(n=256, h=h), 0.1).run(rng=9)
        assert result.converged

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.15, 0.2])
    def test_converges_across_noise_levels(self, delta):
        result = FastSelfStabilizingSourceFilter(config(n=256), delta).run(rng=10)
        assert result.converged

    @pytest.mark.statistical
    def test_reliability_many_seeds(self):
        cfg = config(n=256)
        outcomes = [
            FastSelfStabilizingSourceFilter(cfg, 0.15).run(rng=seed).converged
            for seed in range(20)
        ]
        # Observed successes must be consistent with a >= 90% success
        # probability at an explicit confidence level.
        assert_success_probability(
            sum(outcomes),
            trials=20,
            claimed_lower_bound=0.9,
            confidence=1 - 1e-6,
            context="fast SSF convergence reliability",
        )
        assert sum(outcomes) == 20  # deterministic regression on these seeds
