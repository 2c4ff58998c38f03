"""Tests for the asynchronous engine and async SSF."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.model import (
    AsyncPullEngine,
    AsyncPullProtocol,
    Population,
    PopulationConfig,
)
from repro.noise import NoiseMatrix
from repro.protocols import AsyncSelfStabilizingSourceFilter, SSFSchedule
from repro.types import SourceCounts


class CountingProtocol(AsyncPullProtocol):
    """Displays 1 everywhere; records per-agent activation counts."""

    alphabet_size = 2

    def __init__(self):
        self.activations = None
        self._opinions = None

    def reset(self, population, rng=None):
        self.activations = np.zeros(population.n, dtype=np.int64)
        self._opinions = np.zeros(population.n, dtype=np.int8)

    def display_of(self, agent):
        return 1

    def activate(self, agent, observations):
        self.activations[agent] += 1

    def opinions(self):
        return self._opinions


def setup(n=32, s1=2, h=8, delta=0.05, seed=0):
    cfg = PopulationConfig(n=n, sources=SourceCounts(0, s1), h=h)
    pop = Population(cfg, rng=np.random.default_rng(seed))
    noise = NoiseMatrix.uniform(delta, 4)
    return cfg, pop, noise


class TestAsyncEngine:
    def test_activation_counts_sum(self, rng):
        cfg, pop, _ = setup()
        protocol = CountingProtocol()
        engine = AsyncPullEngine(pop, NoiseMatrix.uniform(0.1, 2))
        result = engine.run(protocol, max_activations=500, rng=rng,
                            stop_on_consensus=False)
        assert protocol.activations.sum() == 500
        assert result.activations_executed == 500

    def test_activations_roughly_uniform(self, rng):
        cfg, pop, _ = setup(n=16)
        protocol = CountingProtocol()
        engine = AsyncPullEngine(pop, NoiseMatrix.uniform(0.1, 2))
        engine.run(protocol, max_activations=16_000, rng=rng,
                   stop_on_consensus=False)
        # ~1000 each; 5-sigma band.
        assert protocol.activations.min() > 800
        assert protocol.activations.max() < 1200

    def test_observation_count_is_h(self, rng):
        cfg, pop, _ = setup(h=5)

        class ShapeCheck(CountingProtocol):
            def activate(self, agent, observations):
                assert observations.shape == (5,)
                super().activate(agent, observations)

        engine = AsyncPullEngine(pop, NoiseMatrix.uniform(0.1, 2))
        engine.run(ShapeCheck(), max_activations=50, rng=rng,
                   stop_on_consensus=False)

    def test_alphabet_mismatch(self, rng):
        cfg, pop, noise4 = setup()
        with pytest.raises(ProtocolError):
            AsyncPullEngine(pop, noise4).run(
                CountingProtocol(), max_activations=10, rng=rng
            )


class TestAsyncSSF:
    def test_converges(self):
        cfg, pop, noise = setup(n=48, s1=2, h=24, delta=0.05, seed=1)
        schedule = SSFSchedule.from_config(cfg, 0.05)
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        engine = AsyncPullEngine(pop, noise)
        budget = cfg.n * 10 * schedule.epoch_rounds
        result = engine.run(
            protocol,
            max_activations=budget,
            rng=np.random.default_rng(2),
            consensus_patience=cfg.n * schedule.epoch_rounds,
        )
        assert result.converged
        assert result.consensus_parallel_rounds is not None

    def test_parallel_round_equivalents_match_sync_scale(self):
        """Async consensus lands within a small factor of the sync
        engine's epoch count — asynchrony costs only constants."""
        from repro.protocols import FastSelfStabilizingSourceFilter

        cfg, pop, noise = setup(n=64, s1=2, h=32, delta=0.05, seed=3)
        schedule = SSFSchedule.from_config(cfg, 0.05)
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        engine = AsyncPullEngine(pop, noise)
        result = engine.run(
            protocol,
            max_activations=cfg.n * 12 * schedule.epoch_rounds,
            rng=np.random.default_rng(4),
            consensus_patience=cfg.n * schedule.epoch_rounds,
        )
        sync = FastSelfStabilizingSourceFilter(cfg, 0.05, schedule=schedule)
        sync_result = sync.run(rng=4)
        assert result.converged and sync_result.converged
        ratio = result.consensus_parallel_rounds / max(
            sync_result.consensus_round, 1
        )
        assert 0.2 < ratio < 5.0

    def test_adversarial_install(self):
        cfg, pop, noise = setup(n=32, s1=1, h=16, delta=0.05, seed=5)
        schedule = SSFSchedule.from_config(cfg, 0.05)
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        protocol.reset(pop, np.random.default_rng(6))
        wrong = 0
        n = cfg.n
        memory = np.zeros((n, 4), dtype=np.int64)
        memory[:, 2] = schedule.m - 1  # fake (1, 0) evidence
        protocol.install_state(
            np.full(n, wrong, dtype=np.int8),
            np.full(n, wrong, dtype=np.int8),
            memory,
        )
        engine = AsyncPullEngine(pop, noise)
        result = engine.run(
            protocol,
            max_activations=n * 12 * schedule.epoch_rounds,
            rng=np.random.default_rng(7),
            consensus_patience=n * schedule.epoch_rounds,
        )
        assert result.converged

    def test_install_validation(self):
        cfg, pop, _ = setup()
        schedule = SSFSchedule.from_config(cfg, 0.05, m=10)
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        with pytest.raises(ProtocolError):
            protocol.install_state(
                np.zeros(cfg.n), np.zeros(cfg.n), np.zeros((cfg.n, 4))
            )
        protocol.reset(pop)
        bad_memory = np.full((cfg.n, 4), 100, dtype=np.int64)
        with pytest.raises(ProtocolError):
            protocol.install_state(
                np.zeros(cfg.n), np.zeros(cfg.n), bad_memory
            )

    def test_rejects_schedule_built_for_another_h(self):
        cfg, pop, _ = setup(h=8)
        schedule = SSFSchedule.from_config(
            PopulationConfig(n=cfg.n, sources=SourceCounts(0, 2), h=16), 0.05
        )
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        with pytest.raises(ProtocolError, match="h=16.*h=8"):
            protocol.reset(pop)

    def test_is_an_async_protocol_sharing_the_sync_state(self):
        from repro.protocols import SelfStabilizingSourceFilterProtocol

        cfg, pop, _ = setup()
        protocol = AsyncSelfStabilizingSourceFilter(
            SSFSchedule.from_config(cfg, 0.05)
        )
        assert isinstance(protocol, AsyncPullProtocol)
        assert isinstance(protocol, SelfStabilizingSourceFilterProtocol)
        protocol.reset(pop, np.random.default_rng(0))
        sync = SelfStabilizingSourceFilterProtocol(protocol.schedule)
        sync.reset(pop, np.random.default_rng(0))
        assert np.array_equal(protocol.opinions(), sync.opinions())
        assert np.array_equal(protocol.weak_opinions, sync.weak_opinions)
