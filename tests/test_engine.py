"""Tests for the exact PULL engine with a minimal instrumented protocol."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.model import Population, PopulationConfig, PullEngine, PullProtocol
from repro.noise import NoiseMatrix
from repro.telemetry import Telemetry
from repro.types import SourceCounts


class RecordingProtocol(PullProtocol):
    """Displays a fixed vector and records everything it receives."""

    alphabet_size = 2

    def __init__(self, display_value: int = 1, adopt_round: int = None):
        self.display_value = display_value
        self.adopt_round = adopt_round
        self.received = []
        self._opinions = None
        self._population = None

    def reset(self, population, rng=None):
        self._population = population
        self._opinions = np.zeros(population.n, dtype=np.int8)

    def displays(self, round_index):
        return np.full(self._population.n, self.display_value, dtype=np.int64)

    def receive(self, round_index, observations):
        self.received.append(observations.copy())
        if self.adopt_round is not None and round_index >= self.adopt_round:
            self._opinions = np.full(
                self._population.n, self._population.correct_opinion, dtype=np.int8
            )

    def opinions(self):
        return self._opinions


class TransientConsensusProtocol(RecordingProtocol):
    """Holds consensus during rounds [2, 4), loses it, regains it from 6."""

    def receive(self, round_index, observations):
        n = self._population.n
        correct = self._population.correct_opinion
        if 2 <= round_index < 4 or round_index >= 6:
            self._opinions = np.full(n, correct, dtype=np.int8)
        else:
            self._opinions = np.full(n, 1 - correct, dtype=np.int8)


class FixedHorizonProtocol(RecordingProtocol):
    def __init__(self, horizon: int):
        super().__init__()
        self.horizon = horizon

    def finished(self, round_index):
        return round_index >= self.horizon


@pytest.fixture
def engine(rng):
    cfg = PopulationConfig(n=30, sources=SourceCounts(0, 1), h=4)
    pop = Population(cfg, rng=rng)
    return PullEngine(pop, NoiseMatrix.uniform(0.2, 2))


class TestEngineMechanics:
    def test_observation_shape(self, engine, rng):
        protocol = RecordingProtocol()
        engine.run(protocol, max_rounds=3, rng=rng)
        assert len(protocol.received) == 3
        assert protocol.received[0].shape == (30, 4)

    def test_noiseless_observations_match_display(self, rng):
        cfg = PopulationConfig(n=20, sources=SourceCounts(0, 1), h=2)
        pop = Population(cfg, rng=rng)
        engine = PullEngine(pop, NoiseMatrix.identity(2))
        protocol = RecordingProtocol(display_value=1)
        engine.run(protocol, max_rounds=1, rng=rng)
        assert np.all(protocol.received[0] == 1)

    def test_alphabet_mismatch_raises(self, engine, rng):
        protocol = RecordingProtocol()
        protocol.alphabet_size = 4
        with pytest.raises(ProtocolError):
            engine.run(protocol, max_rounds=1, rng=rng)

    def test_rounds_executed(self, engine, rng):
        result = engine.run(RecordingProtocol(), max_rounds=7, rng=rng)
        assert result.rounds_executed == 7

    def test_protocol_finished_stops_early(self, engine, rng):
        result = engine.run(FixedHorizonProtocol(horizon=4), max_rounds=100, rng=rng)
        assert result.rounds_executed == 4

    def test_deterministic_given_seed(self):
        cfg = PopulationConfig(n=25, sources=SourceCounts(0, 1), h=3)
        pop = Population(cfg, rng=0)
        outs = []
        for _ in range(2):
            protocol = RecordingProtocol()
            PullEngine(pop, NoiseMatrix.uniform(0.2, 2)).run(
                protocol, max_rounds=2, rng=np.random.default_rng(9)
            )
            outs.append(np.concatenate([o.ravel() for o in protocol.received]))
        assert np.array_equal(outs[0], outs[1])


class TestConsensusTracking:
    def test_consensus_detected(self, engine, rng):
        protocol = RecordingProtocol(adopt_round=3)
        result = engine.run(protocol, max_rounds=10, rng=rng)
        assert result.converged
        assert result.consensus_round == 3

    def test_no_consensus(self, engine, rng):
        result = engine.run(RecordingProtocol(), max_rounds=5, rng=rng)
        assert not result.converged
        assert result.consensus_round is None

    def test_stop_on_consensus(self, engine, rng):
        protocol = RecordingProtocol(adopt_round=2)
        result = engine.run(
            protocol, max_rounds=100, rng=rng, stop_on_consensus=True
        )
        assert result.rounds_executed == 3  # rounds 0, 1, 2

    def test_consensus_patience(self, engine, rng):
        protocol = RecordingProtocol(adopt_round=2)
        result = engine.run(
            protocol,
            max_rounds=100,
            rng=rng,
            stop_on_consensus=True,
            consensus_patience=5,
        )
        assert result.rounds_executed == 8

    def test_transient_consensus_resets_consensus_round(self, engine, rng):
        """consensus_round marks the *final* streak: consensus held in
        rounds 2-3, was lost, and held again from round 6 to the end."""
        result = engine.run(TransientConsensusProtocol(), max_rounds=8, rng=rng)
        assert result.converged
        assert result.consensus_round == 6

    def test_run_ending_out_of_consensus_reports_none(self, engine, rng):
        """A transient streak alone never sets consensus_round: the run
        stops at round 5, after consensus was lost again."""
        result = engine.run(TransientConsensusProtocol(), max_rounds=6, rng=rng)
        assert not result.converged
        assert result.consensus_round is None

    def test_trace_recording(self, engine, rng):
        protocol = RecordingProtocol(adopt_round=3)
        result = engine.run(protocol, max_rounds=6, rng=rng, record_trace=True)
        assert len(result.trace) == 6
        assert result.trace[0].fraction_correct < 1.0
        assert result.trace[5].fraction_correct == 1.0

    def test_observer_called(self, engine, rng):
        calls = []

        class Observer:
            def observe(self, round_index, opinions):
                calls.append((round_index, opinions.sum()))

        engine.run(
            RecordingProtocol(), max_rounds=4, rng=rng,
            telemetry=Telemetry([Observer()]),
        )
        assert [c[0] for c in calls] == [0, 1, 2, 3]

    def test_final_opinions_copied(self, engine, rng):
        protocol = RecordingProtocol(adopt_round=0)
        result = engine.run(protocol, max_rounds=2, rng=rng)
        result.final_opinions[0] = 99
        assert protocol.opinions()[0] != 99
