"""Tests for the replica-batched exact engine (repro.model.batched_engine).

Every behavioural check compares a spawn-mode batched SF run with R
serial :class:`PullEngine` runs on the matching spawned generators,
under the same run options: the serial engine is the oracle for early
stopping, tracing, horizons and faults alike.
"""

import hashlib

import numpy as np
import pytest

from repro.exceptions import ProtocolError, UnsupportedFeatureError
from repro.faults import ByzantineDisplayFault, CrashFault, StuckAtFault
from repro.model import BatchedPullEngine, Population, PopulationConfig, PullEngine
from repro.noise import NoiseMatrix
from repro.protocols import BatchedSourceFilter, SFSchedule, SourceFilterProtocol
from repro.telemetry import MemorySink, Telemetry
from repro.topology import GeometricTopology, RandomRegularTopology
from repro.types import SourceCounts
from repro.verify import ConformanceError, assert_engines_equivalent

SEED = 421
REPLICAS = 4


@pytest.fixture
def config():
    return PopulationConfig(n=48, sources=SourceCounts(1, 3), h=4)


@pytest.fixture
def population(config):
    return Population(config, rng=np.random.default_rng(0))


@pytest.fixture
def noise():
    return NoiseMatrix.uniform(0.2, 2)


@pytest.fixture
def batched(population, noise):
    return BatchedPullEngine(population, noise)


@pytest.fixture
def schedule(config):
    # 6-round listening phases, then 39 sub-phases of 70 rounds
    # (the first covers rounds 12..81) and a 6-round final sub-phase.
    return SFSchedule.from_config(config, 0.2, m=24)


def assert_matches_serial(
    population, noise, schedule, *, seed=SEED, replicas=REPLICAS,
    max_rounds=None, make_fault=None, **options
):
    """Run batched spawn-mode SF and R serial runs with the same options
    and assert they agree field by field; returns the batched results.

    ``make_fault`` builds a fresh fault model per run, so neither engine
    sees state the other left behind.
    """
    horizon = schedule.total_rounds if max_rounds is None else max_rounds
    fault = (lambda: None) if make_fault is None else make_fault
    batched_results = []

    def serial_run(generator):
        return PullEngine(population, noise).run(
            SourceFilterProtocol(schedule), max_rounds=horizon, rng=generator,
            fault_model=fault(), **options
        )

    def batched_run(seed, count):
        batched_results.extend(
            BatchedPullEngine(population, noise).run(
                BatchedSourceFilter(schedule), max_rounds=horizon,
                replicas=count, rng=seed, fault_model=fault(), **options
            )
        )
        return batched_results

    assert_engines_equivalent(
        serial_run, batched_run, replicas=replicas, seed=seed,
        context=f"BatchedSourceFilter spawn mode {options}",
    )
    return batched_results


class TestSpawnModeBitIdentity:
    """spawn mode must reproduce serial PullEngine runs exactly."""

    def test_full_run_bit_identical(self, population, noise, schedule):
        assert_matches_serial(population, noise, schedule)

    def test_equivalence_helper_detects_divergence(
        self, population, noise, batched, schedule
    ):
        """The conformance helper itself must catch a corrupted replica."""
        serial_engine = PullEngine(population, noise)

        def serial_run(generator):
            protocol = SourceFilterProtocol(schedule)
            return serial_engine.run(
                protocol, max_rounds=schedule.total_rounds, rng=generator
            )

        def corrupted_batched_run(seed, replicas):
            results = batched.run(
                BatchedSourceFilter(schedule),
                max_rounds=schedule.total_rounds,
                replicas=replicas,
                rng=seed,
            )
            results[-1].final_opinions[0] ^= 1
            return results

        with pytest.raises(ConformanceError):
            assert_engines_equivalent(
                serial_run,
                corrupted_batched_run,
                replicas=REPLICAS,
                seed=SEED,
            )

    def test_split_invariance(self, batched, schedule):
        """Any split of R replicas across calls yields the same runs."""
        whole = batched.run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=REPLICAS,
            rng=SEED,
        )
        seqs = np.random.SeedSequence(SEED).spawn(REPLICAS)
        first = batched.run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            seed_sequences=seqs[:1],
        )
        rest = batched.run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            seed_sequences=seqs[1:],
        )
        split = first + rest
        for a, b in zip(whole, split):
            assert np.array_equal(a.final_opinions, b.final_opinions)
            assert a.consensus_round == b.consensus_round

    def test_geometric_graph(self, config, population, noise, schedule):
        # Unequal degrees: the sampler's per-row offset path.
        sampler = GeometricTopology().bind(config.n, 5)
        assert len(set(sampler.degrees().tolist())) > 1
        assert_matches_serial(population, noise, schedule, topology=sampler)


class TestSharedMode:
    #: Digest of (final opinions, rounds, consensus round) of each
    #: shared-mode replica, pinned per (seed, R, seam) so a change to the
    #: shared stream's draw order shows up here.  Every case has a
    #: replica that stops inside a stage (round 89, 159, 369, ...).
    PINNED = {
        (7, 3, "complete"): "85b32b6a4250e7f3",
        (11, 2, "complete"): "4fed7f899b9150a1",
        (5, 3, "regular"): "f08d86008589961c",
        (3, 3, "byzantine-random"): "da50657552345f0f",
        (13, 2, "crash-exclude"): "710f71f37632bdd7",
    }

    @staticmethod
    def seam(name):
        agents = [5, 9, 17, 30, 41]
        if name == "regular":
            return {"topology": RandomRegularTopology(degree=6).bind(48, 3)}
        if name == "byzantine-random":
            return {"fault_model": ByzantineDisplayFault(agents=agents, mode="random")}
        if name == "crash-exclude":
            return {"fault_model": CrashFault(
                agents=agents, mode="exclude", crash_round=9, recovery_round=40
            )}
        return {}

    def test_reproducible(self, batched, schedule):
        kwargs = dict(
            max_rounds=schedule.total_rounds, replicas=3, rng=7, rng_mode="shared"
        )
        a = batched.run(BatchedSourceFilter(schedule), **kwargs)
        b = batched.run(BatchedSourceFilter(schedule), **kwargs)
        for x, y in zip(a, b):
            assert np.array_equal(x.final_opinions, y.final_opinions)
            assert x.consensus_round == y.consensus_round

    @pytest.mark.parametrize("seed, replicas, seam", sorted(PINNED))
    def test_outputs_pinned(self, batched, schedule, seed, replicas, seam):
        results = batched.run(
            BatchedSourceFilter(schedule), max_rounds=schedule.total_rounds,
            replicas=replicas, rng=seed, rng_mode="shared",
            stop_on_consensus=True, consensus_patience=7, **self.seam(seam)
        )
        hasher = hashlib.sha256()
        for result in results:
            hasher.update(result.final_opinions.astype(np.int64).tobytes())
            stop = (result.rounds_executed, result.consensus_round)
            hasher.update(repr(stop).encode())
        assert hasher.hexdigest()[:16] == self.PINNED[(seed, replicas, seam)]

    def test_replicas_draw_independent_observations(self, batched, schedule):
        protocol = BatchedSourceFilter(schedule)
        batched.run(
            protocol, max_rounds=2 * schedule.phase_rounds, replicas=6, rng=7,
            rng_mode="shared",
        )
        weak = protocol.weak_opinions
        assert any(not np.array_equal(weak[0], weak[i]) for i in range(1, 6))


class TestConsensusSemantics:
    def test_consensus_round_matches_serial_convention(
        self, population, noise, schedule
    ):
        results = assert_matches_serial(population, noise, schedule)
        assert all(r.rounds_executed == schedule.total_rounds for r in results)
        assert any(r.consensus_round is not None for r in results)

    def test_stop_on_consensus_per_replica(self, population, noise, schedule):
        results = assert_matches_serial(
            population, noise, schedule, stop_on_consensus=True
        )
        # Replicas stop on the round consensus forms, the last round of
        # the first or second sub-phase; one never converges.
        stops = sorted({r.rounds_executed for r in results})
        assert stops == [82, 152, schedule.total_rounds]

    def test_consensus_patience(self, population, noise, schedule):
        results = assert_matches_serial(
            population, noise, schedule, stop_on_consensus=True,
            consensus_patience=7,
        )
        # Seven more all-correct rounds: the stops fall inside a stage.
        stops = sorted({r.rounds_executed for r in results})
        assert stops == [89, 159, schedule.total_rounds]

    def test_fixed_horizon(self, population, noise, schedule):
        # Five rounds into the first sub-phase.
        horizon = 2 * schedule.phase_rounds + 5
        results = assert_matches_serial(
            population, noise, schedule, max_rounds=horizon
        )
        assert all(r.rounds_executed == horizon for r in results)

    def test_one_round_stages(self, config, population, noise):
        # m = h: Phase 0, Phase 1 and the final sub-phase last one round,
        # so their update lands on their only round.
        schedule = SFSchedule.from_config(config, 0.2, m=config.h)
        assert schedule.phase_rounds == 1
        assert_matches_serial(
            population, noise, schedule, record_trace=True,
            stop_on_consensus=True, consensus_patience=1,
        )

    def test_trace_recording(self, population, noise, schedule):
        results = assert_matches_serial(
            population, noise, schedule, record_trace=True,
            stop_on_consensus=True, consensus_patience=7,
        )
        for r in results:
            assert len(r.trace) == r.rounds_executed
            assert [record.round_index for record in r.trace] == list(
                range(r.rounds_executed)
            )


class TestFaultEquivalence:
    """Non-null faults with explicit agents: batched spawn runs must
    still reproduce the serial oracle bit for bit."""

    AGENTS = [5, 9, 17, 30, 41]

    FAULTS = {
        "byzantine-fixed": lambda a: ByzantineDisplayFault(agents=a),
        "byzantine-random": lambda a: ByzantineDisplayFault(agents=a, mode="random"),
        "crash-exclude": lambda a: CrashFault(
            agents=a, mode="exclude", crash_round=9, recovery_round=40
        ),
        "crash-symbol": lambda a: CrashFault(
            agents=a, mode="symbol", crash_round=9, recovery_round=40
        ),
        "stuck-at": lambda a: StuckAtFault(agents=a),
    }

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_matches_serial(self, population, noise, schedule, name):
        make = self.FAULTS[name]
        assert_matches_serial(
            population, noise, schedule, record_trace=True,
            stop_on_consensus=True, consensus_patience=7,
            make_fault=lambda: make(self.AGENTS),
        )

    def test_graph_with_fault_rejected(self, batched, schedule):
        with pytest.raises(UnsupportedFeatureError, match="not both"):
            batched.run(
                BatchedSourceFilter(schedule), max_rounds=4, replicas=2, rng=0,
                topology="regular", fault_model=StuckAtFault(agents=self.AGENTS),
            )


class TestTelemetry:
    """The names perfbench's traced exact-rounds run reads."""

    def run(self, batched, schedule, seed=SEED, telemetry=None):
        return batched.run(
            BatchedSourceFilter(schedule), max_rounds=schedule.total_rounds,
            replicas=REPLICAS, rng=seed, stop_on_consensus=True,
            consensus_patience=7, record_trace=True, telemetry=telemetry,
        )

    # Seed 421: one replica runs to the horizon.  Seed 400: all four stop
    # inside a stage, the last at round 158, mid-sub-phase.
    @pytest.mark.parametrize("seed", [SEED, 400])
    def test_one_round_event_per_executed_round(self, config, batched, schedule, seed):
        sink = MemorySink()
        results = self.run(batched, schedule, seed, Telemetry([sink]))
        rounds = sink.events_of("round")
        executed = max(r.rounds_executed for r in results)
        assert [e.round_index for e in rounds] == list(range(executed))
        for event in rounds:
            t = event.round_index
            records = [r.trace[t] for r in results if r.rounds_executed > t]
            assert event.tags == {
                "active_replicas": len(records),
                "mean_fraction_correct": float(
                    np.mean([record.num_correct for record in records])
                ) / config.n,
                "converged_replicas": sum(
                    record.num_correct == config.n for record in records
                ),
            }

    def test_phase_and_counters(self, batched, schedule):
        sink = MemorySink()
        results = self.run(batched, schedule, telemetry=Telemetry([sink]))
        phases = sink.events_of("phase")
        assert [e.name for e in phases] == ["batched_engine.run"]
        assert phases[0].tags["replicas"] == REPLICAS
        assert sink.counters["batched_engine.runs"] == 1
        assert sink.counters["batched_engine.replicas"] == REPLICAS
        assert sink.counters["batched_engine.converged_replicas"] == sum(
            r.converged for r in results
        )

    def test_results_identical_on_and_off(self, batched, schedule):
        off = self.run(batched, schedule)
        on = self.run(batched, schedule, telemetry=Telemetry([MemorySink()]))
        for a, b in zip(off, on):
            assert np.array_equal(a.final_opinions, b.final_opinions)
            assert a.rounds_executed == b.rounds_executed
            assert a.consensus_round == b.consensus_round
            assert a.trace == b.trace


class TestValidation:
    def test_live_generator_rejected(self, batched, schedule):
        with pytest.raises(TypeError):
            batched.run(
                BatchedSourceFilter(schedule),
                max_rounds=2,
                replicas=2,
                rng=np.random.default_rng(0),
            )

    def test_replicas_seed_sequences_mismatch(self, batched, schedule):
        seqs = np.random.SeedSequence(0).spawn(3)
        with pytest.raises(ValueError):
            batched.run(
                BatchedSourceFilter(schedule),
                max_rounds=2,
                replicas=2,
                seed_sequences=seqs,
            )

    def test_missing_replicas(self, batched, schedule):
        with pytest.raises(ValueError):
            batched.run(BatchedSourceFilter(schedule), max_rounds=2, rng=0)

    def test_bad_rng_mode(self, batched, schedule):
        with pytest.raises(ValueError):
            batched.run(
                BatchedSourceFilter(schedule),
                max_rounds=2,
                replicas=2,
                rng=0,
                rng_mode="turbo",
            )

    def test_alphabet_mismatch(self, population, schedule):
        engine = BatchedPullEngine(population, NoiseMatrix.uniform(0.1, 4))
        with pytest.raises(ProtocolError):
            engine.run(
                BatchedSourceFilter(schedule), max_rounds=2, replicas=2, rng=0
            )
