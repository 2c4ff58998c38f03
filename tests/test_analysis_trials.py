"""Tests for repro.analysis.trials."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import TrialStats, repeat_trials, run_trials


@dataclasses.dataclass
class FakeResult:
    converged: bool
    consensus_round: int = None
    rounds_executed: int = 10


class TestRepeatTrials:
    def test_counts_successes(self):
        def run_one(rng):
            return FakeResult(converged=rng.random() < 0.5, consensus_round=5)

        stats = repeat_trials(run_one, trials=200, seed=0)
        assert stats.trials == 200
        assert 60 < stats.successes < 140

    def test_reproducible(self):
        def run_one(rng):
            return FakeResult(converged=rng.random() < 0.5, consensus_round=3)

        a = repeat_trials(run_one, trials=50, seed=7)
        b = repeat_trials(run_one, trials=50, seed=7)
        assert a.successes == b.successes

    def test_measure_default_prefers_consensus_round(self):
        stats = repeat_trials(
            lambda rng: FakeResult(True, consensus_round=42), trials=3, seed=0
        )
        assert stats.values == [42.0, 42.0, 42.0]

    def test_measure_falls_back_to_rounds_executed(self):
        stats = repeat_trials(
            lambda rng: FakeResult(True, consensus_round=None, rounds_executed=9),
            trials=2,
            seed=0,
        )
        assert stats.values == [9.0, 9.0]

    def test_custom_success_and_measure(self):
        stats = repeat_trials(
            lambda rng: 17,
            trials=4,
            seed=0,
            success=lambda r: True,
            measure=lambda r: float(r),
        )
        assert stats.values == [17.0] * 4

    def test_failed_trials_not_measured(self):
        stats = repeat_trials(
            lambda rng: FakeResult(False), trials=5, seed=0
        )
        assert stats.successes == 0
        assert stats.values == []

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            repeat_trials(lambda rng: FakeResult(True), trials=0)


class TestTrialStats:
    def test_success_rate(self):
        stats = TrialStats(trials=10, successes=7, values=[1.0] * 7)
        assert stats.success_rate == 0.7

    def test_median(self):
        stats = TrialStats(trials=3, successes=3, values=[1.0, 5.0, 3.0])
        assert stats.median == 3.0

    def test_median_none_without_values(self):
        assert TrialStats(trials=3, successes=0, values=[]).median is None

    def test_summary_keys(self):
        stats = TrialStats(trials=4, successes=4, values=[1, 2, 3, 4])
        summary = stats.summary()
        for key in ("trials", "successes", "success_rate", "median", "ci_low"):
            assert key in summary

    def test_summary_is_a_function_of_its_values(self):
        # Its bootstrap interval is seeded: every call gives the same dict.
        values = [float(v) for v in np.random.default_rng(0).integers(300, 700, 40)]
        stats = TrialStats(trials=40, successes=40, values=values)
        first = stats.summary()
        assert first["ci_low"] < first["ci_high"]
        for _ in range(10):
            assert stats.summary() == first
        assert TrialStats(40, 40, list(values)).summary() == first

    def test_summary_without_values(self):
        summary = TrialStats(trials=2, successes=0, values=[]).summary()
        assert "median" not in summary

    def test_success_interval(self):
        stats = TrialStats(trials=20, successes=20, values=[1.0] * 20)
        p, low, high = stats.success_interval()
        assert p == 1.0 and low > 0.8


def _picklable_run_one(rng):
    """Module-level so it can cross the ``workers`` process boundary."""
    return FakeResult(
        converged=bool(rng.random() < 0.7),
        consensus_round=int(rng.integers(1, 100)),
    )


class FakeRunner:
    """Engine stand-in with both per-trial and batched entry points."""

    def __init__(self):
        self.batch_calls = 0

    def run(self, rng=None):
        return _picklable_run_one(rng)

    def run_batch(self, replicas, rng=None):
        self.batch_calls += 1
        generator = np.random.default_rng(rng)
        return [_picklable_run_one(generator) for _ in range(replicas)]


class TestWorkers:
    def test_workers_bit_identical_to_serial(self):
        serial = repeat_trials(_picklable_run_one, trials=24, seed=13)
        for workers in (1, 2, 4):
            parallel = repeat_trials(
                _picklable_run_one, trials=24, seed=13, workers=workers
            )
            assert parallel.trials == serial.trials
            assert parallel.successes == serial.successes
            assert parallel.values == serial.values

    def test_unpicklable_run_one_raises(self):
        with pytest.raises(TypeError, match="picklable"):
            repeat_trials(lambda rng: FakeResult(True), trials=4, seed=0, workers=2)

    def test_unpicklable_measure_raises(self):
        with pytest.raises(TypeError, match="picklable"):
            repeat_trials(
                _picklable_run_one,
                trials=4,
                seed=0,
                measure=lambda r: 1.0,
                workers=2,
            )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            repeat_trials(_picklable_run_one, trials=4, seed=0, workers=0)

    def test_pool_size_clamped_to_trials(self):
        from repro.telemetry import AggregatingSink, Telemetry

        serial = repeat_trials(_picklable_run_one, trials=2, seed=13)
        sink = AggregatingSink()
        stats = repeat_trials(
            _picklable_run_one, trials=2, seed=13, workers=8,
            telemetry=Telemetry([sink]),
        )
        # Asking for more workers than trials must not fork idle
        # processes; the effective pool size is reported as a gauge.
        assert sink.gauges["trials.pool_size"] == 2
        assert stats.values == serial.values


class TestRunTrials:
    def test_prefers_run_batch_when_serial(self):
        runner = FakeRunner()
        stats = run_trials(runner, 10, seed=3)
        assert runner.batch_calls == 1
        assert stats.trials == 10
        # Batched draws are reproducible for a fixed (seed, trials).
        again = run_trials(FakeRunner(), 10, seed=3)
        assert stats.successes == again.successes and stats.values == again.values

    def test_batch_false_matches_repeat_trials(self):
        runner = FakeRunner()
        stats = run_trials(runner, 10, seed=3, batch=False)
        assert runner.batch_calls == 0
        baseline = repeat_trials(_picklable_run_one, trials=10, seed=3)
        assert stats.successes == baseline.successes
        assert stats.values == baseline.values

    def test_workers_matches_serial_per_trial(self):
        parallel = run_trials(FakeRunner(), 10, seed=3, workers=2)
        serial = run_trials(FakeRunner(), 10, seed=3, batch=False)
        assert parallel.successes == serial.successes
        assert parallel.values == serial.values

    def test_runner_without_run_batch_falls_back(self):
        class PlainRunner:
            def run(self, rng=None):
                return _picklable_run_one(rng)

        stats = run_trials(PlainRunner(), 6, seed=1)
        baseline = repeat_trials(_picklable_run_one, trials=6, seed=1)
        assert stats.successes == baseline.successes

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_trials(FakeRunner(), 0)


def _fast_engine(protocol, **kwargs):
    from repro import PopulationConfig, SourceCounts
    from repro.engines import create_engine

    config = PopulationConfig(n=128, sources=SourceCounts(0, 8), h=16)
    return create_engine(
        "fast", protocol, config, 0.2 if protocol == "sf" else 0.05, **kwargs
    )


class TestRunTrialsFallsBackWhenTheEngineCannotBatch:
    """Configurations ``run_batch`` rejects run trial by trial instead."""

    def _check(self, protocol, **kwargs):
        engine = _fast_engine(protocol, **kwargs)
        assert not engine.can_batch
        stats = run_trials(engine, 4, seed=0)
        baseline = run_trials(_fast_engine(protocol, **kwargs), 4, seed=0, batch=False)
        assert stats == baseline

    def test_fault_model(self):
        from repro.faults import ByzantineDisplayFault

        self._check(
            "sf", fault_model=ByzantineDisplayFault(fraction=0.05, mode="fixed")
        )

    def test_graph_topology(self):
        self._check("sf", topology="regular")

    def test_ssf_sample_loss(self):
        self._check("ssf", sample_loss=0.1)

    def test_batchable_engine_still_batches(self):
        engine = _fast_engine("sf", sample_loss=0.1)
        assert engine.can_batch
        assert run_trials(engine, 3, seed=0).trials == 3
