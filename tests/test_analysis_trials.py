"""Tests for repro.analysis.trials."""

import dataclasses
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import PopulationConfig, SourceCounts
from repro.analysis import ResilienceConfig, TrialStats, repeat_trials, run_trials
from repro.engines import create_engine
from repro.rng import spawn_generators, spawn_seeds


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
    """Engine stand-in with both per-trial and batched entry points; its
    ``run_batch`` is spawn-mode, as :func:`run_trials` requires."""

    def __init__(self):
        self.batch_calls = 0

    def run(self, rng=None):
        return _picklable_run_one(rng)

    def run_batch(self, replicas, rng=None):
        self.batch_calls += 1
        return [self.run(g) for g in spawn_generators(rng, replicas)]


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
        assert stats == repeat_trials(_picklable_run_one, 10, seed=3)

    def test_workers_matches_serial_per_trial(self):
        runner = FakeRunner()
        parallel = run_trials(runner, 10, seed=3, workers=2)
        assert runner.batch_calls == 0
        serial = repeat_trials(lambda g: runner.run(rng=g), 10, seed=3)
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

    @pytest.mark.parametrize("engine", ["fast", "count"])
    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_checked_before_batching(self, engine, workers):
        config = PopulationConfig(n=128, sources=SourceCounts(0, 8), h=16)
        handle = create_engine(engine, "sf", config, 0.2)
        with pytest.raises(ValueError, match="workers must be a positive int"):
            run_trials(handle, 3, seed=1, workers=workers)


def _fast_engine(protocol, **kwargs):
    config = PopulationConfig(n=128, sources=SourceCounts(0, 8), h=16)
    return create_engine(
        "fast", protocol, config, 0.2 if protocol == "sf" else 0.05, **kwargs
    )


class TestRunTrialsFallsBackWhenTheEngineCannotBatch:
    """A fast engine has no ``run_batch``: faults, graphs and lossy SSF
    run trial by trial, like every other configuration."""

    def _check(self, protocol, **kwargs):
        engine = _fast_engine(protocol, **kwargs)
        stats = run_trials(engine, 4, seed=0)
        fresh = _fast_engine(protocol, **kwargs)
        baseline = repeat_trials(lambda g: fresh.run(rng=g), 4, seed=0)
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


def weak_fraction_correct(result) -> float:
    """A per-trial SF measure (SF's default is its fixed horizon);
    module-level so it pickles for ``workers=2``."""
    return result.weak_fraction_correct


class TestRunTrialsIgnoresScheduling:
    """``run_trials`` gives one set of statistics whatever runs the
    trials: one process, a pool, or a resilience policy."""

    @pytest.mark.parametrize("protocol", ["sf", "ssf"])
    @pytest.mark.parametrize("engine", ["fast", "count"])
    def test_same_stats_with_workers_and_a_policy(self, engine, protocol):
        config = PopulationConfig(n=256, sources=SourceCounts(0, 1), h=256)
        handle = create_engine(engine, protocol, config, 0.1)
        # Count SF reports a consensus round; fast SF only its horizon.
        fast_sf = (engine, protocol) == ("fast", "sf")
        measure = weak_fraction_correct if fast_sf else None
        serial = run_trials(handle, 6, seed=3, measure=measure)
        assert run_trials(handle, 6, seed=3, measure=measure, workers=2) == serial
        assert run_trials(
            handle, 6, seed=3, measure=measure, resilience=ResilienceConfig()
        ) == serial


def _token(seed_sequence) -> int:
    return int(np.random.default_rng(seed_sequence).integers(2**32))


class _MarkedTrial:
    """Leaves a marker file named after its first draw when it starts;
    the trial drawing ``fail_token`` raises, every other one sleeps."""

    def __init__(self, directory, fail_token, seconds):
        self.directory = directory
        self.fail_token = fail_token
        self.seconds = seconds

    def __call__(self, rng):
        token = int(rng.integers(2**32))
        (self.directory / str(token)).touch()
        if token == self.fail_token:
            raise ValueError("trial 0 fails")
        time.sleep(self.seconds)
        return FakeResult(converged=True, consensus_round=1)


class _DiesInWorkers:
    """Kills any process but the one that built it."""

    def __init__(self):
        self.parent = os.getpid()

    def __call__(self, rng):
        if os.getpid() != self.parent:
            os._exit(13)
        return FakeResult(converged=True, consensus_round=1)


class TestFirstFailureWithoutAPolicy:
    """Without ``resilience=`` the first failing trial ends the run with
    its own exception, and trials queued behind it never start."""

    TRIALS = 20

    def _started(self, tmp_path, workers):
        seeds = spawn_seeds(9, self.TRIALS)
        tokens = [_token(s) for s in seeds]
        trial = _MarkedTrial(tmp_path, tokens[0], seconds=0.2)
        with pytest.raises(ValueError, match="trial 0 fails"):
            repeat_trials(trial, self.TRIALS, seed=9, workers=workers)
        markers = {int(path.name) for path in tmp_path.iterdir()}
        return {tokens.index(token) for token in markers}

    def test_serial_raises_at_once(self, tmp_path):
        assert self._started(tmp_path, workers=None) == {0}

    def test_pool_cancels_the_queued_trials(self, tmp_path):
        started = self._started(tmp_path, workers=2)
        assert 0 in started
        # Two trials run at a time, so at most a few can start before
        # the failure tears the pool down; the queued ones never do.
        assert len(started) < self.TRIALS // 2

    def test_dead_worker_raises_broken_process_pool(self):
        with pytest.raises(BrokenProcessPool):
            repeat_trials(_DiesInWorkers(), 6, seed=0, workers=2)


class _RunOnce:
    """Picklable per-trial ``run`` of an engine handle."""

    def __init__(self, handle):
        self.handle = handle

    def __call__(self, rng):
        return self.handle.run(rng=rng)


#: engine, protocol, n, h, delta: the per-trial ``run`` of each golden
#: engine family, at a size where one trial takes milliseconds.
_PER_TRIAL_ENGINES = {
    "serial-sf": ("serial", "sf", 32, 4, 0.2),
    "fast-sf": ("fast", "sf", 64, 4, 0.2),
    "fast-ssf": ("fast", "ssf", 64, 64, 0.05),
    "count-sf": ("count", "sf", 64, 4, 0.2),
    "count-ssf": ("count", "ssf", 64, 64, 0.05),
}


@pytest.mark.parametrize("engine", sorted(_PER_TRIAL_ENGINES))
def test_stats_identical_across_workers_and_policy(engine):
    name, protocol, n, h, delta = _PER_TRIAL_ENGINES[engine]
    config = PopulationConfig(n=n, sources=SourceCounts(0, 4), h=h)
    trial = _RunOnce(create_engine(name, protocol, config, delta))
    runs = {
        (workers, policy): repeat_trials(
            trial, 4, seed=5, workers=workers, resilience=policy
        )
        for workers in (1, 2)
        for policy in (None, ResilienceConfig())
    }
    baseline = runs[(1, None)]
    assert baseline.trials == 4 and not baseline.incomplete
    for key, stats in runs.items():
        assert stats == baseline, key
