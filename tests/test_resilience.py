"""Chaos tests for the resilient trial runner (repro.analysis.resilience).

Every test injects *deterministic* faults via :class:`ChaosTrial` and
checks the central contract: a recovered run is bit-identical to an
unfaulted one (retries reuse original seeds), and an unrecoverable run
degrades to explicit ``failed_trials`` accounting instead of raising.

The ``chaos`` marker selects this file as its own CI lane; the few
tests that deliberately sit out real wall-clock timeouts carry
``slow_chaos`` on top and are excluded from the default run (see
``addopts`` in pyproject.toml).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ChaosError,
    ChaosSpec,
    ChaosTrial,
    ResilienceConfig,
    TrialInfo,
    repeat_trials,
)
from repro.exceptions import ConfigurationError
from repro.telemetry import AggregatingSink, Telemetry

pytestmark = pytest.mark.chaos


def _probe(rng: np.random.Generator) -> float:
    """Module-level so it can cross the ``workers`` process boundary."""
    return float(rng.random())


def _always(result: float) -> bool:
    return True


def _above_quarter(result: float) -> bool:
    return result >= 0.25


def _identity(result: float) -> float:
    return float(result)


def _run(run_one, trials, seed, **kwargs):
    kwargs.setdefault("success", _above_quarter)
    kwargs.setdefault("measure", _identity)
    return repeat_trials(run_one, trials, seed=seed, **kwargs)


def _telemetry():
    sink = AggregatingSink()
    return sink, Telemetry([sink])


class TestChaosTrial:
    def test_off_schedule_and_no_trial_info_pass_through(self):
        chaos = ChaosTrial(_probe, {0: "raise"})
        rng_value = chaos(np.random.default_rng(3))  # no trial_info
        assert rng_value == _probe(np.random.default_rng(3))
        ok = chaos(np.random.default_rng(3), trial_info=TrialInfo(1, 0))
        assert ok == _probe(np.random.default_rng(3))

    def test_fires_while_attempt_below_times(self):
        chaos = ChaosTrial(_probe, {2: ChaosSpec("raise", times=2)})
        for attempt in (0, 1):
            with pytest.raises(ChaosError):
                chaos(np.random.default_rng(0), trial_info=TrialInfo(2, attempt))
        assert chaos(
            np.random.default_rng(5), trial_info=TrialInfo(2, 2)
        ) == _probe(np.random.default_rng(5))

    def test_wrapped_baseline_matches_unwrapped(self):
        # Without a resilience policy the legacy serial backend never
        # passes trial_info, so the same wrapper yields the baseline.
        chaos = ChaosTrial(_probe, {0: "crash", 1: "raise"})
        assert _run(chaos, 10, seed=4) == _run(_probe, 10, seed=4)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec("explode")
        with pytest.raises(ConfigurationError):
            ChaosSpec("raise", times=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(trial_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(retries=-1)

    def test_checkpoint_requires_integer_seed(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _run(
                _probe, 4, seed=None,
                resilience=ResilienceConfig(checkpoint=tmp_path / "c.jsonl"),
            )


class TestSerialRetries:
    def test_transient_raises_recover_bit_identical(self):
        baseline = _run(_probe, 8, seed=9)
        chaos = ChaosTrial(
            _probe, {0: "raise", 2: ChaosSpec("raise", times=2)}
        )
        sink, tele = _telemetry()
        stats = _run(
            chaos, 8, seed=9,
            resilience=ResilienceConfig(retries=2), telemetry=tele,
        )
        assert stats.values == baseline.values
        assert stats.successes == baseline.successes
        assert stats.failed_trials == 0 and not stats.incomplete
        assert sink.counters["resilience.trial_errors"] == 3.0
        assert sink.counters["resilience.retries"] == 3.0

    def test_exhausted_retries_degrade_to_partial_stats(self):
        baseline = _run(_probe, 6, seed=2, success=_always)
        chaos = ChaosTrial(_probe, {3: ChaosSpec("raise", times=5)})
        sink, tele = _telemetry()
        stats = repeat_trials(
            chaos, 6, seed=2, success=_always, measure=_identity,
            resilience=ResilienceConfig(retries=1), telemetry=tele,
        )
        assert stats.trials == 6
        assert stats.failed_trials == 1 and stats.incomplete
        assert stats.successes == 5
        expected = [v for i, v in enumerate(baseline.values) if i != 3]
        assert stats.values == expected
        assert sink.counters["resilience.failed_trials"] == 1.0
        assert "failed_trials" in stats.summary()


class TestPoolRecovery:
    def test_sigkill_recovery_bit_identical(self):
        """Acceptance: one worker SIGKILLed mid-run, 64 trials, workers=4."""
        trials = 64
        baseline = _run(_probe, trials, seed=11)
        chaos = ChaosTrial(_probe, {9: ChaosSpec("sigkill")})
        sink, tele = _telemetry()
        stats = _run(
            chaos, trials, seed=11, workers=4,
            resilience=ResilienceConfig(retries=2), telemetry=tele,
        )
        assert stats.values == baseline.values
        assert stats.successes == baseline.successes
        assert stats.failed_trials == 0 and not stats.incomplete
        # One scheduled kill => exactly one pool rebuild; blame is
        # window-bounded: the culprit plus at most pool_size-1 innocent
        # outstanding trials are charged (and retried for free).
        assert sink.counters["resilience.pool_rebuilds"] == 1.0
        assert 1.0 <= sink.counters["resilience.crashes"] <= 4.0
        assert (
            sink.counters["resilience.retries"]
            == sink.counters["resilience.crashes"]
        )

    def test_crash_and_raise_mix(self):
        trials = 24
        baseline = _run(_probe, trials, seed=21)
        chaos = ChaosTrial(_probe, {1: "raise", 17: "crash"})
        sink, tele = _telemetry()
        stats = _run(
            chaos, trials, seed=21, workers=2,
            resilience=ResilienceConfig(retries=2), telemetry=tele,
        )
        assert stats.values == baseline.values
        assert stats.failed_trials == 0
        assert sink.counters["resilience.trial_errors"] == 1.0
        assert sink.counters["resilience.pool_rebuilds"] == 1.0

    @pytest.mark.slow_chaos
    def test_hang_timeout_recovers(self):
        trials = 12
        baseline = _run(_probe, trials, seed=6)
        chaos = ChaosTrial(
            _probe, {trials - 1: ChaosSpec("hang")}, hang_seconds=60.0
        )
        sink, tele = _telemetry()
        stats = _run(
            chaos, trials, seed=6, workers=2,
            resilience=ResilienceConfig(trial_timeout=0.5, retries=2),
            telemetry=tele,
        )
        assert stats.values == baseline.values
        assert stats.failed_trials == 0
        assert sink.counters["resilience.timeouts"] == 1.0
        assert sink.counters["resilience.pool_rebuilds"] == 1.0

    @pytest.mark.slow_chaos
    def test_timeout_exhaustion_partial_stats(self):
        trials = 8
        baseline = _run(_probe, trials, seed=5, success=_always)
        chaos = ChaosTrial(
            _probe, {3: ChaosSpec("hang", times=5)}, hang_seconds=60.0
        )
        sink, tele = _telemetry()
        stats = repeat_trials(
            chaos, trials, seed=5, success=_always, measure=_identity,
            workers=2,
            resilience=ResilienceConfig(trial_timeout=0.5, retries=2),
            telemetry=tele,
        )
        assert stats.trials == trials
        assert stats.failed_trials == 1 and stats.incomplete
        expected = [v for i, v in enumerate(baseline.values) if i != 3]
        assert stats.values == expected
        assert sink.counters["resilience.timeouts"] == 3.0
        assert sink.counters["resilience.retries"] == 2.0
        assert sink.counters["resilience.failed_trials"] == 1.0


class TestCheckpoint:
    def test_interrupt_resume_matches_uninterrupted(self, tmp_path):
        trials = 16
        path = tmp_path / "trials.jsonl"
        baseline = _run(_probe, trials, seed=3)
        config = ResilienceConfig(checkpoint=path)
        first = _run(_probe, trials, seed=3, resilience=config)
        assert first.values == baseline.values
        # Simulate an interrupt: keep only the first 7 records.
        lines = path.read_text().splitlines()
        assert len(lines) == trials
        path.write_text("\n".join(lines[:7]) + "\n")
        sink, tele = _telemetry()
        resumed = _run(
            _probe, trials, seed=3, resilience=config, telemetry=tele
        )
        assert resumed.values == baseline.values
        assert resumed.successes == baseline.successes
        assert sink.counters["resilience.checkpoint_skipped"] == 7.0

    def test_complete_file_skips_everything(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        config = ResilienceConfig(checkpoint=path)
        first = _run(_probe, 10, seed=8, resilience=config)
        sink, tele = _telemetry()
        again = _run(_probe, 10, seed=8, resilience=config, telemetry=tele)
        assert again.values == first.values
        assert sink.counters["resilience.checkpoint_skipped"] == 10.0

    def test_failed_trials_not_recorded_so_resume_retries(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        baseline = _run(_probe, 6, seed=14, success=_always)
        chaos = ChaosTrial(_probe, {2: ChaosSpec("raise", times=5)})
        config = ResilienceConfig(retries=1, checkpoint=path)
        first = repeat_trials(
            chaos, 6, seed=14, success=_always, measure=_identity,
            resilience=config,
        )
        assert first.failed_trials == 1
        assert len(path.read_text().splitlines()) == 5
        # The poison is gone on the next launch: the resumed run redoes
        # only trial 2 and lands exactly on the uninterrupted baseline.
        resumed = _run(_probe, 6, seed=14, success=_always, resilience=config)
        assert resumed.values == baseline.values
        assert resumed.failed_trials == 0 and not resumed.incomplete

    def test_scopes_isolate_batches_in_one_file(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        config = ResilienceConfig(checkpoint=path)
        a = _run(
            _probe, 5, seed=1, resilience=config, checkpoint_scope="a"
        )
        sink, tele = _telemetry()
        b = _run(
            _probe, 5, seed=1, resilience=config, checkpoint_scope="b",
            telemetry=tele,
        )
        # Same seed but a different scope: nothing is skipped, and the
        # two batches (being identically seeded) agree.
        assert "resilience.checkpoint_skipped" not in sink.counters
        assert a.values == b.values

    def test_corrupt_checkpoint_line_raises(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            _run(_probe, 4, seed=0, resilience=ResilienceConfig(checkpoint=path))

    def test_pool_checkpoint_resume(self, tmp_path):
        trials = 12
        path = tmp_path / "trials.jsonl"
        baseline = _run(_probe, trials, seed=19)
        config = ResilienceConfig(checkpoint=path)
        _run(_probe, trials, seed=19, workers=2, resilience=config)
        lines = sorted(
            path.read_text().splitlines()
        )  # pool completion order is nondeterministic
        assert len(lines) == trials
        path.write_text("\n".join(lines[: trials // 2]) + "\n")
        resumed = _run(
            _probe, trials, seed=19, workers=2, resilience=config
        )
        assert resumed.values == baseline.values
