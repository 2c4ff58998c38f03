"""Tests for the experiments package: registry, framework, quick runs."""

import pytest

from repro.experiments import (
    CheckResult,
    Experiment,
    ExperimentOutcome,
    all_experiments,
    get_experiment,
)
from repro.telemetry import MemorySink, Telemetry

ALL_IDS = [
    "FIG1",
    "E1",
    "E2",
    "E3",
    "E4",
    "E5",
    "E6",
    "E7",
    "E8",
    "E9",
    "E10",
    "ABL1",
    "ABL2",
    "ABL3",
    "EXT1",
    "EXT2",
    "EXT3",
    "EXT4",
    "EXT5",
]


class TestRegistry:
    def test_all_registered(self):
        ids = {e.experiment_id for e in all_experiments()}
        assert ids == set(ALL_IDS)

    def test_lookup_case_insensitive(self):
        assert get_experiment("e1") is get_experiment("E1")

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_ordering(self):
        ids = [e.experiment_id for e in all_experiments()]
        assert ids == sorted(ids)

    def test_metadata_present(self):
        for experiment in all_experiments():
            assert experiment.title
            assert experiment.claim


class TestFramework:
    def test_outcome_passed(self):
        outcome = ExperimentOutcome(
            "X", "t", [], [CheckResult("a", True), CheckResult("b", True)]
        )
        assert outcome.passed
        assert outcome.failures == []

    def test_outcome_failures(self):
        bad = CheckResult("b", False, "detail")
        outcome = ExperimentOutcome("X", "t", [], [CheckResult("a", True), bad])
        assert not outcome.passed
        assert outcome.failures == [bad]

    def test_render_contains_checks(self):
        outcome = ExperimentOutcome(
            "X",
            "my title",
            [{"a": 1}],
            [CheckResult("claim holds", True, "42")],
            notes="note",
        )
        text = outcome.render()
        assert "X: my title" in text
        assert "[PASS] claim holds" in text
        assert "(42)" in text
        assert "note" in text

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            get_experiment("FIG1").run(scale="huge")


class TestQuickRuns:
    """Every experiment passes its own shape checks at quick scale.

    These are the same checks the full-scale benchmark harness enforces;
    quick scale keeps the whole suite in seconds.
    """

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_quick_scale_passes(self, experiment_id):
        outcome = get_experiment(experiment_id).run(scale="quick", seed=0)
        assert outcome.passed, outcome.render()
        assert outcome.rows

    def test_deterministic_given_seed(self):
        a = get_experiment("FIG1").run(scale="quick", seed=3)
        b = get_experiment("FIG1").run(scale="quick", seed=3)
        assert a.rows == b.rows


class TestTrialsRunThroughTheHarness:
    """Monte-Carlo trials go through :meth:`Experiment._trials`, so the
    harness's workers, resilience policy, checkpoint and recorder reach
    them."""

    @pytest.mark.parametrize(
        "experiment_id", ["E3", "E4", "E6", "ABL1", "ABL2", "EXT2"]
    )
    def test_trials_are_recorded(self, experiment_id):
        sink = MemorySink()
        get_experiment(experiment_id).run(
            scale="quick", seed=0, telemetry=Telemetry([sink])
        )
        assert sink.counters["trials.completed"] > 0

    @pytest.mark.parametrize("experiment_id", ["E3", "E1", "E2"])
    def test_rows_equal_serially_and_on_a_pool(self, experiment_id):
        serial = get_experiment(experiment_id).run(scale="quick", seed=0)
        pooled = type(get_experiment(experiment_id))()
        pooled.workers = 2
        assert pooled.run(scale="quick", seed=0).rows == serial.rows
