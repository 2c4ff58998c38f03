"""Tests for repro.telemetry: sinks, recorders, and RNG-neutrality.

The load-bearing guarantees here are the two the telemetry layer was
designed around:

* attaching any recorder/sink must not change protocol results by a
  single bit (telemetry never touches the RNG streams), and
* trial statistics are identical whether telemetry rides along serially
  or through a ``workers=4`` process pool.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.analysis import ResilienceConfig, repeat_trials
from repro.model import Population, PopulationConfig, PullEngine
from repro.noise import NoiseMatrix
from repro.protocols import FastSourceFilter, SFSchedule, SourceFilterProtocol
from repro.telemetry import (
    NULL_TELEMETRY,
    AggregatingSink,
    JsonlSink,
    MemorySink,
    SummarySink,
    Telemetry,
    TelemetryEvent,
    TelemetrySink,
    as_sink,
    ensure_telemetry,
)
from repro.types import SourceCounts


def _population(n=40, h=2, seed=0):
    config = PopulationConfig(n=n, sources=SourceCounts(1, 3), h=h)
    return Population(config, rng=np.random.default_rng(seed))


def _engine(population=None):
    population = population or _population()
    return PullEngine(population, NoiseMatrix.uniform(0.2, 2))


def _schedule(population):
    return SFSchedule.from_config(
        population.config, 0.2, m=10 * population.config.h
    )


class TestEventPlumbing:
    def test_counter_accumulates(self):
        sink = MemorySink()
        tele = Telemetry([sink])
        tele.counter("runs")
        tele.counter("runs", 4)
        assert sink.counters["runs"] == 5.0

    def test_gauge_last_write_wins(self):
        sink = MemorySink()
        tele = Telemetry([sink])
        tele.gauge("frac", 0.25)
        tele.gauge("frac", 0.75)
        assert sink.gauges["frac"] == 0.75

    def test_histogram_keeps_all_samples(self):
        sink = MemorySink()
        tele = Telemetry([sink])
        for value in (1.0, 2.0, 3.0):
            tele.observe("seconds", value)
        assert sink.histograms["seconds"] == [1.0, 2.0, 3.0]

    def test_phase_records_elapsed(self):
        sink = MemorySink()
        tele = Telemetry([sink])
        with tele.phase("work", scale="quick"):
            pass
        (duration,) = sink.phases["work{scale=quick}"]
        assert duration >= 0.0

    def test_tags_split_metric_keys(self):
        sink = MemorySink()
        tele = Telemetry([sink])
        tele.counter("trials", worker=1)
        tele.counter("trials", worker=2)
        assert sink.counters == {"trials{worker=1}": 1.0, "trials{worker=2}": 1.0}

    def test_round_event_drops_array_payload_from_memory(self):
        sink = MemorySink()
        tele = Telemetry([sink])
        tele.round(3, num_correct=7, opinions=np.zeros(5))
        (event,) = sink.events_of("round")
        assert event.round_index == 3
        assert event.tags == {"num_correct": 7}
        assert sink.rounds_recorded == 1
        assert sink.last_round == {"num_correct": 7, "round": 3}

    def test_last_round_equals_the_eagerly_built_dict(self):
        def eager(event, previous):
            # The dict the sink used to build as each round arrived.
            if not event.tags:
                return previous
            out = {k: v for k, v in event.tags.items()
                   if isinstance(v, (bool, int, float, str)) or v is None}
            out["round"] = event.round_index
            return out

        sink, expected = AggregatingSink(), None
        assert sink.last_round is None
        rounds = [
            (0, {}),  # empty tags before any tagged round
            (1, {"num_correct": 3, "fraction_correct": 0.5, "note": None}),
            (2, {"num_correct": 4, "opinions": np.ones(5, dtype=np.int8)}),
            (3, {}),  # empty tags keep the previous round
            (4, {"opinions": np.zeros(5)}),  # array payload only
            (5, {"kind": "boost", "done": True}),
        ]
        for index, tags in rounds:
            event = TelemetryEvent("round", "round", None, index, tags)
            sink.handle(event)
            expected = eager(event, expected)
            assert sink.last_round == expected
        assert sink.rounds_recorded == len(rounds)
        assert sink.last_round == {"kind": "boost", "done": True, "round": 5}

    def test_fan_out_to_multiple_sinks(self):
        a, b = MemorySink(), MemorySink()
        tele = Telemetry([a, b])
        tele.counter("x")
        assert a.counters == b.counters == {"x": 1.0}


class TestNullTelemetry:
    def test_disabled_and_inert(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.counter("x")
        NULL_TELEMETRY.gauge("x", 1)
        NULL_TELEMETRY.observe("x", 1)
        NULL_TELEMETRY.round(0, num_correct=1)
        with NULL_TELEMETRY.phase("x"):
            pass
        assert NULL_TELEMETRY.sinks == []

    def test_attach_refused(self):
        with pytest.raises(TypeError):
            NULL_TELEMETRY.attach(MemorySink())


class TestEnsureTelemetry:
    def test_neither_gives_null(self):
        assert ensure_telemetry(None) is NULL_TELEMETRY

    def test_telemetry_passes_through(self):
        tele = Telemetry([MemorySink()])
        assert ensure_telemetry(tele) is tele

    def test_observers_become_sinks(self):
        class Observer:
            def __init__(self):
                self.calls = []

            def observe(self, round_index, opinions):
                self.calls.append((round_index, opinions))

        observer = Observer()
        tele = ensure_telemetry(Telemetry([observer]))
        tele.round(2, opinions=np.arange(3))
        assert observer.calls and observer.calls[0][0] == 2

    def test_as_sink_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            as_sink(object())


class TestJsonlSink:
    def test_writes_scalar_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tele = Telemetry([JsonlSink(path)])
        tele.counter("runs", 2)
        tele.round(5, num_correct=9, opinions=np.zeros(4))
        tele.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {"kind": "counter", "name": "runs", "value": 2.0}
        assert records[1] == {
            "kind": "round", "name": "round", "round": 5, "num_correct": 9,
        }

    def test_accepts_open_stream(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.handle(TelemetryEvent("gauge", "g", 1.5, None, None))
        sink.close()  # flushes but must not close a borrowed stream
        assert json.loads(stream.getvalue()) == {
            "kind": "gauge", "name": "g", "value": 1.5,
        }


class TestSummarySink:
    def test_render_covers_every_section(self):
        sink = SummarySink()
        tele = Telemetry([sink])
        tele.counter("sf.runs", 3)
        tele.gauge("weak_fraction", 0.9)
        tele.observe("trial_seconds", 0.5)
        with tele.phase("sf.boosting"):
            pass
        tele.round(7, num_correct=4)
        text = sink.render()
        for token in ("Counters", "Gauges", "Phase timers", "Histograms",
                      "rounds recorded: 1"):
            assert token in text

    def test_render_empty(self):
        assert "no events" in SummarySink().render()

    def test_render_text_is_pinned(self):
        sink = SummarySink()
        tele = Telemetry([sink])
        tele.counter("runs")
        tele.counter("runs", 2, worker=1)
        tele.gauge("frac", 0.25)
        tele.observe("secs", 1.5)
        tele.observe("secs", 2.5)
        sink.handle(TelemetryEvent("phase", "work", 0.5, None, None))
        tele.round(0, num_correct=3, fraction_correct=0.5, opinions=np.zeros(6))
        tele.round(1, opinions=np.ones(6))
        tele.round(2)
        assert sink.render() == (
            "Counters\ncounter         total\n--------------  -----\n"
            "runs            1    \nruns{worker=1}  2    \n\n"
            "Gauges\ngauge  value\n-----  -----\nfrac   0.25 \n\n"
            "Phase timers\nphase  count  total_s  mean_s\n"
            "-----  -----  -------  ------\nwork   1      0.5      0.5   \n\n"
            "Histograms\nhistogram  count  mean  min  max\n"
            "---------  -----  ----  ---  ---\nsecs       2      2     1.5  2.5\n\n"
            "rounds recorded: 3  (last: round=1)"
        )


class TestMergeSnapshot:
    def test_worker_tags_survive_merge(self):
        worker = AggregatingSink()
        wtele = Telemetry([worker])
        wtele.counter("trials.completed", 6)
        wtele.observe("trials.trial_seconds", 0.1)
        with wtele.phase("trials.run"):
            pass
        wtele.gauge("weak_fraction", 0.8)
        wtele.round(3, num_correct=2)

        parent = MemorySink()
        Telemetry([parent]).merge_snapshot(worker.snapshot(), worker=1234)
        assert parent.counters["trials.completed{worker=1234}"] == 6.0
        assert parent.counters["rounds_recorded{worker=1234}"] == 1.0
        assert parent.gauges["weak_fraction{worker=1234}"] == 0.8
        assert parent.histograms["trials.trial_seconds{worker=1234}"] == [0.1]
        assert "trials.run{worker=1234}" in parent.phases

    def test_snapshot_is_json_serializable(self):
        sink = AggregatingSink()
        tele = Telemetry([sink])
        tele.counter("x", 2)
        tele.round(0, num_correct=1)
        json.dumps(sink.snapshot())


class TestRngNeutrality:
    """Same seed => bit-identical protocol results, telemetry on or off."""

    def test_pull_engine_results_bit_identical(self):
        population = _population()
        schedule = _schedule(population)

        def run(telemetry=None):
            engine = _engine(population)
            return engine.run(
                SourceFilterProtocol(schedule),
                max_rounds=schedule.total_rounds,
                rng=42,
                telemetry=telemetry,
            )

        off = run()
        on = run(telemetry=Telemetry([MemorySink()]))
        assert off.converged == on.converged
        assert off.consensus_round == on.consensus_round
        assert off.rounds_executed == on.rounds_executed
        assert np.array_equal(off.final_opinions, on.final_opinions)

    def test_engine_emits_rounds_and_phase(self):
        population = _population()
        schedule = _schedule(population)
        sink = MemorySink()
        _engine(population).run(
            SourceFilterProtocol(schedule),
            max_rounds=schedule.total_rounds,
            rng=42,
            telemetry=Telemetry([sink]),
        )
        assert sink.rounds_recorded == schedule.total_rounds
        assert any(name.startswith("pull_engine.run") for name in sink.phases)
        first = sink.events_of("round")[0]
        assert {"num_correct", "fraction_correct"} <= set(first.tags)

    def test_fast_sf_bit_identical(self):
        population = _population(n=64, h=4)
        schedule = _schedule(population)
        protocol = FastSourceFilter(population.config, 0.2, schedule)
        off = protocol.run(rng=9)
        on = protocol.run(rng=9, telemetry=Telemetry([MemorySink()]))
        assert off.converged == on.converged
        assert off.weak_fraction_correct == on.weak_fraction_correct
        assert np.array_equal(off.final_opinions, on.final_opinions)
        assert off.boost_trace == on.boost_trace

    def test_fast_sf_phase_vocabulary(self):
        population = _population(n=64, h=4)
        schedule = _schedule(population)
        protocol = FastSourceFilter(population.config, 0.2, schedule)
        sink = MemorySink()
        protocol.run(rng=9, telemetry=Telemetry([sink]))
        names = {e.name for e in sink.events_of("phase")}
        assert "sf.phase01_weak" in names and "sf.boosting" in names
        phases_seen = {e.tags.get("phase") for e in sink.events_of("round")}
        assert {"phase1", "boosting", "boosting_final"} <= phases_seen


@dataclasses.dataclass
class _FakeResult:
    converged: bool
    consensus_round: int


def _telemetry_trial(rng):
    """Module-level so it crosses the workers process boundary."""
    return _FakeResult(
        converged=bool(rng.random() < 0.7),
        consensus_round=int(rng.integers(1, 50)),
    )


class TestTrialsTelemetry:
    def test_serial_and_workers_stats_identical(self):
        serial_sink = MemorySink()
        serial = repeat_trials(
            _telemetry_trial, trials=24, seed=11,
            telemetry=Telemetry([serial_sink]),
        )
        pooled_sink = MemorySink()
        pooled = repeat_trials(
            _telemetry_trial, trials=24, seed=11, workers=4,
            telemetry=Telemetry([pooled_sink]),
        )
        bare = repeat_trials(_telemetry_trial, trials=24, seed=11)
        for stats in (serial, pooled):
            assert stats.trials == bare.trials
            assert stats.successes == bare.successes
            assert stats.values == bare.values

    def test_serial_emits_throughput_and_counters(self):
        # In process, with or without a policy: untagged trial times and
        # one throughput gauge, for worker "main".
        for resilience in (None, ResilienceConfig()):
            sink = MemorySink()
            repeat_trials(
                _telemetry_trial, trials=8, seed=2,
                telemetry=Telemetry([sink]), resilience=resilience,
            )
            assert sink.counters["trials.completed"] == 8.0
            throughput = [
                name for name in sink.gauges
                if name.startswith("trials.worker_throughput")
            ]
            assert throughput == ["trials.worker_throughput{worker=main}"]
            assert len(sink.histograms["trials.trial_seconds"]) == 8
            assert not any("worker=" in name for name in sink.histograms)

    def test_workers_emit_per_worker_throughput(self):
        sink = MemorySink()
        repeat_trials(
            _telemetry_trial, trials=12, seed=2, workers=2,
            telemetry=Telemetry([sink]),
        )
        throughput = [
            name for name in sink.gauges
            if name.startswith("trials.worker_throughput{worker=")
        ]
        assert throughput  # one gauge per pool worker that ran trials
        completed = sum(
            value for name, value in sink.counters.items()
            if name.startswith("trials.completed")
        )
        assert completed == 12.0


class TestCustomSink:
    def test_plain_handle_object_is_a_sink(self):
        class Collector(TelemetrySink):
            def __init__(self):
                self.kinds = []

            def handle(self, event):
                self.kinds.append(event.kind)

        collector = Collector()
        tele = Telemetry([collector])
        tele.counter("x")
        tele.round(0, num_correct=1)
        assert collector.kinds == ["counter", "round"]
