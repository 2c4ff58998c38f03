"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_harness.py

Covers the percentile and operation-latency helpers, the BENCHMARK.json
contract, the layer map, span invariants, compare.py's verdicts, and a
``--quick`` run of every workload that must print every declared metric
with no failed operation.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from compare import verdict  # noqa: E402
from stats import op_latency, percentile, tail_summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layer_map.json").read_text())["layers"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_tail_summary_reports_highest_percentile_with_ten_beyond():
    summary = tail_summary(range(1, 101))
    assert summary["n"] == 100 and summary["p50"] == 50.5
    assert (summary["tail_pct"], summary["tail"], summary["beyond"]) == (90, 90, 10)
    summary = tail_summary(range(1, 201))
    assert (summary["tail_pct"], summary["tail"], summary["beyond"]) == (95, 190, 10)
    summary = tail_summary(range(15))
    assert summary["p50"] == 7 and summary["tail_pct"] is None
    assert percentile([3, 1, 2], 100) == 3 and percentile([3, 1, 2], 1) == 1


def test_op_latency_weights_each_kinds_median():
    latencies = {"a": [4.0, 1.0, 2.0], "b": [10.0, 20.0], "idle": []}
    assert op_latency(latencies, {"a": 1, "b": 0.5}) == 2.0 + 7.5
    assert op_latency(latencies, {"a": 2, "idle": 3}) == 4.0


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 for part in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_covers_every_per_layer_metric_once():
    mapped = [metric for group in LAYERS for metric in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for group in LAYERS:
        assert set(group["measured_on"]) <= set(WORKLOADS)
        assert set(group["unchanged_on"]) <= set(WORKLOADS)
        for entry in group["moves"]:
            metric, workload = entry.split("@")
            assert metric in end_to_end and workload in WORKLOADS, entry


def test_spans_nest_and_self_times_are_non_negative():
    from spans import SpanRecorder, SpanSink
    from repro.telemetry import Telemetry

    recorder = SpanRecorder()
    telemetry = Telemetry([SpanSink(recorder, aggregate=("inner.phase",))])
    with recorder.span("op", trace=0):
        with recorder.span("call"):
            time.sleep(0.001)
            with telemetry.phase("engine.run"):
                for _ in range(3):
                    recorder.timed("leaf", time.sleep, 0.001)
                    with telemetry.phase("inner.phase"):
                        pass
        recorder.timed("leaf", time.sleep, 0.001)
    spans = recorder.spans
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert [s.count for s in by_name["leaf"]] == [3, 1]
    # Calls made while a phase ran end up under that phase's span.
    assert spans[by_name["leaf"][0].parent].name == "engine.run"
    assert spans[by_name["inner.phase"][0].parent].name == "engine.run"
    assert spans[by_name["leaf"][1].parent].name == "op"
    for span, own in zip(spans, recorder.self_times()):
        assert own >= -1e-9, span.name
        assert span.trace == 0
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end + 1e-9
    assert 0.0 < recorder.attributed_fraction("op") <= 1.0


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        ([10.0] * 9 + [10.5], [8.0] * 10, "lower", 0.1, "improved"),
        ([10.0, 10.1] * 5, [12.0, 12.1] * 5, "lower", 0.1, "regressed"),
        ([10.0, 14.0] * 5, [10.1, 13.9] * 5, "lower", 0.1, "unresolved"),
        ([10.0, 10.2] * 5, [10.1, 10.1] * 5, "lower", 0.1, "unchanged"),
        ([10.0] * 10, [11.0] * 10, "higher", 0.25, "improved"),
        ([1.0] * 10, [2.0] * 10, "lower", None, "worse"),
    ],
)
def test_compare_verdicts(parent, change, better, bound, expected):
    assert verdict(parent, change, better, bound)["verdict"] == expected


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_every_declared_metric_without_failures(trace):
    proc = _run("--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    printed = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()[:4]
        printed.setdefault(workload, {})[metric] = unit
        float(value)
    assert set(printed) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert printed[workload] == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program():
    bare = BENCH / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
