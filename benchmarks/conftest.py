"""Shared helpers for the benchmark/reproduction harness.

Every benchmark regenerates one experiment from DESIGN.md's index: it
prints a paper-prediction vs measured table (visible with ``pytest -s``,
and always written as CSV under ``benchmarks/results/``) and asserts the
paper's *shape* claim — scaling exponent, ordering, crossover — rather
than absolute round counts.
"""

from __future__ import annotations

import json
import pathlib
import platform
import statistics
import time
from typing import Callable, Dict, List, Sequence

import numpy as np
import pytest

from repro.analysis import format_table, write_csv

from .check_regression import RECORDS, REPO_ROOT, sources_digest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Cases the benchmarks queue for each committed ``BENCH_*.json`` record
#: (see :data:`benchmarks.check_regression.RECORDS`), written to the
#: repo root when the session ends.
RECORD_CASES: Dict[str, List[Dict[str, object]]] = {name: [] for name in RECORDS}

#: Tests ``-k``/``-m`` filtered out of this session.
DESELECTED: List[object] = []


def _recorder(record: str):
    def record_case(case: Dict[str, object]) -> None:
        """Queue one measurement for the end-of-session JSON record."""
        RECORD_CASES[record].append(case)

    return record_case


record_engine_throughput = _recorder("BENCH_engine_throughput.json")
record_telemetry_overhead = _recorder("BENCH_telemetry_overhead.json")
record_count_engine = _recorder("BENCH_count_engine.json")
record_service_load = _recorder("BENCH_service_load.json")
record_net_roundtrip = _recorder("BENCH_net_roundtrip.json")
record_topology_pull = _recorder("BENCH_topology_pull.json")
record_adversary_search = _recorder("BENCH_adversary_search.json")


def median_timing(call: Callable[[], object], repeats: int = 9) -> Dict[str, object]:
    """Wall seconds of ``call``: one warm-up, then the median of
    ``repeats`` timed calls with their range, as record case fields."""
    return interleaved_timings([call], repeats)[0]


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreted Python and small
    NumPy calls (perfbench's plain reference loop).  Run beside timed
    calls, it tracks how fast the shared host runs at the time."""
    began = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    symbols = np.arange(4096) % 3
    for _ in range(50):
        total += int(np.bincount(symbols, minlength=3)[1])
    return time.perf_counter() - began


def interleaved_timings(
    calls: Sequence[Callable[[], object]], repeats: int = 9, scaled: bool = False
) -> List[Dict[str, object]]:
    """:func:`median_timing` of several calls measured side by side: one
    warm-up each, then ``repeats`` rounds that time every call once,
    alternating the order, so host drift falls on all of them alike.

    ``scaled`` scales the times as perfbench does: :func:`reference_loop`
    runs before the first timed call and after each one, and a call's
    time is multiplied by the median loop time over the mean of the two
    loops around it, so a stretch of slow host falls out of the samples
    it touches."""
    for call in calls:
        call()
    times: List[List[float]] = [[] for _ in calls]
    around: List[List[float]] = [[] for _ in calls]
    loops = [reference_loop()] if scaled else []
    order = list(range(len(calls)))
    for repeat in range(repeats):
        for i in order if repeat % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            calls[i]()
            times[i].append(time.perf_counter() - start)
            if scaled:
                loops.append(reference_loop())
                around[i].append(0.5 * (loops[-2] + loops[-1]))
    if scaled:
        typical = statistics.median(loops)
        times = [
            [took * typical / loop for took, loop in zip(samples, loops_around)]
            for samples, loops_around in zip(times, around)
        ]
    return [
        {
            "seconds": round(statistics.median(samples), 6),
            "repeats": repeats,
            "min": round(min(samples), 6),
            "max": round(max(samples), 6),
        }
        for samples in times
    ]


def pytest_deselected(items):
    DESELECTED.extend(items)


def pytest_sessionfinish(session, exitstatus):
    # A failed or filtered session measured only part of a record, so
    # it must not overwrite the committed one.
    if exitstatus != 0 or DESELECTED:
        return
    for record, cases in RECORD_CASES.items():
        if not cases:
            continue
        payload = {
            "benchmark": record[len("BENCH_"):-len(".json")],
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        if RECORDS[record].sources is not None:
            # Ties the record to the sources it measured, so the
            # check_regression gate can fail on stale numbers.
            payload["sources_digest"] = sources_digest(record)
        payload["cases"] = cases
        (REPO_ROOT / record).write_text(json.dumps(payload, indent=2) + "\n")


def emit_table(
    rows: List[Dict[str, object]],
    title: str,
    filename: str,
    columns: Sequence[str] = (),
) -> None:
    """Print a reproduction table and persist it as CSV."""
    text = format_table(rows, columns=columns, title=title)
    print("\n" + text)
    write_csv(rows, RESULTS_DIR / filename, columns=columns)


@pytest.fixture
def emit():
    """Fixture handle on :func:`emit_table`."""
    return emit_table


def run_experiment_benchmark(benchmark, experiment_id: str, filename: str):
    """Standard wrapper: benchmark a full-scale experiment, emit its
    table and checks, and fail the test if any shape check failed."""
    from repro.experiments import get_experiment

    experiment = get_experiment(experiment_id)
    outcome = benchmark.pedantic(
        lambda: experiment.run(scale="full"), rounds=1, iterations=1
    )
    emit_table(
        outcome.rows,
        title=f"{outcome.experiment_id}: {outcome.title}"
        + (f"  [{outcome.notes}]" if outcome.notes else ""),
        filename=filename,
    )
    for check in outcome.checks:
        mark = "PASS" if check.passed else "FAIL"
        suffix = f"  ({check.detail})" if check.detail else ""
        print(f"  [{mark}] {check.name}{suffix}")
    assert outcome.passed, outcome.render()
    return outcome
