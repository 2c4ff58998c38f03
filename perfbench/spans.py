"""Span recorder and timing wrappers for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary:
around the public calls it makes, inside timing subclasses it passes
through public constructor arguments, and from the ``phase`` events the
program's own RNG-neutral telemetry emits.  Nothing here changes what the
program computes, so a traced operation must return exactly what the
untraced one did (the workloads check this).

A span records its name, start, end, parent and the trace id of the
workload operation it belongs to.  Calls that repeat inside one parent
(once per round or per trial) are folded into one aggregate span holding
``(count, total, max)``; its start and end are those of the first and last
call.  Self time is a span's total minus the totals of its children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro.adversary_search import CandidateEvaluator
from repro.noise import NoiseMatrix
from repro.topology import RandomRegularTopology

__all__ = [
    "Span",
    "SpanRecorder",
    "SpanSink",
    "TimedNoiseMatrix",
    "TimedRegularTopology",
    "TimedCandidateEvaluator",
]


class Span:
    """One timed interval, or the aggregate of repeated calls."""

    __slots__ = ("name", "start", "end", "parent", "trace", "count", "total", "max")

    def __init__(self, name, start, end, parent, trace, total=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace = trace
        self.count = 1
        self.total = total
        self.max = total

    def to_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class SpanRecorder:
    """In-memory span store with a stack of open spans (one thread)."""

    PHASE_SLACK = 1e-4

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.histograms: Dict[str, List[float]] = defaultdict(list)
        #: Every phase duration this process reported, by phase name.
        self.phases: Dict[str, List[float]] = defaultdict(list)
        #: Phase durations merged from pool workers, which ran elsewhere
        #: and therefore have no place in this process's span tree.
        self.remote_phases: Dict[str, List[float]] = defaultdict(list)
        self.remote_histograms: Dict[str, List[tuple]] = defaultdict(list)
        self.rounds = 0
        self._stack: List[int] = []
        self._aggregates: Dict[tuple, int] = {}

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[int] = None):
        """Open a span for the duration of the ``with`` block."""
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent].trace
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), None, parent, trace))
        self._stack.append(index)
        try:
            yield
        finally:
            span = self.spans[index]
            span.end = time.perf_counter()
            span.total = span.max = span.end - span.start
            self._stack.pop()

    def record(self, name: str, start: float, end: float, parent=None, trace=None) -> int:
        """Store a finished span from timestamps read elsewhere
        (service job records); returns its index."""
        self.spans.append(Span(name, start, end, parent, trace, end - start))
        return len(self.spans) - 1

    def add(self, name: str, start: float, end: float) -> None:
        """Fold one repeated inner call into its aggregate span."""
        parent = self._stack[-1] if self._stack else None
        key = (parent, name)
        index = self._aggregates.get(key)
        duration = end - start
        if index is None:
            trace = self.spans[parent].trace if parent is not None else None
            self._aggregates[key] = len(self.spans)
            self.spans.append(Span(name, start, end, parent, trace, duration))
            return
        span = self.spans[index]
        span.count += 1
        span.total += duration
        span.max = max(span.max, duration)
        span.end = end

    def timed(self, name: str, call, *args, **kwargs):
        """Run ``call`` and fold its duration into aggregate ``name``."""
        start = time.perf_counter()
        result = call(*args, **kwargs)
        self.add(name, start, time.perf_counter())
        return result

    def closed_phase(self, name: str, elapsed: float) -> None:
        """Record a phase that has just ended after ``elapsed`` seconds.

        The program reports a phase only when it ends, so spans and
        aggregates recorded under the current span since the phase began
        are moved under the new phase span.  This clock reads the end a
        few microseconds after the program did, so the start is widened
        to cover any child that began within ``PHASE_SLACK`` of it.
        """
        end = time.perf_counter()
        start = end - elapsed
        parent = self._stack[-1] if self._stack else None
        trace = self.spans[parent].trace if parent is not None else None
        index = len(self.spans)
        first = parent + 1 if parent is not None else 0
        for child in range(index - 1, first - 1, -1):
            span = self.spans[child]
            if span.start < start - self.PHASE_SLACK:
                break
            if span.parent == parent:
                span.parent = index
                start = min(start, span.start)
                self._aggregates.pop((parent, span.name), None)
        self.spans.append(Span(name, start, end, parent, trace, elapsed))

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        own = [span.total for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.total
        return own

    def self_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] += own
        return totals

    def total_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.total
        return totals

    def count_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += span.count
        return counts

    def attributed_fraction(self, root: str) -> float:
        """Share of the ``root`` spans' time covered by named child spans."""
        total = own = 0.0
        for span, self_time in zip(self.spans, self.self_times()):
            if span.name == root:
                total += span.total
                own += self_time
        return 1.0 - own / total if total > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        own = self.self_times()
        return {
            "spans": [
                dict(span.to_dict(), self=self_time)
                for span, self_time in zip(self.spans, own)
            ],
            "counters": dict(self.counters),
            "rounds": self.rounds,
        }


class SpanSink:
    """Telemetry sink feeding the program's events into a recorder.

    ``aggregate`` names phases that repeat inside one parent (one per
    trial); those become aggregate spans.  Events merged from pool
    workers carry a ``worker`` tag and are kept apart from the span tree.
    """

    def __init__(self, recorder: SpanRecorder, aggregate=()) -> None:
        self.recorder = recorder
        self.aggregate = frozenset(aggregate)

    def handle(self, event) -> None:
        recorder = self.recorder
        worker = (event.tags or {}).get("worker")
        if event.kind == "phase":
            if worker is not None:
                recorder.remote_phases[event.name].append(event.value)
                return
            recorder.phases[event.name].append(event.value)
            if event.name in self.aggregate:
                end = time.perf_counter()
                recorder.add(event.name, end - event.value, end)
            else:
                recorder.closed_phase(event.name, event.value)
        elif event.kind == "counter":
            recorder.counters[event.name] += event.value
        elif event.kind == "histogram":
            if worker is not None:
                recorder.remote_histograms[event.name].append((worker, event.value))
            else:
                recorder.histograms[event.name].append(event.value)
        elif event.kind == "round":
            recorder.rounds += 1

    def close(self) -> None:
        pass


class TimedNoiseMatrix(NoiseMatrix):
    """A noise matrix that times every batched corruption call."""

    def __init__(self, matrix, recorder: SpanRecorder) -> None:
        super().__init__(matrix)
        self.recorder = recorder

    def corrupt_with_uniforms(self, messages, uniforms, dtype=np.int64):
        start = time.perf_counter()
        observed = super().corrupt_with_uniforms(messages, uniforms, dtype=dtype)
        self.recorder.add("noise.corrupt", start, time.perf_counter())
        counters = self.recorder.counters
        counters["noise.corrupt_msgs"] += observed.size
        # Computed from array sizes, not measured: displayed symbols and
        # variates read, observations written.
        counters["noise.corrupt_bytes"] += (
            np.asarray(messages).nbytes + uniforms.nbytes + observed.nbytes
        )
        return observed


class TimedRegularTopology(RandomRegularTopology):
    """A random regular graph sampler that times every ``sample`` call."""

    def __init__(self, degree: int, recorder: SpanRecorder) -> None:
        super().__init__(degree=degree)
        self.recorder = recorder

    def sample(self, agents, h, generator):
        start = time.perf_counter()
        targets = super().sample(agents, h, generator)
        self.recorder.add("topology.sample", start, time.perf_counter())
        self.recorder.counters["topology.samples"] += targets.size
        return targets


class TimedCandidateEvaluator(CandidateEvaluator):
    """A candidate evaluator that times and counts its SPRT and
    certification runs."""

    def __init__(self, space, config, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(space, config, **kwargs)
        self.recorder = recorder

    def evaluate(self, candidate, **kwargs):
        evaluation = self.recorder.timed(
            "adversary.evaluate", super().evaluate, candidate, **kwargs
        )
        counters = self.recorder.counters
        counters["adversary.evaluations"] += 1
        counters["adversary.sprt_trials"] += evaluation.trials
        counters["adversary.fixed_trials"] += kwargs["max_trials"]
        counters["adversary.count_evaluations"] += evaluation.engine == "count"
        return evaluation

    def certify(self, candidate, **kwargs):
        evaluation = self.recorder.timed(
            "adversary.certify", super().certify, candidate, **kwargs
        )
        self.recorder.counters["adversary.cert_trials"] += evaluation.trials
        return evaluation
