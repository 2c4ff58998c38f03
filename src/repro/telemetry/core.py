"""Low-overhead metric/event recording for engines and trial runners.

The paper's analysis is phrased in per-round quantities — the fraction of
agents holding the correct opinion after each boosting sub-phase
(Theorem 4), the weak-opinion correctness probability at the end of
Phases 0/1 (Algorithm 1) — so the simulation stack exposes exactly those
as first-class metrics instead of ad-hoc prints.

Design constraints (enforced by tests and benchmarks):

* **RNG-neutral** — recording never draws from any generator, so a run
  produces bit-identical protocol results with telemetry on or off.
* **Near-free when disabled** — the module-level :data:`NULL_TELEMETRY`
  singleton answers ``enabled = False`` and every method is a no-op;
  hot loops guard batched work behind ``if telemetry.enabled``.
* **Pluggable sinks** — a :class:`Telemetry` recorder fans events out to
  any number of sinks (in-memory for tests, JSONL files, summary
  tables; see :mod:`repro.telemetry.sinks`).

Event vocabulary
----------------
``counter``     monotonically accumulated count (``trials``, ``flushes``)
``gauge``       last-write-wins scalar (``weak_fraction_correct``)
``histogram``   one sample of a distribution (``trial_seconds``)
``phase``       a named timer's elapsed seconds (``sf.phase01_weak``)
``round``       per-round protocol metrics (opinion counts, fractions)
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Sequence

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TelemetryEvent",
    "TelemetrySink",
    "as_sink",
    "ensure_telemetry",
]


class TelemetryEvent(NamedTuple):
    """One record flowing from a recorder to its sinks.

    ``tags`` may carry non-serializable payloads (e.g. the full opinion
    vector under ``"opinions"``); file sinks keep only scalar tags.
    """

    kind: str
    name: str
    value: Optional[float]
    round_index: Optional[int]
    tags: Optional[Dict[str, object]]


class TelemetrySink:
    """Interface sinks implement; also accepted: any object with ``handle``."""

    def handle(self, event: TelemetryEvent) -> None:
        """Consume one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources (file sinks override)."""


class ObserverSinkAdapter(TelemetrySink):
    """Wrap an ``observe(round_index, opinions)`` observer as a sink.

    The engines emit one ``round`` event per round whose tags carry the
    post-update opinion vector; the adapter calls ``observe`` with them,
    so ``Telemetry([observer])`` feeds an observer every round.
    """

    def __init__(self, observer: object) -> None:
        self.observer = observer

    def handle(self, event: TelemetryEvent) -> None:
        if event.kind != "round" or event.tags is None:
            return
        opinions = event.tags.get("opinions")
        if opinions is not None:
            self.observer.observe(event.round_index, opinions)


def as_sink(obj: object) -> TelemetrySink:
    """Coerce an observer or sink into a :class:`TelemetrySink`.

    Objects exposing ``handle(event)`` are used as-is; objects exposing
    only the legacy ``observe(round_index, opinions)`` are wrapped in an
    :class:`ObserverSinkAdapter`.
    """
    if hasattr(obj, "handle"):
        return obj  # type: ignore[return-value]
    if hasattr(obj, "observe"):
        return ObserverSinkAdapter(obj)
    raise TypeError(
        f"{type(obj).__name__} is neither a telemetry sink (handle) nor "
        f"an observer (observe)"
    )


class _PhaseTimer:
    """Context manager emitting one ``phase`` event on exit."""

    __slots__ = ("_telemetry", "_name", "_tags", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, tags) -> None:
        self._telemetry = telemetry
        self._name = name
        self._tags = tags

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._telemetry.emit(
            TelemetryEvent("phase", self._name, elapsed, None, self._tags)
        )


class _NullContext:
    """Reusable no-op context manager for the disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class Telemetry:
    """A recorder fanning counters/gauges/histograms/timers out to sinks.

    Recording is strictly observational: no method draws randomness or
    mutates anything the protocols read, so simulation results are
    bit-identical with any (or no) recorder attached.
    """

    #: Hot loops guard per-round work behind this flag.
    enabled: bool = True

    def __init__(self, sinks: Sequence[object] = ()) -> None:
        self.sinks: List[TelemetrySink] = [as_sink(s) for s in sinks]

    # -- plumbing ------------------------------------------------------
    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every sink."""
        for sink in self.sinks:
            sink.handle(event)

    def attach(self, sink: object) -> None:
        """Add one sink (coerced via :func:`as_sink`)."""
        self.sinks.append(as_sink(sink))

    def close(self) -> None:
        """Close every sink (flushes file sinks)."""
        for sink in self.sinks:
            sink.close()

    # -- recording API -------------------------------------------------
    def counter(self, name: str, inc: float = 1, **tags) -> None:
        """Accumulate ``inc`` onto the named counter."""
        self.emit(TelemetryEvent("counter", name, float(inc), None, tags or None))

    def gauge(self, name: str, value: float, **tags) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        self.emit(TelemetryEvent("gauge", name, float(value), None, tags or None))

    def observe(self, name: str, value: float, **tags) -> None:
        """Record one sample of the named distribution (histogram)."""
        self.emit(TelemetryEvent("histogram", name, float(value), None, tags or None))

    def phase(self, name: str, **tags):
        """Context manager timing a named phase (emits elapsed seconds)."""
        return _PhaseTimer(self, name, tags or None)

    def round(self, round_index: int, **metrics) -> None:
        """Record one round's protocol metrics (opinion counts etc.)."""
        self.emit(TelemetryEvent("round", "round", None, int(round_index), metrics))

    # -- cross-process aggregation -------------------------------------
    def merge_snapshot(self, snapshot: Dict[str, object], **tags) -> None:
        """Fold a worker's :meth:`MemorySink.snapshot` into this recorder.

        Used by the trial runners: each pool worker aggregates its own
        events into an in-memory sink, ships the plain-dict snapshot
        through the result pipe, and the parent merges it here (counters
        add, histogram samples and phase durations extend, gauges take
        the worker's last value).  ``tags`` (e.g. ``worker=<pid>``) are
        stamped onto every merged event so per-worker breakdowns survive
        the merge.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name, value, **tags)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value, **tags)
        for name, values in snapshot.get("histograms", {}).items():
            for value in values:
                self.observe(name, value, **tags)
        for name, durations in snapshot.get("phases", {}).items():
            for duration in durations:
                self.emit(
                    TelemetryEvent("phase", name, float(duration), None, tags or None)
                )
        rounds = snapshot.get("rounds_recorded", 0)
        if rounds:
            self.counter("rounds_recorded", rounds, **tags)


class NullTelemetry(Telemetry):
    """The disabled recorder: every operation is a no-op.

    A process-wide singleton (:data:`NULL_TELEMETRY`) so the disabled
    path allocates nothing; measured overhead on the batched-engine
    microbenchmark is the single ``enabled`` attribute check per round
    (see ``benchmarks/bench_telemetry_overhead.py``).
    """

    enabled = False

    def __init__(self) -> None:
        self.sinks = []

    def emit(self, event: TelemetryEvent) -> None:
        pass

    def attach(self, sink: object) -> None:
        raise TypeError(
            "cannot attach sinks to NULL_TELEMETRY; create a Telemetry([...])"
        )

    def counter(self, name: str, inc: float = 1, **tags) -> None:
        pass

    def gauge(self, name: str, value: float, **tags) -> None:
        pass

    def observe(self, name: str, value: float, **tags) -> None:
        pass

    def phase(self, name: str, **tags):
        return _NULL_CONTEXT

    def round(self, round_index: int, **metrics) -> None:
        pass

    def merge_snapshot(self, snapshot: Dict[str, object], **tags) -> None:
        pass


#: The process-wide disabled recorder.
NULL_TELEMETRY = NullTelemetry()


def ensure_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """The recorder to use for a ``telemetry=`` argument.

    Returns :data:`NULL_TELEMETRY` for ``None`` or a disabled recorder —
    the engine hot loops then skip all metric computation.
    """
    if telemetry is None or not telemetry.enabled:
        return NULL_TELEMETRY
    return telemetry
