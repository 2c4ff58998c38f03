"""Concrete telemetry sinks: in-memory, JSONL file, and summary table."""

from __future__ import annotations

import json
import pathlib
from typing import Dict, IO, List, Optional, Union

from .core import TelemetryEvent, TelemetrySink

__all__ = ["AggregatingSink", "MemorySink", "JsonlSink", "SummarySink"]

PathLike = Union[str, pathlib.Path]


def _is_scalar(value: object) -> bool:
    return isinstance(value, (bool, int, float, str)) or value is None


def _key(event: TelemetryEvent) -> str:
    """Aggregation key: metric name plus sorted scalar tags.

    Non-scalar tag payloads (e.g. opinion vectors) identify nothing and
    are dropped from the key.
    """
    if not event.tags:
        return event.name
    parts = [
        f"{k}={v}" for k, v in sorted(event.tags.items()) if _is_scalar(v)
    ]
    if not parts:
        return event.name
    return f"{event.name}{{{','.join(parts)}}}"


class AggregatingSink(TelemetrySink):
    """Base sink folding the event stream into per-name aggregates.

    Counters accumulate, gauges keep the last value, histogram samples
    and phase durations are stored in full (they are per-trial /
    per-phase sized, not per-round), rounds are counted and the last one
    with tags is kept by reference: :attr:`last_round` builds its scalar
    dict only when read, so a round costs a count and an assignment.  The
    sink thus holds at most one round's array payload.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        self.phases: Dict[str, List[float]] = {}
        self.rounds_recorded: int = 0
        self._last_round: Optional[TelemetryEvent] = None

    def handle(self, event: TelemetryEvent) -> None:
        kind = event.kind
        # Rounds first: an engine run emits one per round.
        if kind == "round":
            self.rounds_recorded += 1
            if event.tags:
                self._last_round = event
        elif kind == "counter":
            key = _key(event)
            self.counters[key] = self.counters.get(key, 0.0) + event.value
        elif kind == "gauge":
            self.gauges[_key(event)] = event.value
        elif kind == "histogram":
            self.histograms.setdefault(_key(event), []).append(event.value)
        elif kind == "phase":
            self.phases.setdefault(_key(event), []).append(event.value)

    @property
    def last_round(self) -> Optional[Dict[str, object]]:
        """Scalar metrics of the last round event with tags, plus its
        ``round`` index (``None`` before any)."""
        event = self._last_round
        if event is None:
            return None
        scalars = {k: v for k, v in event.tags.items() if _is_scalar(v)}
        scalars["round"] = event.round_index
        return scalars

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict aggregate — picklable and JSON-serializable.

        This is the payload pool workers ship back to the parent for
        :meth:`repro.telemetry.Telemetry.merge_snapshot`.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: list(v) for k, v in self.histograms.items()},
            "phases": {k: list(v) for k, v in self.phases.items()},
            "rounds_recorded": self.rounds_recorded,
        }


class MemorySink(AggregatingSink):
    """Keeps aggregates *and* the raw event list — the test/debug sink.

    Round events retain only their scalar metrics (the opinion-vector
    payload is dropped so holding a sink does not pin large arrays).
    """

    def __init__(self) -> None:
        super().__init__()
        self.events: List[TelemetryEvent] = []

    def handle(self, event: TelemetryEvent) -> None:
        super().handle(event)
        if event.kind == "round" and event.tags:
            scalars = {k: v for k, v in event.tags.items() if _is_scalar(v)}
            event = TelemetryEvent(
                event.kind, event.name, event.value, event.round_index, scalars
            )
        self.events.append(event)

    def events_of(self, kind: str) -> List[TelemetryEvent]:
        """The recorded events of one kind, in arrival order."""
        return [e for e in self.events if e.kind == kind]


class JsonlSink(TelemetrySink):
    """Appends one JSON object per event to a file (or open stream).

    Only scalar tag values are serialized; array payloads such as the
    per-round opinion vector are summarized by the scalar metrics the
    engines emit alongside them (``num_correct``, ``fraction_correct``).
    """

    def __init__(self, target: Union[PathLike, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns_file = False
            self.path: Optional[pathlib.Path] = None
        else:
            self.path = pathlib.Path(target)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")
            self._owns_file = True

    def handle(self, event: TelemetryEvent) -> None:
        record: Dict[str, object] = {"kind": event.kind, "name": event.name}
        if event.value is not None:
            record["value"] = event.value
        if event.round_index is not None:
            record["round"] = event.round_index
        if event.tags:
            for key, value in event.tags.items():
                if _is_scalar(value) and key not in record:
                    record[key] = value
        self._file.write(json.dumps(record) + "\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()


class SummarySink(AggregatingSink):
    """Aggregates everything and renders a human-readable summary table."""

    def render(self) -> str:
        """The aggregate state as aligned text tables."""
        # Imported lazily: repro.analysis imports repro.telemetry via the
        # trial runners, so a module-level import would be circular.
        from ..analysis.tables import format_table

        sections: List[str] = []
        if self.counters:
            rows = [
                {"counter": name, "total": value}
                for name, value in sorted(self.counters.items())
            ]
            sections.append(format_table(rows, title="Counters"))
        if self.gauges:
            rows = [
                {"gauge": name, "value": value}
                for name, value in sorted(self.gauges.items())
            ]
            sections.append(format_table(rows, title="Gauges"))
        if self.phases:
            rows = []
            for name, durations in sorted(self.phases.items()):
                total = sum(durations)
                rows.append(
                    {
                        "phase": name,
                        "count": len(durations),
                        "total_s": total,
                        "mean_s": total / len(durations),
                    }
                )
            sections.append(format_table(rows, title="Phase timers"))
        if self.histograms:
            rows = []
            for name, values in sorted(self.histograms.items()):
                rows.append(
                    {
                        "histogram": name,
                        "count": len(values),
                        "mean": sum(values) / len(values),
                        "min": min(values),
                        "max": max(values),
                    }
                )
            sections.append(format_table(rows, title="Histograms"))
        if self.rounds_recorded:
            line = f"rounds recorded: {self.rounds_recorded}"
            last = self.last_round
            if last is not None:
                detail = ", ".join(f"{k}={v}" for k, v in sorted(last.items()))
                line += f"  (last: {detail})"
            sections.append(line)
        if not sections:
            return "telemetry: no events recorded"
        return "\n\n".join(sections)
