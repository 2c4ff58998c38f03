"""In-process job ledger for the run service.

Every request the server accepts becomes a :class:`Job`: submitted jobs
run on the server's executor and progress through ``pending`` →
``running`` → ``done``/``failed``.  The :class:`JobStore` is the
thread-safe ledger the HTTP handlers and the executor callbacks share;
``GET /jobs/<id>`` renders :meth:`Job.to_dict`.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from typing import Dict, List, Optional

__all__ = ["Job", "JobStore", "JOB_STATES"]

JOB_STATES = ("pending", "running", "done", "failed")


@dataclasses.dataclass
class Job:
    """One unit of server-side work and everything it produced.

    ``result`` is the JSON envelope the matching ``execute_*`` function
    returned; ``telemetry`` is the snapshot of the job's
    :class:`~repro.telemetry.AggregatingSink` once the job finished.
    """

    id: str
    kind: str
    request: Dict[str, object]
    status: str = "pending"
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    telemetry: Optional[Dict[str, object]] = None
    created: float = dataclasses.field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view served by ``GET /jobs/<id>``."""
        out: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "request": self.request,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }
        if self.finished is not None and self.started is not None:
            out["seconds"] = self.finished - self.started
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        return out


class JobStore:
    """Thread-safe registry of every job this server has accepted."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._counter = itertools.count(1)

    def create(self, kind: str, request: Dict[str, object]) -> Job:
        """Register a fresh ``pending`` job and return it."""
        with self._lock:
            job = Job(id=f"job-{next(self._counter)}", kind=kind, request=request)
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def mark_running(self, job: Job) -> None:
        with self._lock:
            job.status = "running"
            job.started = time.time()

    def mark_done(
        self,
        job: Job,
        result: Dict[str, object],
        telemetry: Optional[Dict[str, object]] = None,
    ) -> None:
        with self._lock:
            job.status = "done"
            job.result = result
            job.telemetry = telemetry
            job.finished = time.time()

    def mark_failed(self, job: Job, error: str) -> None:
        with self._lock:
            job.status = "failed"
            job.error = error
            job.finished = time.time()

    def list(self) -> List[Dict[str, object]]:
        """Summaries of every job, oldest first."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.created)
            return [
                {"id": j.id, "kind": j.kind, "status": j.status}
                for j in jobs
            ]

    def counts(self) -> Dict[str, int]:
        """Job counts by state (for ``/health``)."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            counts["total"] = len(self._jobs)
            return counts
