"""Experiment framework: outcomes, checks, and the Experiment base class."""

from __future__ import annotations

import abc
import dataclasses
import pickle
import time
from typing import Dict, List, Optional

from ..analysis import (
    ResilienceConfig,
    TrialStats,
    format_table,
    repeat_trials,
    run_trials,
)
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_seed


@dataclasses.dataclass
class CheckResult:
    """One machine-checked shape assertion.

    ``name`` states the paper claim being checked; ``detail`` records the
    measured quantity so failures are diagnosable from the rendered
    outcome alone.
    """

    name: str
    passed: bool
    detail: str = ""


@dataclasses.dataclass
class ExperimentOutcome:
    """Everything one experiment run produced."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]]
    checks: List[CheckResult]
    notes: str = ""
    wall_seconds: Optional[float] = None
    #: Machine-readable reproduction aids that are not result rows —
    #: e.g. the per-scenario spawned seeds of EXT2's churn section, so
    #: any single row can be rerun in isolation.
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """All shape checks passed."""
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> List[CheckResult]:
        """The checks that did not pass."""
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        """Human-readable report: table + per-check verdicts."""
        lines = [format_table(self.rows, title=f"{self.experiment_id}: {self.title}")]
        if self.notes:
            lines.append(self.notes)
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            suffix = f"  ({check.detail})" if check.detail else ""
            lines.append(f"  [{mark}] {check.name}{suffix}")
        if self.wall_seconds is not None:
            lines.append(f"  wall time: {self.wall_seconds:.2f}s")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (see ``analysis.write_json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "notes": self.notes,
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "rows": self.rows,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "metadata": self.metadata,
        }


class Experiment(abc.ABC):
    """One reproducible experiment from the DESIGN.md index.

    Subclasses set ``experiment_id``, ``title`` and ``claim`` and
    implement :meth:`run`.  ``scale`` is either ``"quick"`` (seconds,
    CI-friendly, smaller grids) or ``"full"`` (the benchmark-harness
    grids recorded in EXPERIMENTS.md).
    """

    experiment_id: str = "?"
    title: str = ""
    claim: str = ""

    #: Process-pool size for Monte-Carlo trials (``None`` = serial); set
    #: by :func:`~repro.experiments.run_suite` / the CLI ``--workers``
    #: flag before :meth:`run` is called.
    workers: Optional[int] = None

    #: Active recorder for the current :meth:`run` (``NULL_TELEMETRY``
    #: outside of one); :meth:`_trials` / :meth:`_engine_trials` thread it
    #: through to the trial runners and engines.
    telemetry: Optional[Telemetry] = None

    #: Fault-tolerance policy for Monte-Carlo trials (``None`` = the
    #: legacy fail-fast backends); set by
    #: :func:`~repro.experiments.run_suite` / the CLI
    #: ``--trial-timeout/--retries/--checkpoint`` flags.  Statistics are
    #: bit-identical to an unfaulted run whenever every trial eventually
    #: completes (retries reuse the original seeds).
    resilience: Optional[ResilienceConfig] = None

    #: Simulation backend for experiments that go through
    #: :meth:`_engine_handle`: ``"fast"`` (per-agent, O(n) per trial) or
    #: ``"count"`` (count-level, O(|Sigma|) per transition — same law,
    #: any n).  Set by the CLI ``experiment --engine`` flag.
    engine: str = "fast"

    def run(
        self,
        scale: str = "full",
        seed: int = 0,
        rng: RngLike = None,
        telemetry: Optional[Telemetry] = None,
    ) -> ExperimentOutcome:
        """Execute the experiment and return its outcome.

        ``seed`` and ``rng`` are alternative spellings of the master seed
        (see :func:`repro.types.coerce_seed`); ``telemetry`` records the
        experiment's wall time (an ``experiment.<id>`` phase), its trial
        throughput, and whatever the underlying engines emit.  The
        measured outcome is bit-identical with telemetry on or off.
        """
        resolved = coerce_seed(seed if seed != 0 else None, rng)
        if resolved is None:
            resolved = 0
        tele = ensure_telemetry(telemetry)
        self.telemetry = tele
        self._trial_batch = 0
        start = time.perf_counter()
        try:
            with tele.phase(
                f"experiment.{self.experiment_id}", scale=scale
            ):
                outcome = self._execute(scale=scale, seed=resolved)
        finally:
            self.telemetry = None
        outcome.wall_seconds = time.perf_counter() - start
        if tele.enabled:
            tele.counter("experiments.completed")
            tele.gauge(
                "experiments.wall_seconds",
                outcome.wall_seconds,
                experiment=self.experiment_id,
            )
        return outcome

    @abc.abstractmethod
    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        """Produce the outcome (subclass hook behind :meth:`run`)."""

    def _trials(
        self,
        run_one,
        trials: int,
        seed: Optional[int] = None,
        success=None,
        measure=None,
    ) -> TrialStats:
        """:func:`repeat_trials` honoring :attr:`workers`.

        Trial statistics are bit-identical for any worker count.  A
        ``run_one`` that cannot cross a process boundary (lambdas,
        closures over live engines) silently degrades to the serial
        backend rather than failing the experiment.
        """
        workers = self.workers
        if workers is not None and workers > 1:
            try:
                pickle.dumps((run_one, success, measure))
            except Exception:
                workers = None
        return repeat_trials(
            run_one, trials, seed=seed, success=success, measure=measure,
            workers=workers, telemetry=self.telemetry,
            resilience=self.resilience,
            checkpoint_scope=self._next_scope(),
        )

    def _engine_trials(
        self,
        runner,
        trials: int,
        seed: Optional[int] = None,
        success=None,
        measure=None,
    ) -> TrialStats:
        """:func:`run_trials` honoring :attr:`workers`.

        The rows are the same for any :attr:`workers` and with or
        without a resilience policy: trial ``i`` runs on trial ``i``'s
        generator whether it runs in process, on the pool, or in a
        count engine's spawn-mode ``run_batch``.
        """
        return run_trials(
            runner, trials, seed=seed, workers=self.workers,
            success=success, measure=measure, telemetry=self.telemetry,
            resilience=self.resilience,
            checkpoint_scope=self._next_scope(),
        )

    def _engine_handle(self, config, delta, protocol: str = "sf", **kwargs):
        """Registry handle for the backend selected by :attr:`engine`.

        Every handle exposes ``run(rng=..., telemetry=...)``, a
        ``schedule`` attribute and success/round reporting through the
        same :class:`~repro.results.RunReport` seam, so experiment code
        is backend-agnostic (see :func:`repro.engines.create_engine`).
        """
        from ..engines import create_engine

        return create_engine(self.engine, protocol, config, delta, **kwargs)

    def _next_scope(self) -> str:
        """Checkpoint scope for the next trial batch of this run.

        ``_execute`` is deterministic, so the batch counter assigns the
        same scope to the same batch on a resumed run — which is what
        lets several batches share one checkpoint file.
        """
        index = getattr(self, "_trial_batch", 0)
        self._trial_batch = index + 1
        return f"{self.experiment_id}/{index}"

    def _outcome(
        self,
        rows: List[Dict[str, object]],
        checks: List[CheckResult],
        notes: str = "",
        metadata: Optional[Dict[str, object]] = None,
    ) -> ExperimentOutcome:
        return ExperimentOutcome(
            experiment_id=self.experiment_id,
            title=self.title,
            rows=rows,
            checks=checks,
            notes=notes,
            metadata=metadata or {},
        )

    @staticmethod
    def _validate_scale(scale: str) -> str:
        if scale not in ("quick", "full"):
            raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
        return scale
