"""Repeated independent trials of a stochastic experiment.

Trial ``i`` runs on the generator spawned for index ``i`` from one root
:class:`~numpy.random.SeedSequence`, in this process (``workers`` unset
or 1) or on a :class:`concurrent.futures.ProcessPoolExecutor`
(``workers=k``), and results aggregate in trial-index order.  So the
returned :class:`TrialStats` is bit-identical for any worker count, with
or without a resilience policy.  Both trial loops live in
:mod:`repro.analysis.resilience`.

:func:`run_trials` additionally runs an engine that simulates many
replicas per call (``run_batch``) in one batched call.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from typing import Callable, List, Optional

import numpy as np

from ..results import register_record
from ..rng import spawn_seeds
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_seed
from .resilience import ResilienceConfig, _accepts_kw, run_resilient_trials
from .stats import bootstrap_ci, median_and_iqr, wilson_interval

#: Seed of the bootstrap in :meth:`TrialStats.summary`, so a summary is a
#: function of its values: a cached result equals its recomputation.
_SUMMARY_BOOTSTRAP_SEED = 0


@register_record
@dataclasses.dataclass
class TrialStats:
    """Aggregate over independent trials of one configuration.

    ``values`` holds the per-trial measurement (convergence round, say)
    for *successful* trials only; ``successes``/``trials`` count
    convergence outcomes.

    ``failed_trials``/``incomplete`` account for trials a resilience
    policy gave up on (retries exhausted after crashes, hangs, or
    exceptions; see :mod:`repro.analysis.resilience`): those trials are
    in ``trials`` but contributed neither a success nor a value.  A
    clean run always has ``failed_trials == 0`` and ``incomplete is
    False``.
    """

    trials: int
    successes: int
    values: List[float]
    failed_trials: int = 0
    incomplete: bool = False

    @property
    def success_rate(self) -> float:
        """Fraction of converged trials."""
        return self.successes / self.trials if self.trials else 0.0

    def success_interval(self, confidence: float = 0.95):
        """Wilson interval on the success rate."""
        return wilson_interval(self.successes, self.trials, confidence)

    @property
    def median(self) -> Optional[float]:
        """Median measurement over successful trials (None if none)."""
        if not self.values:
            return None
        return median_and_iqr(self.values)[0]

    def summary(self) -> dict:
        """A plain-dict summary suitable for tables and JSON export."""
        out = {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
        }
        if self.incomplete or self.failed_trials:
            out["failed_trials"] = self.failed_trials
            out["incomplete"] = self.incomplete
        if self.values:
            med, q25, q75 = median_and_iqr(self.values)
            out.update({"median": med, "q25": q25, "q75": q75})
            _, low, high = bootstrap_ci(self.values, rng=_SUMMARY_BOOTSTRAP_SEED)
            out.update({"ci_low": low, "ci_high": high})
        return out


def _default_success(result: "object") -> bool:
    """Convergence predicate: the result's ``converged`` attribute."""
    return bool(getattr(result, "converged"))


def _default_measure(result: "object") -> float:
    """Per-trial measurement: consensus_round, else rounds, else horizon."""
    value = getattr(result, "consensus_round", None)
    if value is None:
        value = getattr(result, "rounds_executed", None)
    if value is None:
        value = getattr(result, "total_rounds")
    return float(value)


def _check_picklable(workers: int, **callables) -> None:
    for name, value in callables.items():
        try:
            pickle.dumps(value)
        except Exception as exc:
            raise TypeError(
                f"workers={workers} requires {name} to be picklable so it "
                f"can cross the process boundary, but pickling failed: "
                f"{exc!r}.  Use a module-level function or a picklable "
                f"callable object instead of a lambda/closure, or drop "
                f"workers to run serially."
            ) from exc


def _aggregate(outcomes, telemetry: Telemetry) -> TrialStats:
    """Fold index-ordered ``(ok, value, ...)`` outcomes into TrialStats.

    ``None`` marks a trial the resilience policy gave up on.  The one
    place ``trials.completed``/``trials.succeeded`` are counted.
    """
    completed = [outcome for outcome in outcomes if outcome is not None]
    values = [float(outcome[1]) for outcome in completed if outcome[0]]
    telemetry.counter("trials.completed", len(completed))
    telemetry.counter("trials.succeeded", len(values))
    failed = len(outcomes) - len(completed)
    return TrialStats(
        trials=len(outcomes), successes=len(values), values=values,
        failed_trials=failed, incomplete=bool(failed),
    )


def repeat_trials(
    run_one: Callable[[np.random.Generator], "object"],
    trials: int,
    seed: Optional[int] = None,
    success: Callable[["object"], bool] = None,
    measure: Callable[["object"], float] = None,
    *,
    workers: Optional[int] = None,
    rng: RngLike = None,
    telemetry: Optional[Telemetry] = None,
    resilience: Optional[ResilienceConfig] = None,
    checkpoint_scope: str = "",
) -> TrialStats:
    """Run ``run_one`` on ``trials`` independent generators and aggregate.

    Parameters
    ----------
    run_one:
        Called once per trial with a fresh independent generator; returns
        any result object.  When it accepts a ``telemetry=`` keyword, the
        active recorder is threaded through.  Without ``resilience`` the
        first trial that raises ends the run with its exception.
    success:
        Predicate extracting convergence from a result; defaults to the
        result's ``converged`` attribute.
    measure:
        Extracts the per-trial measurement for successful trials; defaults
        to ``consensus_round`` when present, else ``rounds_executed``.
    workers:
        ``None`` or ``1`` runs in this process.  ``k > 1`` distributes
        trials over a process pool; trial ``i`` still runs on the
        generator spawned for index ``i`` and results aggregate in index
        order, so the statistics are bit-identical to the serial run
        regardless of the worker count.  ``run_one`` (and any
        non-default ``success`` / ``measure``) must then be picklable —
        module-level functions or callable objects, not lambdas; a
        :class:`TypeError` is raised otherwise.  Without ``resilience``
        a failing trial cancels the queued ones and its exception
        propagates (``BrokenProcessPool`` when a worker died).
    rng:
        Alternative spelling of the master seed (any
        :data:`~repro.types.RngLike`), reconciled with ``seed`` via
        :func:`repro.types.coerce_seed`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` recorder.
        In-process trials record into it directly, under
        ``worker=main``; pool workers aggregate locally and the parent
        merges their snapshots with ``worker=<pid>`` tags (plus a
        per-worker ``trials.worker_throughput`` gauge).  RNG-neutral:
        statistics are bit-identical with or without it.
    resilience:
        Fault-tolerance policy
        (:class:`~repro.analysis.resilience.ResilienceConfig`).  When
        set, failed/hung/crashed trials are retried with
        their *original* seeds (statistics stay bit-identical to a
        clean run), a broken process pool is rebuilt and only pending
        seeds resubmitted, and retry-exhausted trials degrade to
        explicit ``failed_trials``/``incomplete`` accounting on the
        returned :class:`TrialStats` instead of an exception.
        ``checkpoint_scope`` namespaces the checkpoint records when
        several trial batches share one file.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be a positive int, got {workers}")
    workers = workers or 1
    seed = coerce_seed(seed, rng)
    if success is None:
        success = _default_success
    if measure is None:
        measure = _default_measure
    if workers > 1:
        _check_picklable(workers, run_one=run_one, success=success, measure=measure)
    tele = ensure_telemetry(telemetry)
    with tele.phase("trials.repeat_trials", trials=trials, workers=workers):
        outcomes = run_resilient_trials(
            run_one, spawn_seeds(seed, trials), success, measure,
            workers=workers, config=resilience, telemetry=tele,
            seed=seed, checkpoint_scope=checkpoint_scope,
        )
    return _aggregate(outcomes, tele)


class _EngineTrial:
    """Picklable adapter: one trial = one ``runner.run(rng=...)`` call.

    A module-level class (unlike ``lambda g: runner.run(rng=g)``) survives
    the pickle round-trip to pool workers; the runner itself ships along
    as instance state.  The trial runner's recorder is threaded through to
    engines whose ``run`` accepts ``telemetry=``.
    """

    def __init__(self, runner: "object") -> None:
        self.runner = runner

    def __call__(
        self,
        generator: np.random.Generator,
        telemetry: Optional[Telemetry] = None,
    ) -> "object":
        if telemetry is not None and _accepts_kw(self.runner.run, "telemetry"):
            return self.runner.run(rng=generator, telemetry=telemetry)
        return self.runner.run(rng=generator)


def run_trials(
    runner: "object",
    trials: int,
    seed: Optional[int] = None,
    *,
    workers: Optional[int] = None,
    success: Callable[["object"], bool] = None,
    measure: Callable[["object"], float] = None,
    rng: RngLike = None,
    telemetry: Optional[Telemetry] = None,
    resilience: Optional[ResilienceConfig] = None,
    checkpoint_scope: str = "",
) -> TrialStats:
    """Monte-Carlo trials of an engine object, batched when it can batch.

    ``runner`` is an engine exposing ``run(rng=...)`` — e.g.
    :class:`~repro.protocols.FastSourceFilter` or
    :class:`~repro.protocols.FastSelfStabilizingSourceFilter`.  A serial
    call without a ``resilience`` policy, on a runner whose ``run_batch``
    takes its configuration (``can_batch``; a runner without that
    property is taken to — the fast engines report ``False`` for fault
    models, graphs and lossy SSF), simulates every trial in one
    ``runner.run_batch(trials, rng=seed)`` call, timed as
    ``trials.batch_seconds``.  The count engines' ``run_batch`` is
    spawn-mode: replica ``i`` runs on trial ``i``'s generator, so its
    statistics are bit-identical to the per-trial run.  The fast
    engines' draws from one shared stream: statistically equivalent and
    reproducible for a fixed ``(seed, trials)``, but not bit-identical.

    Every other call — ``workers > 1``, a ``resilience`` policy (one
    batched call has no per-trial unit to retry or checkpoint), or a
    runner that cannot batch — runs trial by trial through
    :func:`repeat_trials`, with the same ``rng``, ``telemetry`` and
    ``checkpoint_scope`` meaning.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    seed = coerce_seed(seed, rng)
    if (
        resilience is None
        and (workers is None or workers <= 1)
        and hasattr(runner, "run_batch")
        and getattr(runner, "can_batch", True)
    ):
        if success is None:
            success = _default_success
        if measure is None:
            measure = _default_measure
        tele = ensure_telemetry(telemetry)
        kwargs = {}
        if tele.enabled and _accepts_kw(runner.run_batch, "telemetry"):
            kwargs["telemetry"] = tele
        start = time.perf_counter()
        results = runner.run_batch(trials, rng=seed, **kwargs)
        tele.observe("trials.batch_seconds", time.perf_counter() - start)
        outcomes = []
        for result in results:
            ok = bool(success(result))
            outcomes.append((ok, measure(result) if ok else 0.0))
        return _aggregate(outcomes, tele)
    return repeat_trials(
        _EngineTrial(runner),
        trials,
        seed=seed,
        success=success,
        measure=measure,
        workers=workers,
        telemetry=telemetry,
        resilience=resilience,
        checkpoint_scope=checkpoint_scope,
    )
