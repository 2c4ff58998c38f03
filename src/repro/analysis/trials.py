"""Repeated independent trials of a stochastic experiment.

Two execution backends produce the *same* statistics:

* serial (default) — one trial per spawned generator, in trial order;
* ``workers=k`` — trials are farmed out to a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Each trial still runs
  on the generator spawned for its index from the same root
  :class:`~numpy.random.SeedSequence`, and results are aggregated in
  trial-index order, so the returned :class:`TrialStats` is bit-identical
  to the serial run for any worker count.

:func:`run_trials` additionally exploits engines that can simulate many
replicas per call (``run_batch``), trading the per-trial stream identity
for one batched draw.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import inspect
import os
import pickle
import time
from typing import Callable, List, Optional

import numpy as np

from ..results import register_record
from ..rng import spawn_generators, spawn_seeds
from ..telemetry import AggregatingSink, Telemetry, ensure_telemetry
from ..types import RngLike, coerce_seed
from .resilience import ResilienceConfig, run_resilient_trials
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

    ``failed_trials``/``incomplete`` account for trials the resilient
    backend gave up on (retries exhausted after crashes, hangs, or
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


def _accepts_telemetry(fn: Callable) -> bool:
    """Whether ``fn`` takes a ``telemetry=`` keyword (by signature)."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    return "telemetry" in signature.parameters


def _call_trial(run_one, generator, telemetry: Optional[Telemetry]):
    """Invoke one trial, threading telemetry through when accepted."""
    if telemetry is not None and _accepts_telemetry(run_one):
        return run_one(generator, telemetry=telemetry)
    return run_one(generator)


def _run_single_trial(run_one, seed_sequence, success, measure, collect=False):
    """One worker task: run trial, reduce to (success, measurement, snapshot).

    Module-level (not a closure) so :mod:`pickle` can ship it to pool
    workers; reducing inside the worker keeps large result payloads
    (opinion vectors, traces) out of the inter-process pipe.  With
    ``collect=True`` the worker aggregates the trial's telemetry into an
    in-memory sink and ships the plain-dict snapshot (plus its pid and
    the trial's wall time) back for the parent to merge.
    """
    snapshot = None
    if collect:
        sink = AggregatingSink()
        local = Telemetry([sink])
        start = time.perf_counter()
        result = _call_trial(run_one, np.random.default_rng(seed_sequence), local)
        local.observe("trials.trial_seconds", time.perf_counter() - start)
        snapshot = sink.snapshot()
        snapshot["pid"] = os.getpid()
    else:
        result = run_one(np.random.default_rng(seed_sequence))
    if success(result):
        return True, measure(result), snapshot
    return False, 0.0, snapshot


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


def _aggregate(outcomes, trials: int) -> TrialStats:
    """Fold ordered (success, measurement, ...) tuples into TrialStats."""
    successes = 0
    values: List[float] = []
    for outcome in outcomes:
        ok, value = outcome[0], outcome[1]
        if ok:
            successes += 1
            values.append(float(value))
    return TrialStats(trials=trials, successes=successes, values=values)


def _merge_worker_snapshots(telemetry: Telemetry, outcomes) -> None:
    """Fold worker snapshots into the parent recorder, per-worker tagged.

    Counters/gauges/histograms/phases merge with a ``worker=<pid>`` tag;
    afterwards one ``trials.worker_throughput`` gauge per worker reports
    its trials per second of busy time.
    """
    busy: dict = {}
    count: dict = {}
    for outcome in outcomes:
        snapshot = outcome[2]
        if not snapshot:
            continue
        pid = snapshot.pop("pid", None)
        telemetry.merge_snapshot(snapshot, worker=pid)
        seconds = sum(snapshot.get("histograms", {}).get("trials.trial_seconds", ()))
        busy[pid] = busy.get(pid, 0.0) + seconds
        count[pid] = count.get(pid, 0) + 1
    for pid, seconds in busy.items():
        if seconds > 0:
            telemetry.gauge(
                "trials.worker_throughput", count[pid] / seconds, worker=pid
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
        active recorder is threaded through.
    success:
        Predicate extracting convergence from a result; defaults to the
        result's ``converged`` attribute.
    measure:
        Extracts the per-trial measurement for successful trials; defaults
        to ``consensus_round`` when present, else ``rounds_executed``.
    workers:
        ``None`` or ``1`` runs serially.  ``k > 1`` distributes trials
        over a process pool; trial ``i`` still runs on the generator
        spawned for index ``i`` and results aggregate in index order, so
        the statistics are bit-identical to the serial run regardless of
        the worker count.  ``run_one`` (and any non-default ``success`` /
        ``measure``) must then be picklable — module-level functions or
        callable objects, not lambdas; a :class:`TypeError` is raised
        otherwise.
    rng:
        Alternative spelling of the master seed (any
        :data:`~repro.types.RngLike`), reconciled with ``seed`` via
        :func:`repro.types.coerce_seed`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` recorder.  Serial
        trials record into it directly; pool workers aggregate locally
        and the parent merges their snapshots with ``worker=<pid>`` tags
        (plus a per-worker ``trials.worker_throughput`` gauge).
        RNG-neutral: statistics are bit-identical with or without it.
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
    seed = coerce_seed(seed, rng)
    if success is None:
        success = _default_success
    if measure is None:
        measure = _default_measure
    tele = ensure_telemetry(telemetry)

    if resilience is not None:
        if workers is not None and workers > 1:
            _check_picklable(
                workers, run_one=run_one, success=success, measure=measure
            )
        seeds = spawn_seeds(seed, trials)
        with tele.phase(
            "trials.repeat_trials", trials=trials, workers=workers or 1
        ):
            outcomes, failed = run_resilient_trials(
                run_one, seeds, success, measure,
                workers=workers, config=resilience, telemetry=tele,
                seed=seed, checkpoint_scope=checkpoint_scope,
            )
        completed = [o for o in outcomes if o is not None]
        if tele.enabled:
            _merge_worker_snapshots(tele, completed)
        stats = _aggregate(completed, trials)
        stats.failed_trials = len(failed)
        stats.incomplete = bool(failed)
        if tele.enabled:
            tele.counter("trials.completed", trials - len(failed))
            tele.counter("trials.succeeded", stats.successes)
        return stats

    if workers is not None and workers > 1:
        _check_picklable(workers, run_one=run_one, success=success, measure=measure)
        seeds = spawn_seeds(seed, trials)
        pool_size = min(workers, trials)
        if tele.enabled:
            tele.gauge("trials.pool_size", pool_size)
        with tele.phase("trials.repeat_trials", trials=trials, workers=workers):
            with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
                futures = [
                    pool.submit(
                        _run_single_trial, run_one, s, success, measure,
                        tele.enabled,
                    )
                    for s in seeds
                ]
                outcomes = [f.result() for f in futures]  # index order
        if tele.enabled:
            _merge_worker_snapshots(tele, outcomes)
        stats = _aggregate(outcomes, trials)
        if tele.enabled:
            tele.counter("trials.completed", trials)
            tele.counter("trials.succeeded", stats.successes)
        return stats

    outcomes = []
    busy = 0.0
    with tele.phase("trials.repeat_trials", trials=trials, workers=1):
        for generator in spawn_generators(seed, trials):
            if tele.enabled:
                start = time.perf_counter()
                result = _call_trial(run_one, generator, tele)
                elapsed = time.perf_counter() - start
                busy += elapsed
                tele.observe("trials.trial_seconds", elapsed)
            else:
                result = run_one(generator)
            ok = success(result)
            outcomes.append((ok, measure(result) if ok else 0.0))
    stats = _aggregate(outcomes, trials)
    if tele.enabled:
        tele.counter("trials.completed", trials)
        tele.counter("trials.succeeded", stats.successes)
        if busy > 0:
            tele.gauge(
                "trials.worker_throughput", trials / busy, worker="main"
            )
    return stats


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
        if telemetry is not None and _accepts_telemetry(self.runner.run):
            return self.runner.run(rng=generator, telemetry=telemetry)
        return self.runner.run(rng=generator)


def run_trials(
    runner: "object",
    trials: int,
    seed: Optional[int] = None,
    *,
    workers: Optional[int] = None,
    batch: bool = True,
    success: Callable[["object"], bool] = None,
    measure: Callable[["object"], float] = None,
    rng: RngLike = None,
    telemetry: Optional[Telemetry] = None,
    resilience: Optional[ResilienceConfig] = None,
    checkpoint_scope: str = "",
) -> TrialStats:
    """Monte-Carlo trials of an engine object, fastest backend first.

    ``runner`` is an engine exposing ``run(rng=...)`` — e.g.
    :class:`~repro.protocols.FastSourceFilter` or
    :class:`~repro.protocols.FastSelfStabilizingSourceFilter`.  Backend
    selection:

    1. ``batch=True`` (default), serial, and the runner has a
       ``run_batch`` method that takes its configuration (a runner
       without a ``can_batch`` property is taken to; the fast engines
       report ``False`` for fault models, graphs and lossy SSF): all
       trials are simulated in one batched call
       (``runner.run_batch(trials, rng=seed)``).  Statistically
       equivalent to per-trial runs and reproducible for a fixed
       ``(seed, trials)``, but drawn from one shared stream — not
       bit-identical to the per-trial backends.
    2. ``workers > 1``: per-trial process pool via
       :func:`repeat_trials` — bit-identical to the serial per-trial run.
    3. Otherwise: serial per-trial loop, the :func:`repeat_trials`
       baseline.

    ``rng`` is the alternative master-seed spelling (reconciled with
    ``seed`` via :func:`repro.types.coerce_seed`); ``telemetry`` is
    threaded to the engine and the per-trial machinery exactly as in
    :func:`repeat_trials`.  A ``resilience`` policy is forwarded to
    :func:`repeat_trials` and forces the per-trial backend, since one
    batched ``run_batch`` call has no per-trial unit to retry or
    checkpoint.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    seed = coerce_seed(seed, rng)
    use_batch = (
        batch
        and resilience is None
        and (workers is None or workers <= 1)
        and hasattr(runner, "run_batch")
        and getattr(runner, "can_batch", True)
    )
    if use_batch:
        if success is None:
            success = _default_success
        if measure is None:
            measure = _default_measure
        tele = ensure_telemetry(telemetry)
        if tele.enabled:
            start = time.perf_counter()
            if _accepts_telemetry(runner.run_batch):
                results = runner.run_batch(trials, rng=seed, telemetry=tele)
            else:
                results = runner.run_batch(trials, rng=seed)
            tele.observe("trials.batch_seconds", time.perf_counter() - start)
        else:
            results = runner.run_batch(trials, rng=seed)
        outcomes = [(success(r), measure(r) if success(r) else 0.0) for r in results]
        stats = _aggregate(outcomes, trials)
        if tele.enabled:
            tele.counter("trials.completed", trials)
            tele.counter("trials.succeeded", stats.successes)
        return stats
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
