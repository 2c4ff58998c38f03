"""The trial loops: one in process, one on a process pool, with an
optional fault-tolerance policy (timeouts, retries, checkpoint/resume).

Every per-trial run of :func:`repro.analysis.repeat_trials` and
:func:`repro.analysis.run_trials` goes through :func:`run_resilient_trials`.
Without a policy (``resilience=None``) a run has no retries, no timeout
and no checkpoint, and the first failing trial raises.  With one, the
execution layer gets the fault tolerance the protocols have at the
model layer (SSF tolerates arbitrary adversarial state corruption,
Theorem 5):

* **Seed-preserving retries.**  A failed, timed-out, or crashed trial is
  resubmitted with its *original* :class:`~numpy.random.SeedSequence`,
  so the aggregate statistics of a recovered run are bit-identical to a
  clean run — retrying never changes what is measured, only whether it
  gets measured.
* **Pool recovery.**  When the process pool breaks (a worker was
  SIGKILLed, segfaulted, or ``os._exit``-ed), the pool is rebuilt and
  only the still-pending seeds are resubmitted; completed results are
  never discarded.
* **Graceful degradation.**  A trial whose retries are exhausted is
  recorded in ``TrialStats.failed_trials`` (with ``incomplete=True``)
  instead of raising, so a 10 000-trial sweep with one poisoned seed
  still returns 9 999 measurements plus explicit accounting.
* **Checkpoint/resume.**  With ``checkpoint=`` set, one JSONL record is
  appended per completed trial; a restarted run skips the already-done
  seeds and produces statistics identical to an uninterrupted run.
* **Deterministic chaos.**  :class:`ChaosTrial` wraps any trial callable
  and injects crashes, hangs, or exceptions on *scheduled* trial
  indices/attempts — the harness used to test all of the above, and
  available to users who want to chaos-test their own pipelines.

Telemetry counters (all under ``resilience.*``; see
``docs/resilience.md``): ``retries``, ``timeouts``, ``trial_errors``,
``crashes``, ``pool_rebuilds``, ``failed_trials``, ``checkpoint_skipped``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import inspect
import json
import os
import pathlib
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from queue import Empty, SimpleQueue
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Union

import numpy as np

from ..exceptions import ConfigurationError, ReproError
from ..telemetry import NULL_TELEMETRY, AggregatingSink, Telemetry

__all__ = [
    "ChaosError",
    "ChaosSpec",
    "ChaosTrial",
    "ResilienceConfig",
    "TrialInfo",
    "TrialOutcome",
    "run_resilient_trials",
]

PathLike = Union[str, pathlib.Path]

#: How often (seconds) the pool loop wakes to scan for expired deadlines.
_POLL_SECONDS = 0.05


class ChaosError(ReproError, RuntimeError):
    """The deterministic failure :class:`ChaosTrial` injects on schedule."""


class TrialInfo(NamedTuple):
    """Identity of one trial attempt, passed to chaos-aware callables.

    Under a resilience policy the trial loops forward this as a
    ``trial_info=`` keyword to any trial callable whose signature
    accepts it; ordinary callables, and every run without a policy,
    never see it.
    """

    index: int
    attempt: int


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """One scheduled fault: what to inject and on how many attempts.

    ``kind`` is one of ``"raise"`` (raise :class:`ChaosError`),
    ``"hang"`` (sleep ``ChaosTrial.hang_seconds`` before running, to
    trip a trial timeout), ``"crash"`` (``os._exit`` — the worker dies
    without cleanup), or ``"sigkill"`` (the worker SIGKILLs itself, the
    closest stand-in for an external OOM kill).  The fault fires while
    ``attempt < times``, so ``times=1`` (the default) faults only the
    first attempt and lets the seed-preserving retry succeed.
    """

    kind: str
    times: int = 1

    _KINDS = ("raise", "hang", "crash", "sigkill")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"chaos kind must be one of {self._KINDS}, got {self.kind!r}"
            )
        if self.times < 1:
            raise ConfigurationError(
                f"chaos times must be positive, got {self.times}"
            )


class ChaosTrial:
    """Deterministic fault-injection wrapper around a trial callable.

    ``schedule`` maps trial indices to a fault — either a bare kind
    string (``"crash"``) or a full :class:`ChaosSpec`.  Off-schedule
    indices (and every call made without ``trial_info``, as in any run
    without a resilience policy) pass straight through to ``run_one``,
    so the same wrapper object produces the *unfaulted* baseline too.

    Picklable whenever ``run_one`` is, so it crosses the ``workers=``
    process boundary like any other trial callable.
    """

    def __init__(
        self,
        run_one: Callable,
        schedule: Dict[int, Union[str, ChaosSpec]],
        hang_seconds: float = 3600.0,
    ) -> None:
        self.run_one = run_one
        self.schedule = {
            int(index): spec if isinstance(spec, ChaosSpec) else ChaosSpec(spec)
            for index, spec in schedule.items()
        }
        self.hang_seconds = float(hang_seconds)

    def __call__(
        self,
        rng: np.random.Generator,
        telemetry: Optional[Telemetry] = None,
        trial_info: Optional[TrialInfo] = None,
    ):
        if trial_info is not None:
            spec = self.schedule.get(trial_info.index)
            if spec is not None and trial_info.attempt < spec.times:
                self._inject(spec, trial_info)
        if telemetry is not None and _accepts_kw(self.run_one, "telemetry"):
            return self.run_one(rng, telemetry=telemetry)
        return self.run_one(rng)

    def _inject(self, spec: ChaosSpec, info: TrialInfo) -> None:
        if spec.kind == "raise":
            raise ChaosError(
                f"scheduled chaos: trial {info.index} attempt {info.attempt}"
            )
        if spec.kind == "hang":
            time.sleep(self.hang_seconds)
        elif spec.kind == "crash":
            os._exit(13)
        elif spec.kind == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance policy for :func:`repro.analysis.repeat_trials`.

    ``trial_timeout``
        Seconds one trial may *run* before it is declared hung; the pool
        is rebuilt (the hung worker is killed) and the trial's seed is
        resubmitted.  Enforced only on the ``workers > 1`` backend — a
        serial run has no second process to watch the clock from.
    ``retries``
        How many times one trial may be resubmitted (after an exception,
        a timeout, or a pool-breaking crash) before it is recorded as
        permanently failed.  Every retry reuses the trial's original
        ``SeedSequence``.
    ``checkpoint``
        JSONL path; one record is appended per completed trial and a
        restarted run skips seeds already recorded for the same
        ``(seed, trials, scope)``.  Requires a reproducible integer
        master seed.
    """

    trial_timeout: Optional[float] = None
    retries: int = 2
    checkpoint: Optional[PathLike] = None

    def __post_init__(self) -> None:
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ConfigurationError(
                f"trial_timeout must be positive, got {self.trial_timeout}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be non-negative, got {self.retries}"
            )


def _accepts_kw(fn: Callable, name: str) -> bool:
    """Whether ``fn``'s signature accepts the ``name=`` keyword."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    return name in signature.parameters


class TrialOutcome(NamedTuple):
    """One completed trial, as the loops hand it back.

    ``value`` is the measurement (0.0 when the trial did not succeed).
    ``worker`` is ``"main"`` for an in-process trial, the pool worker's
    pid otherwise, and ``None`` for a trial restored from a checkpoint;
    ``snapshot`` is a pool worker's telemetry for the trial.
    """

    ok: bool
    value: float
    worker: object = None
    seconds: float = 0.0
    snapshot: Optional[dict] = None


def _run_trial(
    run_one, seed_sequence, success, measure, telemetry: Telemetry,
    trial_info: Optional[TrialInfo],
) -> TrialOutcome:
    """Run one trial in this process and reduce it to its outcome.

    ``telemetry`` (when enabled) and ``trial_info`` (when set) go to a
    ``run_one`` whose signature takes them; the trial's wall time is
    recorded as ``trials.trial_seconds``.
    """
    kwargs = {}
    if trial_info is not None and _accepts_kw(run_one, "trial_info"):
        kwargs["trial_info"] = trial_info
    if telemetry.enabled and _accepts_kw(run_one, "telemetry"):
        kwargs["telemetry"] = telemetry
    start = time.perf_counter()
    result = run_one(np.random.default_rng(seed_sequence), **kwargs)
    seconds = time.perf_counter() - start
    telemetry.observe("trials.trial_seconds", seconds)
    ok = bool(success(result))
    return TrialOutcome(ok, measure(result) if ok else 0.0, "main", seconds)


def _pool_trial(
    run_one, seed_sequence, success, measure, trial_info, collect: bool
) -> TrialOutcome:
    """One pool task: :func:`_run_trial` in a worker process.

    Reducing inside the worker keeps large results (opinion vectors,
    traces) out of the result pipe.  With ``collect`` the trial records
    into a local sink whose snapshot ships back for the parent to merge.
    """
    sink = AggregatingSink()
    outcome = _run_trial(
        run_one, seed_sequence, success, measure,
        Telemetry([sink]) if collect else NULL_TELEMETRY, trial_info,
    )
    return outcome._replace(
        worker=os.getpid(), snapshot=sink.snapshot() if collect else None
    )


class _Checkpoint:
    """Append-only JSONL ledger of completed trials.

    One record per completed trial::

        {"v": 1, "seed": 7, "trials": 64, "scope": "", "index": 3,
         "ok": true, "value": 12.0}

    Records are scoped by ``(seed, trials, scope)`` so several trial
    batches (e.g. the multiple ``_trials`` calls of one experiment) can
    share a single file.  Failed trials are *not* recorded — a resumed
    run retries them.
    """

    def __init__(
        self,
        path: PathLike,
        seed: Optional[int],
        trials: int,
        scope: str = "",
    ) -> None:
        if seed is None:
            raise ConfigurationError(
                "checkpoint= requires a reproducible integer master seed; "
                "a run seeded from OS entropy cannot be resumed"
            )
        self.path = pathlib.Path(path)
        self.seed = int(seed)
        self.trials = int(trials)
        self.scope = str(scope)
        self.completed: Dict[int, TrialOutcome] = {}
        self._file = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"corrupt checkpoint line in {self.path}: {line[:80]!r}"
                ) from exc
            if (
                record.get("v") != 1
                or record.get("seed") != self.seed
                or record.get("trials") != self.trials
                or record.get("scope", "") != self.scope
            ):
                continue
            index = int(record["index"])
            if 0 <= index < self.trials:
                self.completed[index] = TrialOutcome(
                    bool(record["ok"]), float(record["value"])
                )

    def record(self, index: int, ok: bool, value: float) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(
            json.dumps(
                {
                    "v": 1,
                    "seed": self.seed,
                    "trials": self.trials,
                    "scope": self.scope,
                    "index": index,
                    "ok": bool(ok),
                    "value": float(value),
                }
            )
            + "\n"
        )
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, including workers stuck in a hung trial.

    ``shutdown(wait=False)`` alone would leave a hung worker running
    forever (its task never finishes); terminating the worker processes
    is the only way to reclaim them.  ``_processes`` is private but has
    been stable across every supported CPython, and a broken pool may
    have already reaped it — hence the defensive access.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        if process.is_alive():
            process.terminate()
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in list(processes.values()):
        process.join(timeout=5.0)


def run_resilient_trials(
    run_one,
    seeds: List[np.random.SeedSequence],
    success,
    measure,
    *,
    workers: int,
    config: Optional[ResilienceConfig],
    telemetry: Telemetry,
    seed: Optional[int] = None,
    checkpoint_scope: str = "",
) -> List[Optional[TrialOutcome]]:
    """Run one trial per seed: in process for ``workers == 1``, else on a pool.

    ``config`` is the resilience policy.  ``None`` means no retries, no
    timeout, no checkpoint and no ``trial_info=``: the first trial that
    fails raises its own exception (``BrokenProcessPool`` when a pool
    worker died).  Returns ``outcomes[i]`` for trial ``i``, ``None``
    where the policy gave up on the trial.  With telemetry on, pool
    snapshots merge under a ``worker=<pid>`` tag and every worker
    (``main`` in process) gets a ``trials.worker_throughput`` gauge.
    """
    results: Dict[int, TrialOutcome] = {}
    checkpoint = None
    if config is not None and config.checkpoint is not None:
        checkpoint = _Checkpoint(
            config.checkpoint, seed, len(seeds), scope=checkpoint_scope
        )
        results.update(checkpoint.completed)
        if checkpoint.completed:
            telemetry.counter(
                "resilience.checkpoint_skipped", len(checkpoint.completed)
            )
    try:
        if workers > 1:
            _pool_loop(
                run_one, seeds, success, measure, workers,
                config, telemetry, results, checkpoint,
            )
        else:
            _serial_loop(
                run_one, seeds, success, measure,
                config, telemetry, results, checkpoint,
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    if len(results) < len(seeds):
        telemetry.counter("resilience.failed_trials", len(seeds) - len(results))
    outcomes = [results.get(i) for i in range(len(seeds))]
    if telemetry.enabled:
        _report_workers(telemetry, outcomes)
    return outcomes


def _record(results, checkpoint, index: int, outcome: TrialOutcome) -> None:
    results[index] = outcome
    if checkpoint is not None:
        checkpoint.record(index, outcome.ok, outcome.value)


def _serial_loop(
    run_one, seeds, success, measure, config, telemetry, results, checkpoint
) -> None:
    """In-process trials, recording straight into the caller's recorder.

    Under a policy a trial that raises is retried on its seed; there is
    no timeout, since a serial run has no second process to watch the
    clock from.  Without a policy the exception propagates.
    """
    retries = 0 if config is None else config.retries
    for index, seed_sequence in enumerate(seeds):
        if index in results:
            continue
        for attempt in range(retries + 1):
            info = None if config is None else TrialInfo(index, attempt)
            try:
                outcome = _run_trial(
                    run_one, seed_sequence, success, measure, telemetry, info
                )
            except Exception:
                if config is None:
                    raise
                telemetry.counter("resilience.trial_errors")
                if attempt < retries:
                    telemetry.counter("resilience.retries")
            else:
                _record(results, checkpoint, index, outcome)
                break


def _pool_loop(
    run_one, seeds, success, measure, workers, config, telemetry,
    results, checkpoint,
) -> None:
    """Trials on a process pool, one task each, finishing in any order.

    Without a policy every trial is queued at once.  The first failure
    ends the run: the pool is torn down with the queued trials cancelled
    and the trial's exception propagates.

    Under a policy submission is *windowed*: at most ``pool_size`` tasks
    are outstanding, refilled as trials complete.  The window buys
    precise failure accounting — when the pool breaks, the crashed trial
    is necessarily among the outstanding tasks, so only those are
    charged an attempt while every queued trial resubmits for free.  A
    trial that raises is charged and requeued.  A broken pool, or a
    trial *running* past ``trial_timeout``, ends the round: the pool is
    torn down — killing the hung or orphaned workers, the only way to
    reclaim them — and a fresh pool runs what is still pending.
    """
    collect = telemetry.enabled
    timeout = None if config is None else config.trial_timeout
    attempts = {i: 0 for i in range(len(seeds)) if i not in results}
    failed: Set[int] = set()

    def charge(index: int, counter: str) -> None:
        attempts[index] += 1
        telemetry.counter(counter)
        if attempts[index] > config.retries:
            failed.add(index)
        else:
            telemetry.counter("resilience.retries")

    pool = None
    try:
        while True:
            queue = [  # popped from the end: lowest index first
                i for i in sorted(attempts, reverse=True)
                if i not in results and i not in failed
            ]
            if not queue:
                return
            pool_size = min(workers, len(queue))
            window = len(queue) if config is None else pool_size
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=pool_size)
            telemetry.gauge("trials.pool_size", pool_size)
            finished: SimpleQueue = SimpleQueue()
            outstanding: Dict[object, int] = {}
            running_since: Dict[object, float] = {}
            broken, expired = False, []
            while queue or outstanding:
                while queue and len(outstanding) < window:
                    index = queue[-1]
                    info = (
                        None if config is None
                        else TrialInfo(index, attempts[index])
                    )
                    try:
                        future = pool.submit(
                            _pool_trial, run_one, seeds[index],
                            success, measure, info, collect,
                        )
                    except BrokenProcessPool:
                        if config is None:
                            raise
                        broken = True
                        break
                    outstanding[future] = queue.pop()
                    future.add_done_callback(finished.put)
                if broken:
                    break
                try:
                    future = finished.get(timeout=_POLL_SECONDS)
                except Empty:
                    pass
                else:
                    index = outstanding[future]
                    try:
                        outcome = future.result()
                    except concurrent.futures.BrokenExecutor:
                        if config is None:
                            raise
                        broken = True
                        break
                    except Exception:
                        if config is None:
                            raise
                        charge(index, "resilience.trial_errors")
                        if index not in failed:
                            queue.append(index)
                    else:
                        _record(results, checkpoint, index, outcome)
                    del outstanding[future]
                if timeout is not None:
                    now = time.monotonic()
                    for future in outstanding:
                        if future not in running_since and future.running():
                            running_since[future] = now
                    expired = [
                        f for f in outstanding
                        if not f.done()
                        and now - running_since.get(f, now) > timeout
                    ]
                    if expired:
                        break
            if broken or expired:
                # The culprit of a broken pool cannot be identified, but
                # it is among the outstanding tasks: charge those that did
                # not finish.  A timeout charges only the expired tasks.
                for future, index in outstanding.items():
                    if (
                        future.done() and not future.cancelled()
                        and future.exception() is None
                    ):
                        _record(results, checkpoint, index, future.result())
                    elif broken:
                        charge(index, "resilience.crashes")
                    elif future in expired:
                        charge(index, "resilience.timeouts")
                _kill_pool(pool)
                telemetry.counter("resilience.pool_rebuilds")
            else:
                pool.shutdown(wait=True)
            pool = None
    finally:
        if pool is not None:
            _kill_pool(pool)


def _report_workers(telemetry: Telemetry, outcomes) -> None:
    """Merge pool snapshots, tagged ``worker=<pid>``, and gauge each
    worker's trials per second of busy time.

    In-process trials recorded into ``telemetry`` as they ran and count
    as worker ``main``; a trial restored from a checkpoint ran nowhere.
    """
    busy: Dict[object, List[float]] = {}
    for outcome in outcomes:
        if outcome is None or outcome.worker is None:
            continue
        if outcome.snapshot is not None:
            telemetry.merge_snapshot(outcome.snapshot, worker=outcome.worker)
        busy.setdefault(outcome.worker, []).append(outcome.seconds)
    for worker, seconds in busy.items():
        if sum(seconds) > 0:
            telemetry.gauge(
                "trials.worker_throughput", len(seconds) / sum(seconds),
                worker=worker,
            )
