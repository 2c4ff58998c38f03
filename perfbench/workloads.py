"""The benchmark's engine workloads: ``exact-rounds``, ``fast-trials``, ``certify``.

Each workload builds its inputs from the seed and has a fixed list of
short *calls* of a few kinds, which a run cycles through for its
measured seconds: call ``i`` always runs the same inputs for a given
seed.  The workload's *operation* needs ``per_op[kind]`` calls of each
kind, so its end-to-end latency is the sum over kinds of that many times
the kind's median call time in the run.  Calls are kept short (a pass
through the list takes one to three seconds) so a run holds ten or more
calls of every kind.

The host is shared: for tens of seconds at a time it runs 30-40% slower,
which no statistic over one run's calls removes.  So every call time is
scaled to a reference speed: ``reference_loop`` runs before and after
each call, and the call's time is multiplied by the loop's typical time
(``REFERENCE_S``, plus ``GATHER_REFERENCE_S`` for workloads that scale
by the loop with its gather part) over the mean of those two loop times.
A change to the program leaves the loop's own time alone.

Every call's outputs are checked, and the cheapest call of the first
pass is replayed at the end of the run, which must give identical
outputs.  In a traced run each call runs twice on the same inputs,
untraced then traced; the two must agree exactly, because telemetry and
the timing wrappers must not change what the program computes.

Sizes follow the regimes of Boczkowski et al., *Limits for rumor
spreading in stochastic populations*: round counts grow like
delta*n/(h*s^2), so small-n agent-level runs and large-n phase-exact runs
load different code (README.md has why each workload exists).
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from stats import op_latency

__all__ = ["ENGINE_WORKLOADS", "op_seed"]


def op_seed(seed: int, *path: int) -> int:
    """An integer seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def peak_rss_mb() -> float:
    """High-water resident set size of this process or of any child it
    waited for, such as a finished pool worker (Linux: KiB units)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


#: Seconds ``reference_loop`` typically takes on the 2-vCPU VM the
#: benchmark was written on (median 2.2-2.5 ms), so scaled times read
#: close to plain times there.
REFERENCE_S = 2.5e-3
#: The same for the loop's gather part (median 6.6 ms).
GATHER_REFERENCE_S = 6.5e-3

# The gather part's inputs: an 8-regular neighbour table on 256 agents.
_GATHER_RNG = np.random.default_rng(0)
_DEGREES = np.full(256, 8)
_STARTS = np.arange(256) * 8
_NEIGHBOURS = np.arange(2048) % 256


def reference_loop(gather: bool = False) -> float:
    """Seconds taken by a fixed mix of interpreted Python and small NumPy
    calls, the kind of work the program does.  Run beside the measured
    calls, it tracks how fast the shared host is running at the time.

    ``gather`` adds many small random draws and index gathers, the shape
    of per-round neighbour sampling.  Agent-level and count-engine calls
    slow down more than the plain loop when the host is busy; with the
    gather part the scaled times of those calls spread about half as
    much over an 8-minute calibration (0.03-0.06 against 0.09-0.11 in
    30-second windows), while phase-exact calls on large arrays track
    the plain loop better."""
    began = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    symbols = np.arange(4096) % 3
    for _ in range(50):
        total += int(np.bincount(symbols, minlength=3)[1])
    if gather:
        for _ in range(100):
            offsets = _GATHER_RNG.integers(0, _DEGREES[:, None], size=(256, 8))
            np.bincount(_NEIGHBOURS[_STARTS[:, None] + offsets].ravel(), minlength=256)
    return time.perf_counter() - began


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


class CheckFailed(Exception):
    """A call returned output that fails the benchmark's checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _span(recorder, name: str):
    """A span around one layer call when tracing, else nothing."""
    return contextlib.nullcontext() if recorder is None else recorder.span(name)


class Workload:
    """Shared loop: time-boxed calls, reference scaling, checks, replay
    and tracing."""

    name = "?"
    #: Phases that repeat inside one parent span (one event per trial).
    aggregate_phases: tuple = ()
    #: Tallied labels that must succeed in at least 90% of runs: SF and
    #: SSF reach consensus w.h.p. (Theorems 4 and 5) on these inputs.
    whp_labels: tuple = ()
    #: Whether call times are scaled by the reference loop with its
    #: gather part (see ``reference_loop``).
    gather_reference = False

    def __init__(self, seed: int, quick: bool, trace: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.recorder = None
        if trace:
            from spans import SpanRecorder

            self.recorder = SpanRecorder()
        #: One pass: one tuple per call, whose first item names the call's
        #: kind.  Set by ``setup``.
        self.calls: List[tuple] = []
        #: Calls of each kind one operation needs (default 1).
        self.per_op: Dict[str, float] = {}
        #: Per-layer metrics measured during set-up (traced runs only).
        self.setup_metrics: Dict[str, float] = {}
        #: Outcome tallies, label -> [successes, runs], for final_problems.
        self.wins: Dict[str, List[int]] = {}

    def tally(self, label: str, successes: int, runs: int) -> None:
        wins = self.wins.setdefault(label, [0, 0])
        wins[0] += successes
        wins[1] += runs

    def setup(self) -> None:
        """Imports, handle construction and warm-up (timed as set-up)."""
        raise NotImplementedError

    def call(self, slot: int, seed: int, recorder) -> tuple:
        """Run ``self.calls[slot]`` on ``seed``; return its outputs' digest parts."""
        raise NotImplementedError

    def op(self, index: int, recorder) -> tuple:
        turn, slot = divmod(index, len(self.calls))
        return self.call(slot, op_seed(self.seed, 1, turn, slot), recorder)

    def close(self) -> None:
        pass

    def telemetry(self, recorder):
        from repro.telemetry import Telemetry
        from spans import SpanSink

        if recorder is None:
            return None
        return Telemetry([SpanSink(recorder, self.aggregate_phases)])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def run(self, seconds: float) -> Dict[str, object]:
        per_pass = len(self.calls)
        kinds = [call[0] for call in self.calls]
        scaled: Dict[str, List[float]] = defaultdict(list)
        timings: List[tuple] = []  # (kind, ms, reference ms before, after)
        gather = self.gather_reference
        reference_s = REFERENCE_S + (GATHER_REFERENCE_S if gather else 0.0)
        reference = reference_loop(gather)
        last: Dict[int, float] = {}  # slot -> seconds its latest call took
        first: Dict[int, tuple] = {}  # slot -> outputs of its first call
        untraced = traced = 0.0
        problems: List[str] = []
        attempted = failed = 0
        start = time.perf_counter()
        index = 0
        while True:
            turn, slot = divmod(index, per_pass)
            if turn:
                # Stop before a call (a whole pass when traced, so the
                # per-layer totals cover whole passes) that would end
                # after the measured seconds.
                if self.recorder is None:
                    upcoming = last[slot]
                else:
                    upcoming = sum(last.values()) if slot == 0 else 0.0
                if time.perf_counter() - start + upcoming > seconds:
                    break
            attempted += 1
            took = None
            began = time.perf_counter()
            try:
                outputs = self.op(index, None)
                took = time.perf_counter() - began
                if not turn:
                    first[slot] = outputs
                if self.recorder is not None:
                    again_began = time.perf_counter()
                    with self.recorder.span("op", trace=index):
                        again = self.op(index, self.recorder)
                    traced += time.perf_counter() - again_began
                    untraced += took
                    _require(again == outputs, "traced outputs differ from untraced")
            except Exception as exc:  # a failed operation, not a failed run
                failed += 1
                problems.append(f"call {index}: {type(exc).__name__}: {exc}")
            last[slot] = time.perf_counter() - began
            index += 1
            before, reference = reference, reference_loop(gather)
            if took is not None:
                scaled[kinds[slot]].append(took * 2 * reference_s / (before + reference))
                timings.append((kinds[slot], took * 1e3, before * 1e3, reference * 1e3))
        if first:
            replay = min(first, key=last.__getitem__)
            attempted += 1
            try:
                _require(self.op(replay, None) == first[replay], f"replay of call {replay} differs")
            except Exception as exc:
                failed += 1
                problems.append(f"replay: {type(exc).__name__}: {exc}")
        problems.extend(self.final_problems())
        result: Dict[str, object] = {
            "attempted": attempted,
            "failed": failed,
            "correct": not problems,
            "problems": problems[:20],
        }
        if self.recorder is None:
            weights = {kind: self.per_op.get(kind, 1) for kind in kinds}
            result["metrics"] = {
                "op_ms": 1e3 * op_latency(scaled, weights),
                "peak_rss_mb": self.peak_rss_mb(),
            }
            result["samples"] = {"op": {"n": len(timings), "weights": weights, "calls": timings}}
        else:
            passes = index / per_pass
            metrics = dict(self.setup_metrics)
            metrics.update(self.layer_metrics(self.recorder, passes))
            metrics["trace.overhead_frac"] = traced / untraced - 1.0
            metrics["trace.attributed_frac"] = self.recorder.attributed_fraction("op")
            result["metrics"] = metrics
            result["trace"] = self.recorder.to_dict()
        return result

    def final_problems(self) -> List[str]:
        """Checks over the whole run: the w.h.p. outcomes held."""
        problems = []
        for label in self.whp_labels:
            wins, total = self.wins.get(label, (0, 0))
            if total and wins < 0.9 * total:
                problems.append(f"{label} success rate {wins}/{total} < 0.9")
        return problems

    def layer_metrics(self, recorder, passes: float) -> Dict[str, float]:
        """Per-layer metrics, time and counts per pass."""
        raise NotImplementedError


def _per_pass(value: float, passes: float) -> float:
    return value / passes if passes else 0.0


class ExactRounds(Workload):
    """Agent-level batched SF: the per-round loop on two graphs."""

    name = "exact-rounds"
    # The regular graph is sparse enough that SF fails in some replicas.
    whp_labels = ("complete",)
    gather_reference = True

    def setup(self) -> None:
        from repro.engines import create_engine
        from repro.model.config import PopulationConfig
        from repro.protocols import SFSchedule
        from repro.topology import RandomRegularTopology
        from repro.types import SourceCounts

        n = 64 if self.quick else 256
        # A call's time grows linearly with the replica count (0.46 s at
        # 4 replicas, 3.5 s at 32 on the complete graph), so 2 replicas
        # keep the per-replica round work of larger batches in short calls.
        self.replicas = 2
        self.delta = 0.2
        self.config = PopulationConfig(n=n, sources=SourceCounts(1, 3), h=8)
        self.horizon = SFSchedule.from_config(self.config, self.delta).total_rounds
        self.graph_seed = op_seed(self.seed, 0)
        began = time.perf_counter()
        topology = RandomRegularTopology(degree=8)
        topology.bind(n, np.random.default_rng(self.graph_seed))
        bind_s = time.perf_counter() - began
        began = time.perf_counter()
        self.handles = {
            "complete": create_engine("batched", "sf", self.config, self.delta),
            "regular": create_engine(
                "batched", "sf", self.config, self.delta, topology=topology
            ),
        }
        create_s = time.perf_counter() - began
        self.calls = [("complete",), ("regular",)]
        for handle in self.handles.values():
            handle.run(3, rng=0, replicas=2)  # warm-up: lazy imports, first calls
        if self.recorder is not None:
            from repro.noise import NoiseMatrix
            from spans import TimedNoiseMatrix, TimedRegularTopology

            self.setup_metrics = {"topology.bind_s": bind_s, "engines.create_ms": create_s * 1e3}
            # Same matrix and same graph as the untraced handles, so the
            # traced call must reproduce the untraced outputs.
            noise = TimedNoiseMatrix(NoiseMatrix.uniform(self.delta, 2).matrix, self.recorder)
            timed_topology = TimedRegularTopology(8, self.recorder)
            timed_topology.bind(n, np.random.default_rng(self.graph_seed))
            self.traced_handles = {
                "complete": create_engine("batched", "sf", self.config, noise),
                "regular": create_engine(
                    "batched", "sf", self.config, noise, topology=timed_topology
                ),
            }

    def call(self, slot: int, seed: int, recorder) -> tuple:
        (graph,) = self.calls[slot]
        handle = (self.handles if recorder is None else self.traced_handles)[graph]
        with _span(recorder, "engine.run"):
            results = handle.run(
                rng=seed, replicas=self.replicas, telemetry=self.telemetry(recorder)
            )
        return self._check(graph, results)

    def _check(self, graph: str, results) -> tuple:
        _require(len(results) == self.replicas, f"{graph}: {len(results)} results")
        correct = self.config.correct_opinion
        finals = np.stack([r.final_opinions for r in results])
        _require(finals.shape == (self.replicas, self.config.n), f"{graph}: shape")
        _require(bool(np.isin(finals, (0, 1)).all()), f"{graph}: opinion outside {{0,1}}")
        converged = np.array([r.converged for r in results])
        _require(
            bool((converged == (finals == correct).all(axis=1)).all()),
            f"{graph}: converged flag disagrees with final opinions",
        )
        _require(
            all(r.rounds_executed == self.horizon for r in results),
            f"{graph}: a replica stopped before the SF horizon",
        )
        self.tally(graph, int(converged.sum()), len(results))
        return graph, _digest(finals, converged)

    def layer_metrics(self, recorder, passes: float) -> Dict[str, float]:
        totals = recorder.total_by_name()
        own = recorder.self_by_name()
        counts = recorder.count_by_name()
        counters = recorder.counters
        run_s = sum(recorder.phases["batched_engine.run"])
        rounds = recorder.rounds
        return {
            "batched.run_s": _per_pass(run_s, passes),
            "batched.self_s": _per_pass(own.get("batched_engine.run", 0.0), passes),
            "batched.round_us": run_s / rounds * 1e6 if rounds else 0.0,
            "batched.rounds": _per_pass(rounds, passes),
            "batched.replicas": _per_pass(counters.get("batched_engine.replicas", 0), passes),
            "batched.converged_replicas": _per_pass(
                counters.get("batched_engine.converged_replicas", 0), passes
            ),
            "engines.run_self_s": _per_pass(own.get("engine.run", 0.0), passes),
            "noise.corrupt_calls": _per_pass(counts.get("noise.corrupt", 0), passes),
            "noise.corrupt_s": _per_pass(totals.get("noise.corrupt", 0.0), passes),
            "noise.corrupt_msgs": _per_pass(counters.get("noise.corrupt_msgs", 0), passes),
            "noise.corrupt_bytes": _per_pass(counters.get("noise.corrupt_bytes", 0), passes),
            "topology.sample_calls": _per_pass(counts.get("topology.sample", 0), passes),
            "topology.sample_s": _per_pass(totals.get("topology.sample", 0.0), passes),
            "topology.samples": _per_pass(counters.get("topology.samples", 0), passes),
        }


class FastTrials(Workload):
    """Phase-exact fast engines through the trial runner's two paths."""

    name = "fast-trials"
    whp_labels = ("sf", "ssf")
    POOL_WORKERS = 2

    def setup(self) -> None:
        from repro.analysis import run_trials
        from repro.engines import create_engine
        from repro.model.config import PopulationConfig
        from repro.types import SourceCounts

        self.run_trials = run_trials
        # An SF trial at n=2^15 takes about 0.35 s, real work next to the
        # pool's start-up; one pass of the four calls takes about 1.5 s.
        sf_n = 2**10 if self.quick else 2**15
        ssf_n = 2**8 if self.quick else 2**14
        sf_trials = 2
        ssf_trials = 4 if self.quick else 16
        began = time.perf_counter()
        sf = create_engine(
            "fast", "sf", PopulationConfig(n=sf_n, sources=SourceCounts(0, 1), h=16), 0.2
        )
        ssf = create_engine(
            "fast", "ssf", PopulationConfig(n=ssf_n, sources=SourceCounts(0, 1), h=ssf_n), 0.1
        )
        create_s = time.perf_counter() - began
        if self.recorder is not None:
            self.setup_metrics = {"engines.create_ms": create_s * 1e3}
        # Each protocol runs on the batched path (one run_batch call) and
        # on a 2-worker process pool (one trial per task).
        self.calls = [
            # (kind, label, handle, trials, workers)
            ("sf-batch", "sf", sf, sf_trials, None),
            ("sf-pool", "sf", sf, sf_trials, self.POOL_WORKERS),
            ("ssf-batch", "ssf", ssf, ssf_trials, None),
            ("ssf-pool", "ssf", ssf, ssf_trials, self.POOL_WORKERS),
        ]
        run_trials(sf, 1, seed=0)  # warm-up
        run_trials(ssf, 2, seed=0)
        #: Per traced pool call: (wall seconds, {worker: busy seconds}).
        self.pool_calls: List[tuple] = []

    def call(self, slot: int, seed: int, recorder) -> tuple:
        _, label, handle, trials, workers = self.calls[slot]
        samples = recorder.remote_histograms["trials.trial_seconds"] if recorder else []
        before = len(samples)
        began = time.perf_counter()
        with _span(recorder, "trials.pool" if workers else "trials.batch"):
            stats = self.run_trials(
                handle, trials, seed=seed, workers=workers, telemetry=self.telemetry(recorder)
            )
        if recorder is not None and workers:
            busy: Dict[object, float] = {}
            for worker, seconds in samples[before:]:
                busy[worker] = busy.get(worker, 0.0) + seconds
            self.pool_calls.append((time.perf_counter() - began, busy))
        _require(stats.trials == trials, f"{label}: {stats.trials} trials")
        _require(
            stats.failed_trials == 0 and not stats.incomplete,
            f"{label}: trials failed in the runner",
        )
        _require(
            len(stats.values) == stats.successes <= trials,
            f"{label}: {stats.successes} successes, {len(stats.values)} values",
        )
        self.tally(label, stats.successes, trials)
        return label, workers, stats.successes, tuple(stats.values)

    def layer_metrics(self, recorder, passes: float) -> Dict[str, float]:
        def phase_s(name):
            return sum(recorder.phases[name]) + sum(recorder.remote_phases[name])

        wall = sum(seconds for seconds, _ in self.pool_calls)
        busy = sum(sum(workers.values()) for _, workers in self.pool_calls)
        # The pool's cost beyond its slowest worker: process start-up,
        # pickling and result collection.
        overhead = sum(
            seconds - max(workers.values(), default=0.0)
            for seconds, workers in self.pool_calls
        )
        trial_seconds = [
            value for _, value in recorder.remote_histograms.get("trials.trial_seconds", ())
        ]
        return {
            "sf.weak_s": _per_pass(phase_s("sf.phase01_weak"), passes),
            "sf.boosting_s": _per_pass(phase_s("sf.boosting"), passes),
            "ssf.run_s": _per_pass(phase_s("ssf.run") + phase_s("ssf.run_batch"), passes),
            "trials.batch_s": _per_pass(
                sum(recorder.histograms.get("trials.batch_seconds", ())), passes
            ),
            "trials.trial_s_p50": statistics.median(trial_seconds) if trial_seconds else 0.0,
            "trials.pool_wall_s": _per_pass(wall, passes),
            "trials.pool_busy_frac": busy / (self.POOL_WORKERS * wall) if wall else 0.0,
            "trials.pool_overhead_s": _per_pass(overhead, passes),
        }


class Certify(Workload):
    """Time to certified answers: count-engine certificates and
    adversary-search frontiers."""

    name = "certify"
    aggregate_phases = ("count.run",)
    gather_reference = True
    #: Certify P[success] >= 0.99 at 99.9% confidence: with no failures
    #: the exact Clopper-Pearson upper bound on the failure probability
    #: after 700 trials is 0.0098.
    TARGET_FAILURE = 0.01
    ALPHA = 1e-3
    CERT_TRIALS = 700
    #: A certificate's trials run as calls of this many trials on distinct
    #: seeds (0.2-0.4 s each), so a run holds many calls of each kind.
    CHUNK_TRIALS = 25
    #: Search seeds per protocol in one operation.
    SEARCH_SEEDS = 3

    def setup(self) -> None:
        from repro.adversary_search import (
            FaultConfigSpace,
            SearchSettings,
            failure_upper_bound,
            run_search,
            search_worst_case,
        )
        from repro.analysis import run_trials
        from repro.engines import create_engine
        from repro.model.config import PopulationConfig
        from repro.types import SourceCounts
        from repro.verify.statistical import FalsePositiveBudget

        self.run_trials = run_trials
        self.failure_upper_bound = failure_upper_bound
        self.run_search = run_search
        self.search_worst_case = search_worst_case
        self.FalsePositiveBudget = FalsePositiveBudget
        self.chunk = 10 if self.quick else self.CHUNK_TRIALS
        sizes = (10**4, 10**5) if self.quick else (10**6, 10**8)
        began = time.perf_counter()
        certificates = [
            (f"sf-n{n:.0e}", create_engine(
                "count", "sf", PopulationConfig(n=n, sources=SourceCounts(1, 3), h=16), 0.2
            ))
            for n in sizes
        ] + [
            (f"ssf-n{sizes[0]:.0e}", create_engine(
                "count", "ssf",
                PopulationConfig(n=sizes[0], sources=SourceCounts(0, 1), h=sizes[0]), 0.1,
            )),
        ]
        create_s = time.perf_counter() - began
        self.whp_labels = tuple(label for label, _ in certificates)
        self.settings = (
            SearchSettings(num_candidates=2, rungs=2, base_trials=8, refine_steps=1,
                           cert_trials=20)
            if self.quick else SearchSettings()
        )
        n = 64 if self.quick else 256
        # Byzantine and crash candidates run on the fast engines' faulted
        # path; misspecification candidates take the count-engine path.
        # One budget per family keeps a search call under a second.
        self.searches = {
            # protocol: (config, assumed delta, budgets)
            "sf": (PopulationConfig(n=n, sources=SourceCounts(0, 8), h=n), 0.2,
                   {"byzantine": [0.1], "misspec": [0.06]}),
            "ssf": (PopulationConfig(n=n, sources=SourceCounts(0, 16), h=n), 0.1,
                    {"crash": [0.2]}),
        }
        # Count calls, most of an operation's time, come twice per pass,
        # so their medians rest on twice as many calls as the searches'.
        self.calls = (
            [(label, "count", handle) for label, handle in certificates] * 2
            + [(f"search-{protocol}", "search", protocol) for protocol in self.searches]
        )
        # One operation: a 700-trial certificate per target and searches
        # on three seeds per protocol.
        self.per_op = {label: self.CERT_TRIALS / self.chunk for label, _ in certificates}
        self.per_op.update({f"search-{p}": self.SEARCH_SEEDS for p in self.searches})
        for _, handle in certificates:
            run_trials(handle, 2, seed=0)  # warm-up
        _require(
            failure_upper_bound(0, self.CERT_TRIALS, self.ALPHA) <= self.TARGET_FAILURE,
            f"{self.CERT_TRIALS} clean trials do not certify P[failure] <= {self.TARGET_FAILURE}",
        )
        if self.recorder is not None:
            from spans import TimedCandidateEvaluator

            began = time.perf_counter()
            self.traced_evaluators = {}
            for protocol, (config, delta, budgets) in self.searches.items():
                # The space run_search builds for these budgets.
                space = FaultConfigSpace(protocol, delta, families=tuple(budgets))
                self.traced_evaluators[protocol] = TimedCandidateEvaluator(
                    space, config, self.recorder, horizon_epochs=self.settings.horizon_epochs
                )
            evaluator_s = time.perf_counter() - began
            self.setup_metrics = {"engines.create_ms": (create_s + evaluator_s) * 1e3}

    def call(self, slot: int, seed: int, recorder) -> tuple:
        label, path, target = self.calls[slot]
        if path == "count":
            return self._certificate(label, target, seed, recorder)
        return self._search(target, seed, recorder)

    def _certificate(self, label: str, handle, seed: int, recorder) -> tuple:
        with _span(recorder, "count.certify"):
            stats = self.run_trials(
                handle, self.chunk, seed=seed, telemetry=self.telemetry(recorder)
            )
        failures = stats.trials - stats.successes
        with _span(recorder, "tails.failure_upper_bound"):
            bound = self.failure_upper_bound(failures, stats.trials, self.ALPHA)
        self.tally(label, stats.successes, stats.trials)
        _require(stats.trials == self.chunk, f"{label}: {stats.trials} trials")
        _require(
            failures / stats.trials <= bound <= 1.0,
            f"{label}: upper bound {bound} below observed rate",
        )
        return label, failures, bound

    def _search(self, protocol: str, seed: int, recorder) -> tuple:
        """``run_search`` untraced.  Traced, the same cells with the same
        per-cell seeds (spawned from ``seed`` in (family, budget) order,
        as ``run_search`` documents) go through ``search_worst_case`` with
        a timing evaluator, which ``run_search`` has no argument for."""
        config, delta, budgets = self.searches[protocol]
        if recorder is None:
            frontier = self.run_search(
                protocol, config, assumed_delta=delta, budgets=budgets, seed=seed,
                settings=self.settings,
            )
            points = [
                (p.family, p.budget, p.trials, p.failures, p.failure_rate,
                 p.certified_failure_lower_bound, p.config, p.evaluations, p.sequential_trials)
                for p in frontier.points
            ]
        else:
            evaluator = self.traced_evaluators[protocol]
            fp_budget = self.FalsePositiveBudget(total=self.settings.ledger_total)
            cells = [(family, float(value)) for family in budgets for value in budgets[family]]
            points = []
            for (family, value), cell in zip(cells, np.random.SeedSequence(seed).spawn(len(cells))):
                with recorder.span("adversary.search"):
                    worst = self.search_worst_case(
                        evaluator.space, evaluator, family=family, budget_value=value,
                        seed=int(cell.generate_state(1, np.uint64)[0]),
                        settings=self.settings, fp_budget=fp_budget,
                    )
                points.append((
                    family, round(value, 6), worst.cert_trials, worst.cert_failures,
                    worst.cert_failure_rate, worst.certified_lower_bound,
                    worst.candidate.describe(), worst.evaluations, worst.sequential_trials,
                ))
            recorder.counters["sequential.error_spent"] += fp_budget.spent
            recorder.counters["sequential.error_total"] += fp_budget.total
        cells = sum(len(values) for values in budgets.values())
        _require(len(points) == cells, f"search-{protocol}: {len(points)} of {cells} cells")
        for family, _, trials, _, rate, lower, _, evaluations, _ in points:
            _require(
                0.0 <= lower <= rate <= 1.0,
                f"{family}: lower bound above the observed failure rate",
            )
            _require(trials == self.settings.cert_trials, f"{family}: {trials} cert trials")
            _require(evaluations >= 1, f"{family}: no evaluations")
        return protocol, tuple(points)

    def layer_metrics(self, recorder, passes: float) -> Dict[str, float]:
        totals = recorder.total_by_name()
        own = recorder.self_by_name()
        counters = recorder.counters
        count_runs = recorder.phases["count.run"]
        evaluations = counters.get("adversary.evaluations", 0)
        sprt = counters.get("adversary.sprt_trials", 0)
        return {
            "count.run_ms_p50": statistics.median(count_runs) * 1e3 if count_runs else 0.0,
            "count.trials": _per_pass(counters.get("count.runs", 0), passes),
            "tails.bound_s": _per_pass(totals.get("tails.failure_upper_bound", 0.0), passes),
            "adversary.evaluations": _per_pass(evaluations, passes),
            "adversary.sprt_trials": _per_pass(sprt, passes),
            "adversary.cert_trials": _per_pass(counters.get("adversary.cert_trials", 0), passes),
            "adversary.sprt_savings": (
                counters.get("adversary.fixed_trials", 0) / sprt if sprt else 0.0
            ),
            "adversary.count_share": (
                counters.get("adversary.count_evaluations", 0) / evaluations
                if evaluations else 0.0
            ),
            "adversary.evaluate_s": _per_pass(totals.get("adversary.evaluate", 0.0), passes),
            "adversary.certify_s": _per_pass(totals.get("adversary.certify", 0.0), passes),
            "adversary.search_self_s": _per_pass(own.get("adversary.search", 0.0), passes),
            "sequential.error_spent": (
                counters["sequential.error_spent"] / counters["sequential.error_total"]
                if counters.get("sequential.error_total") else 0.0
            ),
        }


ENGINE_WORKLOADS = {w.name: w for w in (ExactRounds, FastTrials, Certify)}
