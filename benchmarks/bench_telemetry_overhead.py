"""PERF — telemetry overhead on the engine hot paths.

Three guarantees back the telemetry layer:

* **Disabled is near-free.**  With ``telemetry=None`` the engines route
  through the :data:`~repro.telemetry.NULL_TELEMETRY` singleton; the
  per-stage cost is one ``enabled`` attribute check.  Measured here
  against a reference replica of the
  :class:`~repro.model.batched_engine.BatchedPullEngine` stage loop
  without telemetry and gated at 5% — the CI smoke job fails if
  instrumentation ever leaks real work onto the disabled path.
* **Enabled is observational only.**  Recording costs time (the
  per-round opinion reductions) but never touches the RNG streams, so
  the results are bit-identical either way (asserted here and in
  ``tests/test_telemetry.py``).
* **A service job pays for its run, not its telemetry.**  Every job
  records into the server's sink, which is always on; a serial job of
  the service's request mix runs 2 907 rounds, each one a ``round``
  event.  The job is timed against the same request with no recorder
  and gated at :data:`SERVICE_LIMIT_PCT`.

Each gate times its two sides in turns (see :func:`_best_of`), so a slow
spell on a shared host lands on both.  Measurements land in
``BENCH_telemetry_overhead.json`` at the repo root, alongside
``BENCH_engine_throughput.json`` (see conftest).
"""

import time

import numpy as np

from repro.model import BatchedPullEngine, Population, PopulationConfig
from repro.model.batched_engine import _spawn_generators
from repro.noise import NoiseMatrix
from repro.protocols import BatchedSourceFilter, SFSchedule
from repro.service import SpreadingService, execute_run
from repro.telemetry import AggregatingSink, Telemetry
from repro.types import SourceCounts

from .conftest import record_telemetry_overhead

REPLICAS = 64
ROUNDS = 60
REPS = 7
OVERHEAD_LIMIT_PCT = 5.0

#: The serial SF request of perfbench's service-mix workload.
SERVICE_REQUEST = {
    "engine": "serial", "protocol": "sf", "n": 48, "s0": 1, "s1": 3,
    "h": 4, "delta": 0.2, "seed": 7,
}
#: Bound on a service job's cost over its bare run.  Fourteen runs of
#: this gate on a 2-vCPU VM read -3.2% to +12.3%, median +4.9%, with
#: quartiles 5.6 points apart: the bound is over three times that spread.
#: A job recording into a MemorySink, which keeps every round event,
#: read +34% to +45%.
SERVICE_LIMIT_PCT = 25.0
#: The two sides are ~70 ms each, so more reps than REPS stay cheap.
SERVICE_REPS = 11


def _reference_batched_run(population, noise, protocol, max_rounds, replicas, seed):
    """The BatchedPullEngine stage loop without telemetry, spawn mode.

    A faithful replica of the engine's hot path — same generators, same
    draws, same once-per-stage consensus bookkeeping, no telemetry or
    tracing — serving as the baseline the instrumented (but disabled)
    engine is measured against.
    """
    generators = _spawn_generators(replicas, seed, None)
    n, h = population.n, population.h
    correct = population.correct_opinion
    protocol.reset(population, generators)

    members = np.arange(replicas)
    streak = np.zeros(replicas, dtype=np.int64)
    consensus_start = np.full(replicas, -1, dtype=np.int64)
    num_correct = np.count_nonzero(protocol.opinions() == correct, axis=1)
    sampled = np.empty((replicas, n, h), dtype=np.int64)
    uniforms = np.empty((replicas, n, h))
    offsets = (members * n)[:, None, None]
    draws = list(zip(generators, sampled, uniforms))

    start = 0
    for stage, stop in enumerate(protocol.stage_ends()):
        end = min(stop, max_rounds)
        if start >= end:
            break
        rows = np.asarray(protocol.stage_displays(stage))[members]
        ones = np.zeros((replicas, n, h), dtype=np.int32)
        for _ in range(start, end):
            for g, picked, _ in draws:
                picked[...] = g.integers(0, n, size=(n, h))
            for g, _, uniform in draws:
                g.random(out=uniform)
            sampled += offsets
            ones += noise.corrupt_with_uniforms(
                rows.reshape(-1).take(sampled), uniforms, dtype=np.int8
            )
        held = end - 1 if end == stop else end
        stages = [(num_correct.copy(), start, held - start)]
        if end == stop:
            protocol.end_stage(stage, ones.sum(axis=2), members)
            num_correct = np.count_nonzero(protocol.opinions() == correct, axis=1)
            stages.append((num_correct, end - 1, 1))
        for counts, first, ran in stages:
            ok = counts == n
            consensus_start = np.where(
                ok, np.where(consensus_start < 0, first, consensus_start), -1
            )
            streak = np.where(ok, streak + ran, 0)
        start = stop
    return protocol.opinions()


def _best_of(*callables, reps=REPS):
    """Minimum wall time of each callable over ``reps`` runs.

    The callables take turns, in alternating order from one rep to the
    next, so a slow spell on the host slows every side alike instead of
    whichever side happened to run then.
    """
    best = [float("inf")] * len(callables)
    order = list(range(len(callables)))
    for _ in range(reps):
        for k in order:
            start = time.perf_counter()
            callables[k]()
            best[k] = min(best[k], time.perf_counter() - start)
        order.reverse()
    return best


def test_perf_disabled_telemetry_overhead():
    """Disabled telemetry must cost <= 5% on the batched-engine microbench.

    This is the guarantee the hot-loop ``if telemetry.enabled`` guards
    exist to provide; the CI smoke job runs exactly this test.
    """
    config = PopulationConfig(n=128, sources=SourceCounts(1, 3), h=4)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * config.h)
    engine = BatchedPullEngine(population, noise)

    def instrumented_disabled():
        return engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=ROUNDS,
            replicas=REPLICAS,
            rng=5,
        )

    def reference():
        return _reference_batched_run(
            population, noise, BatchedSourceFilter(schedule), ROUNDS, REPLICAS, 5
        )

    # Interleave warmups so neither side benefits from cache priming.
    reference()
    instrumented_disabled()

    reference_s, disabled_s = _best_of(reference, instrumented_disabled)
    overhead_pct = 100.0 * (disabled_s - reference_s) / reference_s

    record_telemetry_overhead(
        {
            "case": "batched_engine_disabled",
            "n": config.n,
            "h": config.h,
            "replicas": REPLICAS,
            "rounds": ROUNDS,
            "reference_seconds": round(reference_s, 5),
            "disabled_seconds": round(disabled_s, 5),
            "overhead_pct": round(overhead_pct, 2),
        }
    )
    print(
        f"\n  reference {reference_s * 1e3:.2f}ms, "
        f"disabled-telemetry {disabled_s * 1e3:.2f}ms, "
        f"overhead {overhead_pct:+.2f}%"
    )
    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        f"disabled telemetry costs {overhead_pct:.2f}% on the batched-engine "
        f"microbench (limit {OVERHEAD_LIMIT_PCT}%)"
    )


def test_perf_enabled_telemetry_cost_and_neutrality():
    """Record the honest cost of *enabled* telemetry; assert RNG-neutrality.

    Enabled recording pays for the per-round opinion reductions and event
    dispatch — that cost is recorded (not gated), and the protocol
    results must remain bit-identical to the disabled run.
    """
    config = PopulationConfig(n=128, sources=SourceCounts(1, 3), h=4)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * config.h)
    engine = BatchedPullEngine(population, noise)

    def run(telemetry=None):
        return engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=ROUNDS,
            replicas=REPLICAS,
            rng=5,
            telemetry=telemetry,
        )

    off = run()
    on = run(telemetry=Telemetry([AggregatingSink()]))
    for a, b in zip(off, on):
        assert np.array_equal(a.final_opinions, b.final_opinions)
        assert a.rounds_executed == b.rounds_executed

    off_s, on_s = _best_of(
        run, lambda: run(telemetry=Telemetry([AggregatingSink()])), reps=3
    )
    record_telemetry_overhead(
        {
            "case": "batched_engine_enabled",
            "n": config.n,
            "h": config.h,
            "replicas": REPLICAS,
            "rounds": ROUNDS,
            "disabled_seconds": round(off_s, 5),
            "enabled_seconds": round(on_s, 5),
            "enabled_overhead_pct": round(100.0 * (on_s - off_s) / off_s, 2),
        }
    )
    print(
        f"\n  disabled {off_s * 1e3:.2f}ms, enabled {on_s * 1e3:.2f}ms "
        f"({100.0 * (on_s - off_s) / off_s:+.1f}%)"
    )


def test_perf_service_job_telemetry_overhead():
    """A serial service job costs at most SERVICE_LIMIT_PCT over its run.

    The job side is :meth:`SpreadingService.execute_job`, which records
    into the server's own sink; the other side is the same request
    through :func:`execute_run` with no recorder.  Both return the same
    envelope.
    """
    service = SpreadingService()

    def job():
        return service.execute_job(service.submit("run", dict(SERVICE_REQUEST)))

    def bare():
        return execute_run(dict(SERVICE_REQUEST))

    done = job()
    assert done.status == "done", done.error
    assert done.result == bare()
    assert done.telemetry["rounds_recorded"] == done.result["report"]["rounds_executed"]

    bare_s, job_s = _best_of(bare, job, reps=SERVICE_REPS)
    overhead_pct = 100.0 * (job_s - bare_s) / bare_s
    record_telemetry_overhead(
        {
            "case": "service_job_enabled",
            "engine": SERVICE_REQUEST["engine"],
            "n": SERVICE_REQUEST["n"],
            "h": SERVICE_REQUEST["h"],
            "rounds": done.result["report"]["rounds_executed"],
            "disabled_seconds": round(bare_s, 5),
            "enabled_seconds": round(job_s, 5),
            "enabled_overhead_pct": round(overhead_pct, 2),
        }
    )
    print(
        f"\n  bare run {bare_s * 1e3:.2f}ms, service job {job_s * 1e3:.2f}ms "
        f"({overhead_pct:+.2f}%)"
    )
    assert overhead_pct <= SERVICE_LIMIT_PCT, (
        f"a serial service job costs {overhead_pct:.2f}% over its bare run "
        f"(limit {SERVICE_LIMIT_PCT}%)"
    )
