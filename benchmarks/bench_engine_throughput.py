"""PERF — engine throughput: exact agent-level vs vectorized simulation.

Not a paper experiment, but the measurement that justifies the
engine hierarchy: the exact engine costs O(n*h) per round, the batched
exact engine amortizes the per-round dispatch overhead over R replicas,
and the vectorized engines cost O(n) per *phase*.  These
micro-benchmarks record all tiers so regressions in the hot paths are
caught; the batched-vs-serial comparisons (medians of interleaved,
reference-scaled pairs) are additionally written to
``BENCH_engine_throughput.json`` at the repo root (see conftest).
"""

import numpy as np
import pytest

from repro.analysis import repeat_trials
from repro.model import BatchedPullEngine, Population, PopulationConfig, PullEngine
from repro.noise import NoiseMatrix
from repro.protocols import (
    BatchedSourceFilter,
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SourceFilterProtocol,
)
from repro.types import SourceCounts

from .conftest import interleaved_timings, record_engine_throughput


@pytest.mark.parametrize("n,h", [(256, 4), (1024, 16)])
def test_perf_exact_engine_round(benchmark, n, h):
    """Cost of 10 exact-engine rounds (display, sample, corrupt, receive)."""
    config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=h)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * h)
    engine = PullEngine(population, noise)

    def ten_rounds():
        protocol = SourceFilterProtocol(schedule)
        return engine.run(protocol, max_rounds=10, rng=np.random.default_rng(1))

    result = benchmark(ten_rounds)
    assert result.rounds_executed == 10


@pytest.mark.parametrize("n", [1024, 8192])
def test_perf_fast_sf_full_run(benchmark, n):
    """Cost of a complete SF execution at h = n (phase-at-a-time)."""
    config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)
    engine = FastSourceFilter(config, 0.2)
    result = benchmark(lambda: engine.run(rng=0))
    assert result.converged


@pytest.mark.parametrize("n", [1024, 4096])
def test_perf_fast_ssf_full_run(benchmark, n):
    """Cost of a complete SSF execution at h = n (gap-batched)."""
    config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)

    def run():
        return FastSelfStabilizingSourceFilter(config, 0.1).run(rng=0)

    result = benchmark(run)
    assert result.converged


def test_perf_noise_corrupt_million(benchmark):
    """Channel throughput: corrupting 1M binary messages."""
    noise = NoiseMatrix.uniform(0.2, 2)
    rng = np.random.default_rng(0)
    messages = rng.integers(0, 2, size=1_000_000)
    out = benchmark(lambda: noise.corrupt(messages, rng))
    assert out.shape == messages.shape


# ----------------------------------------------------------------------
# Batched-replica engine vs a serial trial loop.
# ----------------------------------------------------------------------

TRIALS = 64
ROUNDS = 60


def _serial_sweep(population, noise, schedule, trials, rounds, seed):
    engine = PullEngine(population, noise)
    results = []
    root = np.random.SeedSequence(seed)
    for child in root.spawn(trials):
        protocol = SourceFilterProtocol(schedule)
        results.append(
            engine.run(
                protocol, max_rounds=rounds, rng=np.random.default_rng(child)
            )
        )
    return results


def _batched_sweep(population, noise, schedule, trials, rounds, seed):
    engine = BatchedPullEngine(population, noise)
    return engine.run(
        BatchedSourceFilter(schedule),
        max_rounds=rounds,
        replicas=trials,
        rng=seed,
    )


#: Interleaved serial/batched pairs per case.  One unscaled pair at
#: n = 1024 ranged 0.59-1.66x on a shared 2-vCPU host, wider than the
#: distance from the median to the gate's bound, so each pair's times
#: are scaled by the reference loop run around them.
PAIRS = 20


@pytest.mark.parametrize("n,h", [(64, 2), (128, 4), (1024, 16)])
def test_perf_batched_vs_serial_sweep(n, h):
    """A 64-trial exact-engine sweep, serial loop vs batched replicas.

    Batching amortizes the per-round numpy dispatch overhead, so the
    speedup concentrates at small n*h (the exact engine's cross-
    validation regime) and fades once rounds are element-bound — both
    ends are recorded to BENCH_engine_throughput.json.  Each case times
    ``PAIRS`` serial/batched pairs, alternating which side goes first
    (:func:`interleaved_timings`, reference-loop scaled), and records
    the ratio of the two medians with each side's range.
    """
    config = PopulationConfig(n=n, sources=SourceCounts(1, 3), h=h)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * h)
    serial_runs, batched_runs = [], []

    def serial():
        results = _serial_sweep(population, noise, schedule, TRIALS, ROUNDS, seed=5)
        serial_runs.append([result.final_opinions for result in results])

    def batched():
        results = _batched_sweep(population, noise, schedule, TRIALS, ROUNDS, seed=5)
        batched_runs.append([result.final_opinions for result in results])

    serial_time, batched_time = interleaved_timings(
        [serial, batched], repeats=PAIRS, scaled=True
    )
    for serial_opinions, batched_opinions in zip(serial_runs, batched_runs):
        assert len(serial_opinions) == len(batched_opinions) == TRIALS
        # Replica r runs on the serial loop's generator r, bit for bit.
        for s, b in zip(serial_opinions, batched_opinions):
            assert np.array_equal(s, b)

    speedup = serial_time["seconds"] / batched_time["seconds"]
    record_engine_throughput(
        {
            "case": "batched_vs_serial",
            "n": n,
            "h": h,
            "trials": TRIALS,
            "rounds": ROUNDS,
            "repeats": PAIRS,
            "serial_seconds": round(serial_time["seconds"], 4),
            "serial_min": round(serial_time["min"], 4),
            "serial_max": round(serial_time["max"], 4),
            "batched_seconds": round(batched_time["seconds"], 4),
            "batched_min": round(batched_time["min"], 4),
            "batched_max": round(batched_time["max"], 4),
            "speedup": round(speedup, 2),
        }
    )
    print(
        f"\n  n={n} h={h}: median of {PAIRS} scaled pairs serial "
        f"{serial_time['seconds']:.3f}s ({serial_time['min']:.3f}-{serial_time['max']:.3f}), "
        f"batched {batched_time['seconds']:.3f}s "
        f"({batched_time['min']:.3f}-{batched_time['max']:.3f}), speedup {speedup:.2f}x"
    )


class _BenchTrial:
    """Picklable trial for the workers benchmark."""

    def __init__(self, config, delta):
        self.config = config
        self.delta = delta

    def __call__(self, rng):
        return FastSourceFilter(self.config, self.delta).run(rng)


@pytest.mark.parametrize("n", [256, 2048])
def test_perf_trial_runner_workers(n):
    """repeat_trials serial vs a 2-worker pool (same statistics either way).

    The two run interleaved, median of ``median_timing``'s repeats.  At
    n = 256 a fast SF trial costs a few milliseconds and the pool's
    start-up outweighs the second core; at n = 2048 a trial costs about
    20 ms and two cores pay.  On a single-core host the pool never
    pays; the record shows the honest cost there too.
    """
    config = PopulationConfig(n=n, sources=SourceCounts(1, 3), h=16)
    trial = _BenchTrial(config, 0.2)
    trials = 8
    runs = {}

    def timed(workers):
        def call():
            runs[workers] = repeat_trials(trial, trials=trials, seed=3, workers=workers)

        return call

    serial, pool = interleaved_timings([timed(None), timed(2)])
    assert runs[None] == runs[2]
    speedup = serial["seconds"] / pool["seconds"]
    record_engine_throughput(
        {
            "case": "trial_runner",
            "n": n,
            "h": 16,
            "trials": trials,
            "trial_seconds": round(serial["seconds"] / trials, 6),
            "serial": serial,
            "pool": dict(pool, workers=2),
            "speedup": round(speedup, 2),
            "successes": runs[None].successes,
        }
    )
    print(
        f"\n  n={n}: {trials} trials serial {serial['seconds']:.3f}s, "
        f"2-worker pool {pool['seconds']:.3f}s ({speedup:.2f}x)"
    )

