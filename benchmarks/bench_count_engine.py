"""PERF — count-level engine: O(|Sigma|) transitions at any population.

The tentpole measurement behind :mod:`repro.model.count_engine`: a full
SF execution collapses to O(num_subphases) arithmetic regardless of
``n``, so n = 10^8 runs in the same milliseconds as n = 10^3 and with
O(|Sigma|) memory.  Five measurements land in
``BENCH_count_engine.json`` (see conftest) and are gated by
``benchmarks/check_regression.py``:

* full count-SF runs across n in {10^3, 10^4, 10^6, 10^8}, with
  ``tracemalloc`` peaks proving the memory claim;
* 25-trial ``run_trials`` calls on the three count targets of perfbench's
  certify workload (SF at n = 10^6 and 10^8, SSF at n = 10^6), each
  repeat on its own seed, as perfbench's calls are;
* per-round cost head-to-head against the batched exact engine, both
  measured at n = 10^6;
* full-run head-to-head against the fast per-agent engine at n = 10^6;
* alphabet dependence (SF's |Sigma| = 2 vs SSF's |Sigma| = 4) and the
  deterministic mean-field engine alongside.

Count, mean-field and batched timings are the median of
:func:`median_timing`'s repeats; the cases that time nothing else record
the range too.  The fast side of the full-run head-to-head stays a single
run of seconds.  Memory peaks come from a separate run under
``tracemalloc``, which slows the interpreter several-fold and so stays
out of every timed run.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from repro.analysis import MeanFieldEngine, run_trials
from repro.engines import create_engine
from repro.model import BatchedPullEngine, Population, PopulationConfig
from repro.noise import NoiseMatrix
from repro.protocols import (
    BatchedSourceFilter,
    CountSelfStabilizingSourceFilter,
    CountSourceFilter,
    FastSourceFilter,
    SFSchedule,
)
from repro.types import SourceCounts

from .conftest import median_timing, record_count_engine

DELTA = 0.2


def _count_sf_config(n: int) -> PopulationConfig:
    return PopulationConfig(n=n, sources=SourceCounts(0, 4), h=16)


@pytest.mark.parametrize("n", [1_000, 10_000, 1_000_000, 100_000_000])
def test_perf_count_sf_full_run(n):
    """Full count-SF runs: wall time flat in n, memory O(|Sigma|)."""
    config = _count_sf_config(n)
    timing = median_timing(lambda: CountSourceFilter(config, DELTA).run(rng=1))

    tracemalloc.start()
    result = CountSourceFilter(config, DELTA).run(rng=1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert result.converged
    rounds = result.rounds_executed
    record_count_engine(
        {
            "case": "count_sf_full_run",
            "n": n,
            "h": config.h,
            "delta": DELTA,
            "rounds": rounds,
            **timing,
            "rounds_per_sec": round(rounds / timing["seconds"], 1),
            "peak_bytes": int(peak),
        }
    )
    print(
        f"\n  count SF n={n:.0e}: {rounds} rounds in "
        f"{timing['seconds'] * 1e3:.2f} ms (median of {timing['repeats']}, "
        f"{timing['min'] * 1e3:.2f}-{timing['max'] * 1e3:.2f}), "
        f"peak {peak / 1e3:.1f} KB"
    )


#: perfbench certify's count targets: (label, protocol, n, sources, h, delta).
CERTIFY_TARGETS = [
    ("sf-n1e6", "sf", 10**6, (1, 3), 16, 0.2),
    ("sf-n1e8", "sf", 10**8, (1, 3), 16, 0.2),
    ("ssf-n1e6", "ssf", 10**6, (0, 1), 10**6, 0.1),
]


@pytest.mark.parametrize(
    "label,protocol,n,sources,h,delta", CERTIFY_TARGETS,
    ids=[target[0] for target in CERTIFY_TARGETS],
)
def test_perf_count_trials_certify(label, protocol, n, sources, h, delta):
    """One 25-trial certificate chunk, as perfbench's certify calls it:
    on a handle that lives across calls, each call on a fresh seed (a
    repeated seed would find every price memoized)."""
    config = PopulationConfig(n=n, sources=SourceCounts(*sources), h=h)
    handle = create_engine("count", protocol, config, delta)
    trials = 25
    seeds = itertools.count(1)
    timing = median_timing(
        lambda: run_trials(handle, trials, seed=next(seeds)), repeats=7
    )
    stats = run_trials(handle, trials, seed=1)
    assert stats.successes == trials
    record_count_engine(
        {
            "case": "count_trials_certify",
            "target": label,
            "protocol": protocol,
            "n": n,
            "h": h,
            "delta": delta,
            "trials": trials,
            **timing,
        }
    )
    print(
        f"\n  certify {label}: {trials} trials in "
        f"{timing['seconds'] * 1e3:.1f} ms (median of {timing['repeats']}, "
        f"{timing['min'] * 1e3:.1f}-{timing['max'] * 1e3:.1f})"
    )


def test_perf_count_vs_batched_per_round():
    """Count per-round cost at n=1e6 vs the batched exact engine, both
    measured there.

    The batched exact engine draws Theta(n*h) variates per round (about
    half a second and half a gigabyte a round at n = 10^6), so it runs a
    few rounds of Phase 0 and the count engine a full run.  The gate
    requires >= 10x.
    """
    n, h, rounds = 1_000_000, 16, 3
    config = _count_sf_config(n)
    population = Population(config, rng=np.random.default_rng(0))
    schedule = SFSchedule.from_config(config, DELTA, m=rounds * h)
    engine = BatchedPullEngine(population, NoiseMatrix.uniform(DELTA, 2))
    batched = median_timing(
        lambda: engine.run(
            BatchedSourceFilter(schedule), max_rounds=rounds, replicas=1, rng=0
        ),
        repeats=3,
    )
    batched_per_round = batched["seconds"] / rounds

    result = CountSourceFilter(config, DELTA).run(rng=1)
    timing = median_timing(lambda: CountSourceFilter(config, DELTA).run(rng=1))
    count_per_round = timing["seconds"] / result.rounds_executed

    speedup = batched_per_round / count_per_round
    record_count_engine(
        {
            "case": "count_vs_batched_per_round",
            "n": n,
            "h": h,
            "batched_rounds": rounds,
            "batched_repeats": batched["repeats"],
            "batched_seconds_per_round": round(batched_per_round, 6),
            "count_seconds_per_round": round(count_per_round, 12),
            "speedup": round(speedup, 1),
        }
    )
    print(
        f"\n  per-round at n=1e6: batched {batched_per_round * 1e3:.2f} ms, "
        f"count {count_per_round * 1e6:.4f} us ({speedup:,.0f}x)"
    )
    assert speedup >= 10.0


def test_perf_count_vs_fast_full_run():
    """Full-run head-to-head at n=1e6: count vs the fast per-agent SF."""
    n = 1_000_000
    config = _count_sf_config(n)

    fast = FastSourceFilter(config, DELTA)
    start = time.perf_counter()
    fast_result = fast.run(rng=0)
    fast_s = time.perf_counter() - start

    count_result = CountSourceFilter(config, DELTA).run(rng=1)
    count_s = median_timing(
        lambda: CountSourceFilter(config, DELTA).run(rng=1)
    )["seconds"]

    assert fast_result.converged and count_result.converged
    record_count_engine(
        {
            "case": "count_vs_fast_full_run",
            "n": n,
            "h": config.h,
            "fast_seconds": round(fast_s, 4),
            "count_seconds": round(count_s, 5),
            "speedup": round(fast_s / count_s, 1),
        }
    )
    print(
        f"\n  full run n=1e6: fast {fast_s:.3f}s, count {count_s * 1e3:.2f} ms "
        f"({fast_s / count_s:,.0f}x)"
    )


@pytest.mark.parametrize(
    "label,alphabet", [("sf", 2), ("ssf", 4)]
)
def test_perf_count_alphabet_dependence(label, alphabet):
    """Per-transition cost vs alphabet size: SF (|Sigma|=2) vs SSF (=4)."""
    n = 1_000_000
    if label == "sf":
        config, delta, cls = _count_sf_config(n), DELTA, CountSourceFilter
    else:
        config = PopulationConfig(n=n, sources=SourceCounts(0, 4), h=16)
        delta, cls = 0.05, CountSelfStabilizingSourceFilter
    protocol = cls(config, delta)
    result = protocol.run(rng=1)
    transitions = (
        len(protocol._stages) if label == "sf"
        else max(result.rounds_executed // protocol.schedule.epoch_rounds, 1)
    )
    timing = median_timing(lambda: cls(config, delta).run(rng=1))
    per_transition = timing["seconds"] / transitions
    record_count_engine(
        {
            "case": "count_alphabet_dependence",
            "protocol": label,
            "alphabet": alphabet,
            "n": n,
            "transitions": transitions,
            **timing,
            "seconds_per_transition": round(per_transition, 8),
            "converged": bool(result.converged),
        }
    )
    print(
        f"\n  count {label} (|Sigma|={alphabet}) n=1e6: {transitions} "
        f"transitions, {per_transition * 1e6:.1f} us each"
    )


@pytest.mark.parametrize("n", [1_000_000, 100_000_000])
def test_perf_mean_field_full_run(n):
    """The deterministic mean-field engine alongside the count engine."""
    config = _count_sf_config(n)
    result = MeanFieldEngine(config, DELTA).run()
    assert result.converged
    timing = median_timing(lambda: MeanFieldEngine(config, DELTA).run())
    record_count_engine(
        {
            "case": "mean_field_full_run",
            "n": n,
            "h": config.h,
            "rounds": result.total_rounds,
            **timing,
        }
    )
    print(
        f"\n  mean-field n={n:.0e}: {result.total_rounds} rounds in "
        f"{timing['seconds'] * 1e3:.2f} ms (deterministic)"
    )
