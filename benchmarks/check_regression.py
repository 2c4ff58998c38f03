"""Benchmark regression gate: thresholds + staleness for BENCH_*.json.

The repo commits machine-readable benchmark records at its root;
:data:`RECORDS` lists each one with the benchmark module that
regenerates it and the sources it measures.  This module is the CI gate
over them:

* **Thresholds** — the committed numbers must back the performance
  claims the docs make: the batched exact engine is never slower than
  the serial loop at n = 1024 (a regression fixed once and kept fixed),
  and the count-level engine is at least 10x the batched exact engine's
  extrapolated per-round cost at n = 10^6 (in practice it is >10^3x)
  while staying O(|Sigma|) in memory at n = 10^8.  The run service's
  content-addressed cache must serve a hit at least 10x faster than
  cold recomputation, and the HTTP front-end must sustain a floor of
  ``GET /health`` requests per second.  The networked deployment must
  keep a 64-peer cluster progressing at a floor of full PULL rounds per
  second, the topology samplers must stay on the vectorized gather path
  (with EXT4 compared on at least three graph families), and the
  adversary search must keep its SPRT trial-savings and
  evaluations-per-second floors.
* **Staleness** — each gated record stores a digest of the source
  files that produced it.  When those sources change, the digest stops
  matching and the gate fails until the benchmarks are re-run and the
  refreshed JSONs committed — numbers in the repo can never silently
  describe an engine that no longer exists.

Run it directly::

    PYTHONPATH=src python -m benchmarks.check_regression
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Source files whose behavior the benchmark records measure.  Editing
#: any of these invalidates the committed BENCH_*.json records.
ENGINE_SOURCES = [
    "src/repro/model/engine.py",
    "src/repro/model/batched_engine.py",
    "src/repro/model/count_engine.py",
    "src/repro/noise/matrix.py",
    "src/repro/protocols/sf_fast.py",
    "src/repro/protocols/sf_count.py",
    "src/repro/protocols/ssf_fast.py",
    "src/repro/protocols/ssf_count.py",
    "src/repro/theory/tails.py",
    "src/repro/analysis/mean_field.py",
]

#: Source files whose behavior the service-load record measures —
#: the HTTP front-end, cache, job ledger, and the registry seam the
#: service routes every run through.
SERVICE_SOURCES = [
    "src/repro/service/server.py",
    "src/repro/service/cache.py",
    "src/repro/service/jobs.py",
    "src/repro/service/client.py",
    "src/repro/engines.py",
]

#: Every committed record: the benchmark module that regenerates it and
#: the sources its ``sources_digest`` covers (``None``: no digest).  An
#: entry with a ``*`` is a glob, so a new module in that package
#: invalidates the record without an edit here.  The net record covers
#: the networked-deployment package, the topology record the topology
#: package plus the graph builders, and the adversary record the search
#: package plus the sequential-testing module its SPRT savings claim
#: depends on.
RECORDS: Dict[str, Tuple[str, Optional[List[str]]]] = {
    "BENCH_engine_throughput.json": ("bench_engine_throughput.py", ENGINE_SOURCES),
    "BENCH_telemetry_overhead.json": ("bench_telemetry_overhead.py", None),
    "BENCH_count_engine.json": ("bench_count_engine.py", ENGINE_SOURCES),
    "BENCH_service_load.json": ("bench_service_load.py", SERVICE_SOURCES),
    "BENCH_net_roundtrip.json": ("bench_net_roundtrip.py", ["src/repro/net/*.py"]),
    "BENCH_topology_pull.json": (
        "bench_topology_pull.py",
        ["src/repro/topology/*.py", "src/repro/model/structured.py"],
    ),
    "BENCH_adversary_search.json": (
        "bench_adversary_search.py",
        ["src/repro/adversary_search/*.py", "src/repro/analysis/sequential.py"],
    ),
}

#: Gate thresholds (see module docstring).
MIN_BATCHED_SPEEDUP_N1024 = 1.0
MIN_COUNT_VS_BATCHED_N1E6 = 10.0
#: A cache hit must beat cold recomputation by at least this factor.
MIN_CACHE_HIT_SPEEDUP = 10.0
#: Floor on the service's fixed per-request overhead (GET /health).
MIN_HEALTH_RPS = 25.0
#: Floor on 64-peer cluster progress: a full PULL round (64 peers x h
#: samples, request/response datagrams + barrier) per second.  Measured
#: ~15 rounds/s on a dev box; 1.0 keeps the gate robust to slow CI.
MIN_NET_ROUNDS_PER_SEC = 1.0
#: Floor on CSR neighbor sampling at n=4096, h=8.  The vectorized
#: gather measures ~1e7 samples/s on a dev box; 1e5 keeps the gate
#: robust to slow CI while still catching a fallback to Python loops.
MIN_TOPOLOGY_SAMPLES_PER_SEC = 1e5
#: The EXT4 record must compare SF and hybrid on at least this many
#: graph families for the docs' topology-frontier claim to be measured.
MIN_TOPOLOGY_FAMILIES = 3
#: SPRT-gated candidate screening must beat fixed-size testing by at
#: least this factor on the benchmark's mixed benign/damaging pool
#: (measured ~2-3x; 1.3 keeps the gate robust to unlucky trial draws).
MIN_SPRT_TRIAL_SAVINGS = 1.3
#: Floor on end-to-end adversary-search evaluations per second —
#: lenient for slow CI, but catches a fallback off the vectorized
#: engines (measured hundreds/s on a dev box).
MIN_ADVERSARY_EVALS_PER_SEC = 1.0


def sources_digest(record: str) -> str:
    """Stable digest of the sources ``record`` measures (content, not
    mtimes)."""
    hasher = hashlib.sha256()
    for entry in RECORDS[record][1]:
        if "*" in entry:
            paths = sorted(
                str(path.relative_to(REPO_ROOT)) for path in REPO_ROOT.glob(entry)
            )
        else:
            paths = [entry]
        for relative in paths:
            path = REPO_ROOT / relative
            hasher.update(relative.encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes() if path.exists() else b"<missing>")
            hasher.update(b"\0")
    return hasher.hexdigest()


def _load(record: str) -> Dict[str, object]:
    path = REPO_ROOT / record
    if not path.exists():
        raise AssertionError(
            f"{record} is missing — run the benchmark "
            f"(PYTHONPATH=src python -m pytest benchmarks/{RECORDS[record][0]} "
            f"-q --benchmark-disable) and commit the refreshed record"
        )
    return json.loads(path.read_text())


def _check_staleness(record: str, payload: Dict[str, object], errors: List[str]):
    recorded = payload.get("sources_digest")
    current = sources_digest(record)
    if recorded is None:
        errors.append(
            f"{record}: no sources_digest recorded — re-run the benchmarks "
            f"so the record is tied to the engine sources"
        )
    elif recorded != current:
        errors.append(
            f"{record}: stale — engine sources changed since this record "
            f"was measured (digest {recorded[:12]}… != {current[:12]}…); "
            f"re-run the benchmarks and commit the refreshed JSON"
        )


def check(verbose: bool = True) -> List[str]:
    """Run every gate; return the list of failures (empty = pass)."""
    errors: List[str] = []
    records = {}
    for record, (_, sources) in RECORDS.items():
        if sources is not None:
            records[record] = _load(record)
            _check_staleness(record, records[record], errors)

    throughput = records["BENCH_engine_throughput.json"]
    n1024 = [
        case
        for case in throughput.get("cases", [])
        if case.get("case") == "batched_vs_serial" and case.get("n") == 1024
    ]
    if not n1024:
        errors.append(
            f"BENCH_engine_throughput.json: no batched_vs_serial case at "
            f"n=1024 — the regression that motivated the gate is unmeasured"
        )
    for case in n1024:
        speedup = float(case.get("speedup", 0.0))
        label = f"batched vs serial n=1024 (mode={case.get('rng_mode')})"
        if speedup < MIN_BATCHED_SPEEDUP_N1024:
            errors.append(
                f"{label}: speedup {speedup:.2f} < "
                f"{MIN_BATCHED_SPEEDUP_N1024} — the batched engine "
                f"regressed below the serial loop again"
            )
        elif verbose:
            print(f"  PASS  {label}: speedup {speedup:.2f}x")

    count = records["BENCH_count_engine.json"]
    vs_batched = [
        case
        for case in count.get("cases", [])
        if case.get("case") == "count_vs_batched_per_round"
        and case.get("n") == 1_000_000
    ]
    if not vs_batched:
        errors.append(
            f"BENCH_count_engine.json: no count_vs_batched_per_round "
            f"case at n=1e6 — the tentpole speedup claim is unmeasured"
        )
    for case in vs_batched:
        ratio = float(case.get("speedup", 0.0))
        if ratio < MIN_COUNT_VS_BATCHED_N1E6:
            errors.append(
                f"count vs batched per-round at n=1e6: {ratio:.1f}x < "
                f"{MIN_COUNT_VS_BATCHED_N1E6}x — the count-level hot "
                f"path lost its asymptotic advantage"
            )
        elif verbose:
            print(
                f"  PASS  count vs batched per-round n=1e6: {ratio:.1f}x"
            )

    large = [
        case
        for case in count.get("cases", [])
        if case.get("case") == "count_sf_full_run"
        and case.get("n") == 100_000_000
    ]
    if not large:
        errors.append(
            f"BENCH_count_engine.json: no count_sf_full_run case at "
            f"n=1e8 — the O(|Sigma|) memory/scale claim is unmeasured"
        )
    for case in large:
        peak = int(case.get("peak_bytes", 1 << 62))
        if peak > 64 * 1024 * 1024:
            errors.append(
                f"count SF at n=1e8 allocated {peak / 1e6:.1f} MB — the "
                f"engine is no longer O(|Sigma|) in memory"
            )
        elif verbose:
            print(
                f"  PASS  count SF n=1e8: {case.get('seconds')}s, "
                f"peak {peak / 1e6:.2f} MB"
            )

    service = records["BENCH_service_load.json"]
    hit_cases = [
        case
        for case in service.get("cases", [])
        if case.get("case") == "run_cache_hit"
    ]
    if not hit_cases:
        errors.append(
            f"BENCH_service_load.json: no run_cache_hit case — the "
            f"content-addressed cache claim is unmeasured"
        )
    for case in hit_cases:
        speedup = float(case.get("speedup", 0.0))
        if speedup < MIN_CACHE_HIT_SPEEDUP:
            errors.append(
                f"service cache hit: {speedup:.1f}x < "
                f"{MIN_CACHE_HIT_SPEEDUP}x over cold recomputation — the "
                f"cache no longer pays for itself"
            )
        elif verbose:
            print(
                f"  PASS  service cache hit: {speedup:.1f}x vs cold run "
                f"(hit p99 {case.get('hit_p99_ms')} ms)"
            )
    health_cases = [
        case
        for case in service.get("cases", [])
        if case.get("case") == "health_throughput"
    ]
    if not health_cases:
        errors.append(
            f"BENCH_service_load.json: no health_throughput case — the "
            f"per-request overhead is unmeasured"
        )
    for case in health_cases:
        rps = float(case.get("requests_per_sec", 0.0))
        if rps < MIN_HEALTH_RPS:
            errors.append(
                f"service GET /health: {rps:.1f} req/s < {MIN_HEALTH_RPS} "
                f"— the front-end's fixed per-request cost regressed"
            )
        elif verbose:
            print(
                f"  PASS  service GET /health: {rps:.1f} req/s "
                f"(p99 {case.get('p99_ms')} ms)"
            )

    net = records["BENCH_net_roundtrip.json"]
    roundtrip_cases = [
        case
        for case in net.get("cases", [])
        if case.get("case") == "cluster_roundtrip" and case.get("peers") == 64
    ]
    if not roundtrip_cases:
        errors.append(
            f"BENCH_net_roundtrip.json: no cluster_roundtrip case at "
            f"64 peers — the deployment's round throughput is unmeasured"
        )
    for case in roundtrip_cases:
        rps = float(case.get("rounds_per_sec", 0.0))
        if rps < MIN_NET_ROUNDS_PER_SEC:
            errors.append(
                f"net cluster round-trip (64 peers): {rps:.2f} rounds/s < "
                f"{MIN_NET_ROUNDS_PER_SEC} — the UDP round barrier "
                f"regressed"
            )
        elif verbose:
            print(
                f"  PASS  net cluster 64 peers: {rps:.1f} rounds/s "
                f"({case.get('datagrams_per_sec')} datagrams/s)"
            )

    topology = records["BENCH_topology_pull.json"]
    sampler_cases = [
        case
        for case in topology.get("cases", [])
        if case.get("case") == "sampler_throughput"
    ]
    if not sampler_cases:
        errors.append(
            f"BENCH_topology_pull.json: no sampler_throughput case — "
            f"the CSR neighbor-sampling hot path is unmeasured"
        )
    for case in sampler_cases:
        rate = float(case.get("samples_per_sec", 0.0))
        label = f"topology sampler ({case.get('family')}, n={case.get('n')})"
        if rate < MIN_TOPOLOGY_SAMPLES_PER_SEC:
            errors.append(
                f"{label}: {rate:.3g} samples/s < "
                f"{MIN_TOPOLOGY_SAMPLES_PER_SEC:.0e} — graph sampling "
                f"regressed off the vectorized gather path"
            )
        elif verbose:
            print(f"  PASS  {label}: {rate:.3g} samples/s")
    comparison_families = {
        case.get("family")
        for case in topology.get("cases", [])
        if case.get("case") == "sf_vs_hybrid"
        and case.get("sf_success") is not None
        and case.get("hybrid_success") is not None
    }
    if len(comparison_families) < MIN_TOPOLOGY_FAMILIES:
        errors.append(
            f"BENCH_topology_pull.json: sf_vs_hybrid covers only "
            f"{sorted(comparison_families)} — the EXT4 comparison needs "
            f"at least {MIN_TOPOLOGY_FAMILIES} graph families"
        )
    elif verbose:
        print(
            f"  PASS  sf_vs_hybrid compared on "
            f"{len(comparison_families)} families: "
            f"{sorted(comparison_families)}"
        )

    adversary = records["BENCH_adversary_search.json"]
    savings_cases = [
        case
        for case in adversary.get("cases", [])
        if case.get("case") == "sprt_trial_savings"
    ]
    if not savings_cases:
        errors.append(
            f"BENCH_adversary_search.json: no sprt_trial_savings case — "
            f"the SPRT-gated screening claim is unmeasured"
        )
    for case in savings_cases:
        ratio = float(case.get("savings_ratio", 0.0))
        if ratio < MIN_SPRT_TRIAL_SAVINGS:
            errors.append(
                f"adversary SPRT screening: {ratio:.2f}x < "
                f"{MIN_SPRT_TRIAL_SAVINGS}x savings over fixed-size "
                f"testing — sequential early stopping regressed"
            )
        elif verbose:
            print(
                f"  PASS  adversary SPRT screening: {ratio:.2f}x trial "
                f"savings ({case.get('sequential_trials')} vs "
                f"{case.get('fixed_trials')} fixed)"
            )
    throughput_cases = [
        case
        for case in adversary.get("cases", [])
        if case.get("case") == "search_throughput"
    ]
    if not throughput_cases:
        errors.append(
            f"BENCH_adversary_search.json: no search_throughput case — "
            f"the end-to-end search cost is unmeasured"
        )
    for case in throughput_cases:
        rate = float(case.get("evals_per_sec", 0.0))
        if rate < MIN_ADVERSARY_EVALS_PER_SEC:
            errors.append(
                f"adversary search throughput: {rate:.2f} evaluations/s "
                f"< {MIN_ADVERSARY_EVALS_PER_SEC} — the search fell off "
                f"the vectorized engine path"
            )
        elif verbose:
            print(
                f"  PASS  adversary search: {rate:.1f} evaluations/s "
                f"({case.get('trials')} trials in {case.get('seconds')}s)"
            )

    return errors


def main() -> int:
    print("benchmark regression gate")
    try:
        errors = check()
    except AssertionError as exc:
        errors = [str(exc)]
    for error in errors:
        print(f"  FAIL  {error}")
    print("gate: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
