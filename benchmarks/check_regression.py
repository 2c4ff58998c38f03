"""Benchmark regression gate: thresholds + staleness for BENCH_*.json.

The repo commits machine-readable benchmark records at its root.
:data:`RECORDS` is the one table of them: each record's benchmark
module, the sources it measures and its gate rows.  :func:`check` runs
one loop over that table:

* **Thresholds** — each :class:`Gate` row bounds one field of every
  case its selector matches, as a floor or a ceiling, and states the
  claim from the docs that the bound backs.  A record with no matching
  case fails as unmeasured; every matching case past the bound fails.
  Only the EXT4 graph-family count is checked outside the table.
* **Staleness** — each gated record stores a digest of the source
  files that produced it.  When those sources change, the digest stops
  matching and the gate fails until the record's benchmark is re-run
  and the refreshed JSON committed — numbers in the repo can never
  silently describe an engine that no longer exists.

Run it directly::

    PYTHONPATH=src python -m benchmarks.check_regression
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import sys
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: The seeding code.  The throughput, count-engine, service and
#: adversary records time runs whose streams come from
#: ``spawn_generators``, ``spawn_seeds`` or ``coerce_seed``.
SEEDING_SOURCES = ["src/repro/rng.py", "src/repro/types.py"]

#: Source files whose behavior the count-engine record measures: its
#: benchmark runs the count, mean-field, batched and fast engines.
#: Editing any of these invalidates the committed record.
COUNT_ENGINE_SOURCES = SEEDING_SOURCES + [
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

#: Exactly the modules the engine-throughput benchmark runs: the
#: agent-level and batched engines, the fast engines and the trial
#: runner with its loops.  It runs no count-engine code.
THROUGHPUT_SOURCES = SEEDING_SOURCES + [
    "src/repro/model/engine.py",
    "src/repro/model/batched_engine.py",
    "src/repro/model/population.py",
    "src/repro/noise/matrix.py",
    "src/repro/protocols/sf.py",
    "src/repro/protocols/sf_batched.py",
    "src/repro/protocols/ssf.py",
    "src/repro/protocols/parameters.py",
    "src/repro/protocols/sf_fast.py",
    "src/repro/protocols/ssf_fast.py",
    "src/repro/analysis/trials.py",
    "src/repro/analysis/resilience.py",
]

#: Source files whose behavior the service-load record measures —
#: the HTTP front-end, cache, job ledger, and the registry seam the
#: service routes every run through — plus what its cold jobs run: the
#: trial adapter and loops every ``trials`` job runs, the sweep every
#: ``/sweep`` runs, the agent-level engine and SF protocol, and the
#: telemetry every job records into.
SERVICE_SOURCES = SEEDING_SOURCES + [
    "src/repro/service/server.py",
    "src/repro/service/cache.py",
    "src/repro/service/jobs.py",
    "src/repro/service/client.py",
    "src/repro/analysis/trials.py",
    "src/repro/analysis/resilience.py",
    "src/repro/analysis/sweep.py",
    "src/repro/engines.py",
    "src/repro/model/engine.py",
    "src/repro/model/sampling.py",
    "src/repro/protocols/sf.py",
    "src/repro/protocols/parameters.py",
    "src/repro/noise/matrix.py",
    "src/repro/telemetry/*.py",
]


class Gate(NamedTuple):
    """One bound on ``field`` of every case that matches ``select``:
    ``op`` ``">="`` is a floor, ``"<="`` a ceiling.  ``label``, formatted
    with the case's fields, names the case; ``claim`` is what the bound
    backs, stated when it fails."""

    label: str
    select: Dict[str, object]
    field: str
    op: str
    bound: float
    claim: str


class Record(NamedTuple):
    """A committed record's benchmark module, digest sources (``None``:
    no digest and no gate here) and gate rows."""

    bench: str
    sources: Optional[List[str]]
    gates: Sequence[Gate] = ()


#: Every committed record.  A source entry with a ``*`` is a glob, so a
#: new module in that package invalidates the record without an edit
#: here.  The net record covers the networked-deployment package, the
#: topology record the topology package plus the graph builders, and the
#: adversary record the search package, the sequential-testing module its
#: SPRT savings claim depends on, the engine registry whose seam gate
#: routes each candidate, and what its SF candidates run: the count
#: engine, whose tail laws price every Byzantine and misspecification
#: candidate, and the fast engine, which re-checks them.
RECORDS: Dict[str, Record] = {
    "BENCH_engine_throughput.json": Record(
        "bench_engine_throughput.py", THROUGHPUT_SOURCES, [
            # A regression fixed once and kept fixed.
            Gate("batched vs serial n=1024",
                 {"case": "batched_vs_serial", "n": 1024}, "speedup", ">=", 1.0,
                 "the batched engine is never slower than the serial loop"),
        ]),
    "BENCH_telemetry_overhead.json": Record("bench_telemetry_overhead.py", None),
    "BENCH_count_engine.json": Record(
        "bench_count_engine.py", COUNT_ENGINE_SOURCES, [
            # In practice the margin is >10^3x.
            Gate("count vs batched per-round n=1e6",
                 {"case": "count_vs_batched_per_round", "n": 1_000_000},
                 "speedup", ">=", 10.0,
                 "the count-level hot path keeps its asymptotic advantage"),
            Gate("count SF n=1e8", {"case": "count_sf_full_run", "n": 100_000_000},
                 "peak_bytes", "<=", 64 * 1024 * 1024,
                 "the count engine is O(|Sigma|) in memory"),
        ]),
    "BENCH_service_load.json": Record(
        "bench_service_load.py", SERVICE_SOURCES, [
            # A cache hit must beat cold recomputation by this factor.
            Gate("service cache hit", {"case": "run_cache_hit"},
                 "speedup", ">=", 10.0,
                 "the content-addressed cache pays for itself"),
            # Floor on the service's fixed per-request overhead.
            Gate("service GET /health", {"case": "health_throughput"},
                 "requests_per_sec", ">=", 25.0,
                 "the front-end's fixed per-request cost stays low"),
        ]),
    "BENCH_net_roundtrip.json": Record(
        "bench_net_roundtrip.py", ["src/repro/net/*.py"], [
            # Floor on 64-peer cluster progress: a full PULL round (64
            # peers x h samples, request/response datagrams + barrier)
            # per second.  Measured ~15 rounds/s on a dev box; 1.0
            # keeps the gate robust to slow CI.
            Gate("net cluster 64 peers", {"case": "cluster_roundtrip", "peers": 64},
                 "rounds_per_sec", ">=", 1.0,
                 "the UDP round barrier keeps the cluster progressing"),
        ]),
    "BENCH_topology_pull.json": Record(
        "bench_topology_pull.py",
        ["src/repro/topology/*.py", "src/repro/model/structured.py"], [
            # Floor on CSR neighbor sampling at n=4096, h=8.  The
            # vectorized gather measures ~1e7 samples/s on a dev box;
            # 1e5 keeps the gate robust to slow CI while still catching
            # a fallback to Python loops.
            Gate("topology sampler ({family}, n={n})", {"case": "sampler_throughput"},
                 "samples_per_sec", ">=", 1e5,
                 "graph sampling stays on the vectorized gather path"),
        ]),
    "BENCH_adversary_search.json": Record(
        "bench_adversary_search.py",
        SEEDING_SOURCES + [
            "src/repro/adversary_search/*.py", "src/repro/analysis/sequential.py",
            "src/repro/engines.py",
            "src/repro/model/count_engine.py", "src/repro/protocols/sf_count.py",
            "src/repro/theory/tails.py", "src/repro/protocols/sf_fast.py",
            "src/repro/faults/*.py"], [
            # SPRT-gated candidate screening on the benchmark's mixed
            # benign/damaging pool (measured ~2-3x; 1.3 keeps the gate
            # robust to unlucky trial draws).
            Gate("adversary SPRT screening", {"case": "sprt_trial_savings"},
                 "savings_ratio", ">=", 1.3,
                 "sequential early stopping saves trials over fixed-size tests"),
            # End-to-end evaluations per second: lenient for slow CI, but
            # catches a fallback off the vectorized engines (measured
            # hundreds/s on a dev box).
            Gate("adversary search", {"case": "search_throughput"},
                 "evals_per_sec", ">=", 1.0,
                 "the search stays on the vectorized engine path"),
        ]),
}

#: The EXT4 record must compare SF and hybrid on at least this many
#: graph families for the docs' topology-frontier claim to be measured.
MIN_TOPOLOGY_FAMILIES = 3
TOPOLOGY = "BENCH_topology_pull.json"


def sources_digest(record: str) -> str:
    """Stable digest of the sources ``record`` measures (content, not
    mtimes)."""
    hasher = hashlib.sha256()
    for entry in RECORDS[record].sources:
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


def refresh_command(record: str) -> str:
    """The command that regenerates ``record``."""
    bench = RECORDS[record].bench
    return f"PYTHONPATH=src python -m pytest benchmarks/{bench} -q --benchmark-disable"


def check_record(
    record: str, payload: Dict[str, object], verbose: bool = True
) -> List[str]:
    """Staleness and every gate row of one loaded record (and, for the
    topology record, its family count)."""
    errors = _check_families(payload, verbose) if record == TOPOLOGY else []
    recorded, current = payload.get("sources_digest"), sources_digest(record)
    if recorded != current:
        errors.append(
            f"{record}: stale — recorded sources_digest {str(recorded)[:12]} "
            f"does not match its sources ({current[:12]}); re-run "
            f"{refresh_command(record)} and commit the refreshed JSON"
        )
    cases = payload.get("cases", [])
    for gate in RECORDS[record].gates:
        matching = [
            case for case in cases
            if all(case.get(key) == value for key, value in gate.select.items())
        ]
        if not matching:
            errors.append(
                f"{record}: no case matches {gate.select} — unmeasured: "
                f"{gate.claim}"
            )
        for case in matching:
            label = gate.label.format_map(defaultdict(lambda: "?", case))
            # A missing field is NaN, which fails either comparison.
            value = float(case.get(gate.field, math.nan))
            if value >= gate.bound if gate.op == ">=" else value <= gate.bound:
                if verbose:
                    print(f"  PASS  {label}: {gate.field} {value:.4g} "
                          f"{gate.op} {gate.bound:g}")
            else:
                errors.append(
                    f"{record}: {label}: {gate.field} {value:.4g} is not "
                    f"{gate.op} {gate.bound:g} — no longer true: {gate.claim}"
                )
    return errors


def _check_families(payload: Dict[str, object], verbose: bool) -> List[str]:
    families = sorted({
        case.get("family")
        for case in payload.get("cases", [])
        if case.get("case") == "sf_vs_hybrid"
        and case.get("sf_success") is not None
        and case.get("hybrid_success") is not None
    })
    if len(families) < MIN_TOPOLOGY_FAMILIES:
        return [
            f"{TOPOLOGY}: sf_vs_hybrid covers only {families} — the EXT4 "
            f"comparison needs at least {MIN_TOPOLOGY_FAMILIES} graph families"
        ]
    if verbose:
        print(f"  PASS  sf_vs_hybrid compared on {len(families)} families: {families}")
    return []


def check(verbose: bool = True) -> List[str]:
    """Run every gate; return the list of failures (empty = pass)."""
    errors: List[str] = []
    for record, entry in RECORDS.items():
        if entry.sources is None:
            continue
        path = REPO_ROOT / record
        if not path.exists():
            errors.append(f"{record} is missing — run {refresh_command(record)}")
            continue
        errors += check_record(record, json.loads(path.read_text()), verbose)
    return errors


def main() -> int:
    print("benchmark regression gate")
    errors = check()
    for error in errors:
        print(f"  FAIL  {error}")
    print("gate: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
