"""Golden-trace fixtures pinning exact RNG-consumption order.

Every engine is deterministic given a seed, so a short reference run can
be summarised by a digest of its full trajectory.  The digests live in
``tests/goldens/*.json``; a refactor that reorders random draws (e.g.
swapping the order of the index-sampling and noise-uniform streams)
changes the digest even when the *distribution* of outcomes is untouched
— exactly the class of silent drift differential tests cannot see.

Regenerate after an intentional RNG-order change with::

    repro-spreading verify --update-goldens

and commit the resulting JSON diff.  CI fails when regeneration produces
a diff (stale goldens).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..analysis import MeanFieldHandoff, run_trials
from ..baselines import (
    NoisyMajorityDynamics,
    NoisyVoterModel,
    ThreeMajorityDynamics,
    UndecidedStateDynamics,
)
from ..engines import create_engine
from ..faults import ByzantineDisplayFault, CrashFault, NoiseMisspecification
from ..model import (
    BatchedPullEngine,
    Population,
    PopulationConfig,
    PullEngine,
)
from ..model.async_engine import AsyncPullEngine
from ..noise import NoiseMatrix
from ..protocols import (
    BatchedSourceFilter,
    CountSelfStabilizingSourceFilter,
    CountSourceFilter,
    FastAlternatingSourceFilter,
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SSFSchedule,
    SelfStabilizingSourceFilterProtocol,
    SourceFilterProtocol,
)
from ..protocols.ssf_async import AsyncSelfStabilizingSourceFilter
from ..topology import RandomRegularTopology
from ..types import SourceCounts

__all__ = [
    "trajectory_digest",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenScenario",
    "GOLDEN_SCENARIOS",
    "default_goldens_dir",
    "compute_golden_records",
    "write_goldens",
    "compare_goldens",
]

GOLDEN_SCHEMA_VERSION = 1


def trajectory_digest(*parts: Union[int, float, bool, None, np.ndarray]) -> str:
    """SHA-256 over a canonical byte encoding of trajectory data.

    Arrays contribute their dtype kind, shape and raw bytes (cast to
    int64/float64 so dtype choices do not affect the digest); scalars are
    encoded through the same path as 0-d arrays.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if part is None:
            hasher.update(b"<none>")
            continue
        array = np.asarray(part)
        if array.dtype.kind in "bui":
            array = array.astype(np.int64)
        elif array.dtype.kind == "f":
            array = array.astype(np.float64)
        else:
            raise TypeError(
                f"cannot digest array of dtype {array.dtype!r}"
            )
        hasher.update(array.dtype.kind.encode())
        hasher.update(repr(array.shape).encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


@dataclasses.dataclass(frozen=True)
class GoldenScenario:
    """One deterministic reference run: a name plus a record factory."""

    name: str
    description: str
    compute: Callable[[], Dict[str, object]]


def _py(value: object) -> object:
    """Coerce numpy scalars (and containers of them) to JSON-safe types."""
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _record(
    engine: str,
    seed: int,
    params: Dict[str, object],
    digest: str,
    summary: Dict[str, object],
) -> Dict[str, object]:
    summary = {key: _py(value) for key, value in summary.items()}
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "engine": engine,
        "seed": seed,
        "params": params,
        "digest": digest,
        "summary": summary,
    }


def _sf_setup():
    config = PopulationConfig(n=48, sources=SourceCounts(1, 3), h=4)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=24)
    return config, population, noise, schedule


def _reference_sf() -> Dict[str, object]:
    seed = 2025
    config, population, noise, schedule = _sf_setup()
    engine = PullEngine(population, noise)
    protocol = SourceFilterProtocol(schedule)
    result = engine.run(
        protocol,
        max_rounds=schedule.total_rounds,
        rng=np.random.default_rng(seed),
        record_trace=True,
    )
    fractions = np.array(
        [entry.fraction_correct for entry in result.trace], dtype=np.float64
    )
    digest = trajectory_digest(
        result.final_opinions,
        fractions,
        result.rounds_executed,
        -1 if result.consensus_round is None else result.consensus_round,
    )
    return _record(
        "PullEngine+SourceFilterProtocol",
        seed,
        {"n": config.n, "s0": 1, "s1": 3, "h": config.h,
         "delta": 0.2, "m": schedule.m},
        digest,
        {
            "converged": bool(result.converged),
            "consensus_round": result.consensus_round,
            "rounds_executed": int(result.rounds_executed),
            "num_correct_final": int(
                (np.asarray(result.final_opinions)
                 == population.correct_opinion).sum()
            ),
        },
    )


def _reference_ssf() -> Dict[str, object]:
    seed = 2026
    config = PopulationConfig(n=40, sources=SourceCounts(0, 2), h=8)
    population = Population(config, rng=np.random.default_rng(1))
    noise = NoiseMatrix.uniform(0.1, 4)
    schedule = SSFSchedule.from_config(config, 0.1, m=16)
    engine = PullEngine(population, noise)
    protocol = SelfStabilizingSourceFilterProtocol(schedule)
    result = engine.run(
        protocol,
        max_rounds=4 * schedule.epoch_rounds,
        rng=np.random.default_rng(seed),
        stop_on_consensus=False,
    )
    digest = trajectory_digest(
        result.final_opinions,
        protocol.weak_opinions,
        protocol.memory_fill,
        result.rounds_executed,
    )
    return _record(
        "PullEngine+SelfStabilizingSourceFilterProtocol",
        seed,
        {"n": config.n, "s0": 0, "s1": 2, "h": config.h,
         "delta": 0.1, "m": schedule.m},
        digest,
        {
            "rounds_executed": int(result.rounds_executed),
            "num_correct_final": int(
                (np.asarray(result.final_opinions)
                 == population.correct_opinion).sum()
            ),
            "num_correct_weak": int(
                (np.asarray(protocol.weak_opinions)
                 == population.correct_opinion).sum()
            ),
        },
    )


def _batched_sf_spawn() -> Dict[str, object]:
    seed = 421
    replicas = 3
    config, population, noise, schedule = _sf_setup()
    engine = BatchedPullEngine(population, noise)
    results = engine.run(
        BatchedSourceFilter(schedule),
        max_rounds=schedule.total_rounds,
        replicas=replicas,
        rng=seed,
    )
    parts: List[Union[int, np.ndarray]] = []
    for result in results:
        parts.append(result.final_opinions)
        parts.append(int(result.rounds_executed))
        parts.append(
            -1 if result.consensus_round is None else result.consensus_round
        )
    digest = trajectory_digest(*parts)
    return _record(
        "BatchedPullEngine+BatchedSourceFilter[spawn]",
        seed,
        {"n": config.n, "s0": 1, "s1": 3, "h": config.h,
         "delta": 0.2, "m": schedule.m, "replicas": replicas},
        digest,
        {
            "converged": [bool(r.converged) for r in results],
            "consensus_rounds": [r.consensus_round for r in results],
        },
    )


def _sf_parts(result) -> List[Union[int, np.ndarray]]:
    return [
        result.weak_opinions,
        result.final_opinions,
        np.asarray(result.boost_trace, dtype=np.float64),
        result.total_rounds,
    ]


def _ssf_parts(result) -> List[Union[int, np.ndarray]]:
    return [
        result.final_opinions,
        result.final_weak_opinions,
        np.asarray(result.trace, dtype=np.float64),
        result.rounds_executed,
        -1 if result.consensus_round is None else result.consensus_round,
    ]


def _fast_params(config, delta, schedule, **extra) -> Dict[str, object]:
    return {"n": config.n, "s0": config.s0, "s1": config.s1, "h": config.h,
            "delta": delta, "m": schedule.m, **extra}


def _fast_sf_config():
    config = PopulationConfig(n=128, sources=SourceCounts(0, 1), h=32)
    return config, SFSchedule.from_config(config, 0.2, m=64)


def _fast_ssf_config():
    config = PopulationConfig(n=128, sources=SourceCounts(0, 4), h=16)
    return config, SSFSchedule.from_config(config, 0.1)


def _fast_sf() -> Dict[str, object]:
    seed = 7
    config, schedule = _fast_sf_config()
    engine = FastSourceFilter(config, 0.2, schedule=schedule)
    result = engine.run(rng=seed)
    return _record(
        "FastSourceFilter",
        seed,
        _fast_params(config, 0.2, schedule),
        trajectory_digest(*_sf_parts(result)),
        {
            "converged": bool(result.converged),
            "total_rounds": int(result.total_rounds),
            "weak_fraction_correct": round(
                float(result.weak_fraction_correct), 12
            ),
        },
    )


def _fast_sf_faulted() -> Dict[str, object]:
    seed = 19
    config = PopulationConfig(n=256, sources=SourceCounts(0, 8), h=32)
    schedule = SFSchedule.from_config(config, 0.1, m=128)
    engine = FastSourceFilter(
        config, 0.1, schedule=schedule, sample_loss=0.2,
        fault_model=ByzantineDisplayFault(fraction=0.02, mode="fixed"),
    )
    result = engine.run(rng=seed)
    return _record(
        "FastSourceFilter[ByzantineDisplayFault fixed, sample_loss]",
        seed,
        _fast_params(config, 0.1, schedule, sample_loss=0.2,
                     byzantine_fraction=0.02),
        trajectory_digest(*_sf_parts(result)),
        {"converged": bool(result.converged),
         "final_fraction_correct": result.boost_trace[-1]},
    )


def _fast_sf_graph() -> Dict[str, object]:
    seed = 23
    config = PopulationConfig(n=128, sources=SourceCounts(0, 4), h=32)
    schedule = SFSchedule.from_config(config, 0.2, m=64)
    topology = RandomRegularTopology(degree=8).bind(
        config.n, np.random.default_rng(5)
    )
    engine = FastSourceFilter(
        config, 0.2, schedule=schedule, topology=topology
    )
    result = engine.run(rng=seed)
    return _record(
        "FastSourceFilter[RandomRegularTopology pre-bound]",
        seed,
        _fast_params(config, 0.2, schedule, degree=8, graph_seed=5),
        trajectory_digest(*_sf_parts(result)),
        {"converged": bool(result.converged),
         "final_fraction_correct": result.boost_trace[-1]},
    )


def _fast_alternating_sf() -> Dict[str, object]:
    seed = 29
    config, schedule = _fast_sf_config()
    engine = FastAlternatingSourceFilter(config, 0.2, schedule=schedule)
    result = engine.run(rng=seed)
    return _record(
        "FastAlternatingSourceFilter",
        seed,
        _fast_params(config, 0.2, schedule),
        trajectory_digest(*_sf_parts(result)),
        {"converged": bool(result.converged),
         "final_fraction_correct": result.boost_trace[-1]},
    )


def _fast_ssf() -> Dict[str, object]:
    seed = 11
    config = PopulationConfig(n=64, sources=SourceCounts(0, 2), h=16)
    schedule = SSFSchedule.from_config(config, 0.1, m=32)
    engine = FastSelfStabilizingSourceFilter(config, 0.1, schedule=schedule)
    result = engine.run(rng=seed)
    return _record(
        "FastSelfStabilizingSourceFilter",
        seed,
        _fast_params(config, 0.1, schedule),
        trajectory_digest(*_ssf_parts(result)),
        {
            "converged": bool(result.converged),
            "consensus_round": result.consensus_round,
            "rounds_executed": int(result.rounds_executed),
        },
    )


def _fast_ssf_crash() -> Dict[str, object]:
    seed = 37
    config, schedule = _fast_ssf_config()
    epoch = schedule.epoch_rounds
    fault = CrashFault(
        fraction=0.25, crash_round=epoch + 3, recovery_round=3 * epoch + 5
    )
    engine = FastSelfStabilizingSourceFilter(
        config, 0.1, schedule=schedule, fault_model=fault
    )
    result = engine.run(rng=seed)
    return _record(
        "FastSelfStabilizingSourceFilter[CrashFault with recovery]",
        seed,
        _fast_params(config, 0.1, schedule, crash_fraction=0.25,
                     crash_round=epoch + 3, recovery_round=3 * epoch + 5),
        trajectory_digest(*_ssf_parts(result)),
        {
            "converged": bool(result.converged),
            "consensus_round": result.consensus_round,
            "rounds_executed": int(result.rounds_executed),
        },
    )


def _async_ssf() -> Dict[str, object]:
    seed = 13
    config = PopulationConfig(n=32, sources=SourceCounts(0, 1), h=16)
    population = Population(config, rng=np.random.default_rng(3))
    noise = NoiseMatrix.uniform(0.05, 4)
    schedule = SSFSchedule.from_config(config, 0.05)
    protocol = AsyncSelfStabilizingSourceFilter(schedule)
    engine = AsyncPullEngine(population, noise)
    result = engine.run(
        protocol,
        max_activations=config.n * 8 * schedule.epoch_rounds,
        rng=np.random.default_rng(seed),
        consensus_patience=config.n * schedule.epoch_rounds,
    )
    digest = trajectory_digest(
        result.final_opinions,
        protocol.weak_opinions,
        result.activations_executed,
        -1 if result.consensus_activation is None
        else result.consensus_activation,
    )
    return _record(
        "AsyncPullEngine+AsyncSelfStabilizingSourceFilter",
        seed,
        {"n": config.n, "s0": 0, "s1": 1, "h": config.h,
         "delta": 0.05, "m": schedule.m},
        digest,
        {
            "converged": bool(result.converged),
            "activations_executed": int(result.activations_executed),
            "num_correct_final": int(
                (np.asarray(result.final_opinions)
                 == population.correct_opinion).sum()
            ),
        },
    )


def _zealot_baselines() -> Dict[str, object]:
    seed = 41
    # (n, s0, s1, h, delta, run keywords): minority zealots under
    # noise, a correct-0 population, and a run past consensus.
    setups = [
        (64, 2, 6, 5, 0.02, {"max_rounds": 60, "patience": 2}),
        (24, 3, 0, 4, 0.01, {"max_rounds": 200, "patience": 2}),
        (24, 0, 3, 4, 0.01, {"max_rounds": 40, "stop_on_consensus": False}),
    ]
    models = (NoisyVoterModel, NoisyMajorityDynamics,
              ThreeMajorityDynamics, UndecidedStateDynamics)
    parts: List[Union[int, np.ndarray]] = []
    summary: Dict[str, object] = {}
    for offset, model in enumerate(models):
        rounds = []
        for n, s0, s1, h, delta, keywords in setups:
            config = PopulationConfig(n=n, sources=SourceCounts(s0, s1), h=h)
            result = model(config, delta).run(
                rng=seed + offset, record_trace=True, **keywords
            )
            parts += [
                result.final_opinions,
                np.asarray(result.trace, dtype=np.float64),
                result.rounds_executed,
                -1 if result.consensus_round is None
                else result.consensus_round,
                int(result.converged),
                int(result.strict_converged),
            ]
            rounds.append(int(result.rounds_executed))
        summary[model.__name__] = rounds
    return _record(
        "+".join(model.__name__ for model in models),
        seed,
        {"setups": [list(setup) for setup in setups]},
        trajectory_digest(*parts),
        summary,
    )


def _count_parts(result) -> List[Union[int, np.ndarray]]:
    trace = result.trace
    return [
        int(result.converged),
        -1 if result.consensus_round is None else result.consensus_round,
        result.rounds_executed,
        result.final_opinion_counts,
        np.array([r.round_index for r in trace], dtype=np.int64),
        np.array([r.fraction_correct for r in trace], dtype=np.float64),
        np.array([r.num_correct for r in trace], dtype=np.int64),
    ]


def _trial_parts(stats) -> List[Union[int, np.ndarray]]:
    return [
        stats.trials,
        stats.successes,
        np.asarray(stats.values, dtype=np.float64),
        stats.failed_trials,
    ]


def _certify_handle(protocol: str, n: int):
    """The count-engine targets the certify benchmark workload runs."""
    if protocol == "sf":
        config = PopulationConfig(n=n, sources=SourceCounts(1, 3), h=16)
        return create_engine("count", "sf", config, 0.2)
    config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)
    return create_engine("count", "ssf", config, 0.1)


def _count_sf() -> Dict[str, object]:
    seed = 43
    # (n, delta, protocol keywords): three population scales, the
    # mean-field handoff, and a true channel so much noisier than
    # assumed that the run fails.
    setups = [
        (1_000, 0.2, {}),
        (10**6, 0.2, {}),
        (10**8, 0.2, {}),
        (10**6, 0.2, {"handoff": MeanFieldHandoff()}),
        (1_000, 0.2, {"fault_model": NoiseMisspecification.uniform(0.47)}),
    ]
    parts: List[Union[int, np.ndarray]] = []
    converged = []
    for offset, (n, delta, keywords) in enumerate(setups):
        config = PopulationConfig(n=n, sources=SourceCounts(1, 3), h=16)
        protocol = CountSourceFilter(config, delta, **keywords)
        result = protocol.run(rng=seed + offset, record_trace=True)
        parts += _count_parts(result)
        parts += [protocol.weak_count,
                  np.asarray(protocol.boost_trace, dtype=np.float64)]
        converged.append(bool(result.converged))
    successes = []
    for n in (10**6, 10**8):
        stats = run_trials(_certify_handle("sf", n), 25, seed=seed)
        parts += _trial_parts(stats)
        successes.append(stats.successes)
    return _record(
        "CountPullEngine+CountSourceFilter",
        seed,
        {"setups": [[n, delta, sorted(keywords)] for n, delta, keywords in setups],
         "s0": 1, "s1": 3, "h": 16, "run_trials": [25, [10**6, 10**8]]},
        trajectory_digest(*parts),
        {"converged": converged, "run_trials_successes": successes},
    )


def _count_ssf() -> Dict[str, object]:
    seed = 47
    # (n, s1, h, delta, run keywords): a small population to
    # consensus, the certify scale, and a run cut mid-epoch.
    small = PopulationConfig(n=256, sources=SourceCounts(0, 2), h=16)
    cut = 2 * SSFSchedule.from_config(small, 0.05).epoch_rounds + 3
    setups = [
        (256, 2, 16, 0.05, {}),
        (10**6, 1, 10**6, 0.1, {}),
        (256, 2, 16, 0.05, {"max_rounds": cut, "stop_on_consensus": False}),
    ]
    parts: List[Union[int, np.ndarray]] = []
    converged, rounds = [], []
    for offset, (n, s1, h, delta, keywords) in enumerate(setups):
        config = PopulationConfig(n=n, sources=SourceCounts(0, s1), h=h)
        protocol = CountSelfStabilizingSourceFilter(config, delta)
        result = protocol.run(rng=seed + offset, record_trace=True, **keywords)
        parts += _count_parts(result)
        parts += [protocol.weak_count]
        converged.append(bool(result.converged))
        rounds.append(int(result.rounds_executed))
    stats = run_trials(_certify_handle("ssf", 10**6), 25, seed=seed)
    parts += _trial_parts(stats)
    return _record(
        "CountPullEngine+CountSelfStabilizingSourceFilter",
        seed,
        {"setups": [[n, s1, h, delta, sorted(keywords)]
                    for n, s1, h, delta, keywords in setups],
         "max_rounds_cut": cut, "run_trials": [25, [10**6]]},
        trajectory_digest(*parts),
        {"converged": converged, "rounds_executed": rounds,
         "run_trials_successes": stats.successes},
    )


#: The committed conformance fixtures, one JSON file per entry.
GOLDEN_SCENARIOS: List[GoldenScenario] = [
    GoldenScenario(
        "reference_sf",
        "Reference PullEngine driving Algorithm 1 (SF), full schedule",
        _reference_sf,
    ),
    GoldenScenario(
        "reference_ssf",
        "Reference PullEngine driving Algorithm 2 (SSF), four epochs",
        _reference_ssf,
    ),
    GoldenScenario(
        "batched_sf_spawn",
        "BatchedPullEngine, replica r on spawn_generators(seed, R)[r] "
        "(bit-identity anchor)",
        _batched_sf_spawn,
    ),
    GoldenScenario(
        "fast_sf",
        "FastSourceFilter exchangeability-shortcut engine",
        _fast_sf,
    ),
    GoldenScenario(
        "fast_ssf",
        "FastSelfStabilizingSourceFilter vectorized engine",
        _fast_ssf,
    ),
    GoldenScenario(
        "fast_sf_faulted",
        "FastSourceFilter under a fixed Byzantine subset plus sample loss",
        _fast_sf_faulted,
    ),
    GoldenScenario(
        "fast_sf_graph",
        "FastSourceFilter on a pre-bound random 8-regular graph",
        _fast_sf_graph,
    ),
    GoldenScenario(
        "fast_alternating_sf",
        "FastAlternatingSourceFilter (alternating-display listening stage)",
        _fast_alternating_sf,
    ),
    GoldenScenario(
        "fast_ssf_crash",
        "FastSelfStabilizingSourceFilter under a scheduled crash with recovery",
        _fast_ssf_crash,
    ),
    GoldenScenario(
        "async_ssf",
        "AsyncPullEngine driving the asynchronous SSF",
        _async_ssf,
    ),
    GoldenScenario(
        "zealot_baselines",
        "Voter, h-majority, 3-majority and USD zealot baselines, traced",
        _zealot_baselines,
    ),
    GoldenScenario(
        "count_sf",
        "CountPullEngine driving SF at n = 1e3..1e8, traced, plus "
        "certify-scale run_trials",
        _count_sf,
    ),
    GoldenScenario(
        "count_ssf",
        "CountPullEngine driving SSF at n = 256 and 1e6, one run cut by "
        "max_rounds, plus certify-scale run_trials",
        _count_ssf,
    ),
]


def default_goldens_dir() -> pathlib.Path:
    """Locate ``tests/goldens`` from the repo layout or the cwd."""
    here = pathlib.Path(__file__).resolve()
    # src/repro/verify/golden.py -> repo root is parents[3].
    candidates = [
        here.parents[3] / "tests" / "goldens",
        pathlib.Path.cwd() / "tests" / "goldens",
    ]
    for candidate in candidates:
        if candidate.parent.is_dir():
            return candidate
    return candidates[0]


def compute_golden_records() -> Dict[str, Dict[str, object]]:
    """Re-run every scenario and return fresh records keyed by name."""
    records = {}
    for scenario in GOLDEN_SCENARIOS:
        record = scenario.compute()
        record["name"] = scenario.name
        record["description"] = scenario.description
        records[scenario.name] = record
    return records


def write_goldens(
    directory: Optional[Union[str, pathlib.Path]] = None,
) -> List[pathlib.Path]:
    """Regenerate every golden file; returns the paths written."""
    directory = pathlib.Path(directory or default_goldens_dir())
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, record in sorted(compute_golden_records().items()):
        path = directory / f"{name}.json"
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        written.append(path)
    return written


def compare_goldens(
    directory: Optional[Union[str, pathlib.Path]] = None,
) -> List[str]:
    """Recompute all scenarios and diff against the committed fixtures.

    Returns a list of human-readable mismatch descriptions; empty means
    the goldens are fresh.
    """
    directory = pathlib.Path(directory or default_goldens_dir())
    mismatches: List[str] = []
    fresh = compute_golden_records()
    for name, record in sorted(fresh.items()):
        path = directory / f"{name}.json"
        if not path.is_file():
            mismatches.append(
                f"{name}: missing golden file {path} "
                f"(run verify --update-goldens)"
            )
            continue
        try:
            stored = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            mismatches.append(f"{name}: unreadable golden file {path}: {exc}")
            continue
        if stored.get("digest") != record["digest"]:
            mismatches.append(
                f"{name}: trajectory digest drifted "
                f"(stored {str(stored.get('digest'))[:12]}…, "
                f"recomputed {str(record['digest'])[:12]}…; "
                f"summary stored={stored.get('summary')} "
                f"recomputed={record['summary']})"
            )
        elif stored.get("summary") != record["summary"]:
            mismatches.append(
                f"{name}: summary drifted while digest matched "
                f"(stored={stored.get('summary')} "
                f"recomputed={record['summary']})"
            )
    known = {scenario.name for scenario in GOLDEN_SCENARIOS}
    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            if path.stem not in known:
                mismatches.append(
                    f"{path.name}: stray golden file with no matching "
                    f"scenario (delete it or add a scenario)"
                )
    return mismatches
