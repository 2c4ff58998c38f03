"""The conformance matrix: every engine pair, one command.

``repro-spreading verify`` runs the legs of ``_CHECKS`` at ``quick``
(CI smoke) or ``full`` (sharper statistical power) scale and reports a
pass/fail table.  The oracle is the serial agent-level
:class:`~repro.model.PullEngine`, the reference every other engine must
match.  The ``exact``, ``laws`` and ``reliability`` legs generate their
rows from :func:`repro.engines.capability_table` and the small tables
beside them, so a new engine needs rows, not a new leg.  The other legs
are hand-written because they test something other than engine
equivalence, or, like ``net``, boot a real UDP cluster per trial.
:data:`ORACLE_LINKS` records how each capability-table pair reaches the
oracle, and :data:`UNCHECKED_PAIRS` the pairs no leg compares.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
import traceback
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..analysis import ChaosSpec, ChaosTrial, ResilienceConfig
from ..analysis import repeat_trials, run_trials
from ..engines import EngineHandle, capability_table, create_engine, engine_spec
from ..exceptions import ConfigurationError, UnsupportedFeatureError
from ..model import BatchedPullEngine, Population, PopulationConfig, PullEngine
from ..model.async_engine import AsyncPullEngine
from ..noise import NoiseMatrix
from ..protocols import (
    BatchedSourceFilter,
    CountSourceFilter,
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SSFSchedule,
    SelfStabilizingSourceFilterProtocol,
    SourceFilterProtocol,
)
from ..protocols.ssf_async import AsyncSelfStabilizingSourceFilter
from ..types import SourceCounts
from .conformance import assert_engines_equivalent
from .golden import compare_goldens, default_goldens_dir, write_goldens
from .statistical import (
    FalsePositiveBudget,
    assert_proportions_close,
    assert_success_probability,
)

__all__ = ["CheckOutcome", "VerifyReport", "run_verify", "VERIFY_SCALES"]

VERIFY_SCALES = ("quick", "full")


@dataclasses.dataclass
class CheckOutcome:
    """Result of one conformance check."""

    name: str
    kind: str  # "exact" | "statistical" | "golden"
    passed: bool
    seconds: float
    detail: str = ""


@dataclasses.dataclass
class VerifyReport:
    """Aggregate outcome of one ``verify`` invocation."""

    scale: str
    outcomes: List[CheckOutcome]
    goldens_dir: pathlib.Path
    updated_goldens: bool = False
    budget_report: str = ""

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def render(self) -> str:
        lines = [f"conformance matrix ({self.scale} scale)"]
        width = max(len(o.name) for o in self.outcomes) if self.outcomes else 0
        for outcome in self.outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            lines.append(
                f"  {status}  {outcome.name.ljust(width)}  "
                f"[{outcome.kind}]  {outcome.seconds:6.2f}s"
            )
            if outcome.detail:
                for row in outcome.detail.splitlines():
                    lines.append(f"        {row}")
        if self.updated_goldens:
            lines.append(f"goldens regenerated in {self.goldens_dir}")
        if self.budget_report:
            lines.append(self.budget_report)
        lines.append("verify: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


class _Setup(NamedTuple):
    """One protocol's instance for a table of rows."""

    n: int
    sources: Tuple[int, int]  # (s0, s1)
    h: int
    delta: float
    runs: Tuple[int, int] = (1, 1)  # at quick / full scale
    m: Optional[int] = None  # schedule message budget; None: paper default

    @property
    def config(self) -> PopulationConfig:
        return PopulationConfig(self.n, SourceCounts(*self.sources), self.h)

    def trials(self, scale: str) -> int:
        return self.runs[1 if scale == "full" else 0]

    def pooled(self, protocol: str) -> int:
        """Agents whose weak opinions the ``laws`` leg pools."""
        return self.n - (0 if protocol == "sf" else sum(self.sources))

    def schedule(self, protocol: str):
        cls = SFSchedule if protocol == "sf" else SSFSchedule
        return cls.from_config(self.config, self.delta, m=self.m)


#: The ``exact`` leg's instances and null-seam run arguments.  Async
#: stops at its first consensus: the registry's patience
#: (``n * epoch_rounds``) would run 1.8x the activations here.
_SEAM_SETUPS = {
    "sf": _Setup(48, (1, 3), 4, 0.2, m=24),
    "ssf": _Setup(48, (0, 2), 24, 0.05),
}
_SEAM_RUNS = {"batched": {"replicas": 3}, "async": {"consensus_patience": 0}}


def _run_seam_row(name: str, protocol: str, **seam_value) -> list:
    """Final opinions (opinion counts on an agent-blind engine) and flags
    of one run on the ``exact`` instance.  The handle is built below
    ``create_engine``, which drops the complete graph before any engine
    sees it."""
    spec = engine_spec(name)
    setup = _SEAM_SETUPS[protocol]
    schedule = setup.schedule(protocol)
    kwargs = dict(_SEAM_RUNS.get(name, {}))
    if protocol == "ssf":
        kwargs["max_rounds"] = 4 * schedule.epoch_rounds
    results = EngineHandle(
        spec, protocol, setup.config, setup.delta,
        schedule=schedule, **seam_value,
    ).run(seed=7, **kwargs)
    field = "final_opinion_counts" if spec.agent_blind else "final_opinions"
    return [
        (np.asarray(getattr(result, field)).tolist(), result.converged)
        for result in (results if isinstance(results, list) else [results])
    ]


def _seam_values(protocol: str) -> dict:
    """One value per fault trait and graph kind, for ``protocol``'s
    alphabet; a display fault's only other trait is ``subset``, and two
    composed subset faults carry ``agent-indexed`` alone."""
    from ..faults import (
        ByzantineDisplayFault,
        ComposedFaultModel,
        CrashFault,
        NoiseMisspecification,
    )

    size = 2 if protocol == "sf" else 4
    skewed = NoiseMatrix.random_upper_bounded(0.1, size, np.random.default_rng(0))
    faults = {
        "subset": ByzantineDisplayFault(fraction=0.1),
        "agent-indexed": ComposedFaultModel(
            [ByzantineDisplayFault(fraction=0.1), CrashFault(fraction=0.1)]
        ),
        "randomized": ByzantineDisplayFault(fraction=0.1, mode="random"),
        "global-displays": ByzantineDisplayFault(fraction=0.1, mode="anti-majority"),
        "scheduled": CrashFault(fraction=0.1, crash_round=2, recovery_round=6),
        "uniform-channel": NoiseMisspecification.uniform(0.1, size),
        "channel": NoiseMisspecification(skewed),
    }
    return {"fault_model": faults, "topology": {"static": "regular", "dynamic": "churn"}}


def _check_exact(scale: str, budget: FalsePositiveBudget) -> str:
    """Bit-for-bit rows.

    A *seam* is an optional engine input whose null value must leave a
    run unchanged: the fault model (``IdentityFaultModel()``) and the
    topology (``"complete"``).  For every capability-table pair whose
    engine takes a seam, the null value must give the plain run's final
    opinions (opinion counts on an agent-blind engine) and ``converged``
    flag; for every fault trait and graph kind the pair's row excludes,
    a value carrying it must make ``create_engine`` raise
    :class:`~repro.exceptions.UnsupportedFeatureError`.  Mean-field SF's
    weak fraction must match, within 1e-12, the weak law the count
    engine prices from the two listening phases' display counts.
    """
    from ..faults import IdentityFaultModel

    replicas = 3 if scale == "quick" else 6
    setup = _SEAM_SETUPS["sf"]
    schedule = setup.schedule("sf")
    horizon = schedule.total_rounds
    population = Population(setup.config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(setup.delta, 2)
    assert_engines_equivalent(
        lambda generator: PullEngine(population, noise).run(
            SourceFilterProtocol(schedule), max_rounds=horizon, rng=generator
        ),
        lambda seed, count: BatchedPullEngine(population, noise).run(
            BatchedSourceFilter(schedule), max_rounds=horizon,
            replicas=count, rng=seed,
        ),
        replicas=replicas, seed=421, context="reference vs batched SF",
    )

    # seam -> (capability column: per protocol, the fault traits or
    # graph kinds the engine admits; null value)
    seams = {
        "fault_model": ("fault_traits", IdentityFaultModel()),
        "topology": ("graph_kinds", "complete"),
    }
    same, rejected = {seam: [] for seam in seams}, {seam: [] for seam in seams}
    for row in capability_table():
        name = row["name"]
        for protocol in row["protocols"]:
            pair, plain = f"{name}/{protocol}", None
            setup, values = _SEAM_SETUPS[protocol], _seam_values(protocol)
            for seam, (column, null) in seams.items():
                if any(row[column].values()):
                    plain = plain or _run_seam_row(name, protocol)
                    if _run_seam_row(name, protocol, **{seam: null}) != plain:
                        raise ConfigurationError(
                            f"{seam}={null!r} diverged from the plain run "
                            f"on {pair}; a null seam must be bit-identical"
                        )
                    same[seam].append(pair)
                refused = [
                    key for key in values[seam] if key not in row[column][protocol]
                ]
                for key in refused:
                    try:
                        create_engine(
                            name, protocol, setup.config, setup.delta,
                            **{seam: values[seam][key]},
                        )
                    except UnsupportedFeatureError:
                        continue
                    raise ConfigurationError(
                        f"create_engine accepted a {key} {seam} on {pair}, "
                        f"which its capability row excludes"
                    )
                if refused:
                    rejected[seam].append(f"{pair}:{','.join(refused)}")

    config = PopulationConfig(n=1_000_000, sources=SourceCounts(0, 4), h=16)
    mean_field = create_engine("mean-field", "sf", config, 0.2).run()
    # The count engine prices each listening phase's q from its display
    # counts through the noise matrix; the weak law is Phase 1's.
    n, count = config.n, CountSourceFilter(config, 0.2)
    matrix = NoiseMatrix.uniform(0.2, 2)
    for stage in count.schedule.stages()[:2]:
        shown = count.shown_ones(stage.kind, 0)
        q = matrix.observation_probabilities(np.array([n - shown, shown]) / n)
        closed_form = count.stage_law(stage.kind, stage.rounds * config.h, q)
    weak, final = mean_field.weak_fraction_correct, mean_field.final_fraction_correct
    if abs(weak - closed_form) > 1e-12 or not mean_field.converged or final != 1.0:
        raise ConfigurationError(
            f"mean-field SF must match the count engine's closed-form weak "
            f"probability {closed_form!r} and reach the all-correct fixed "
            f"point; got {weak!r}, converged={mean_field.converged}, "
            f"final={final}"
        )
    lines = [f"{replicas} batched replicas = serial SF (seed 421)"]
    for seam in seams:
        lines.append(f"null {seam} = plain run: {' '.join(same[seam])}")
        lines.append(
            f"{seam} typed-rejected per {seams[seam][0]}: "
            f"{' '.join(rejected[seam])}"
        )
    return "\n".join(lines + ["mean-field = count closed form; fixed point"])


def _check_corrupt_equivalence(scale: str, budget: FalsePositiveBudget) -> str:
    """corrupt() must equal drawing uniforms + corrupt_with_uniforms()."""
    matrices = [
        NoiseMatrix.uniform(0.2, 2),
        NoiseMatrix.uniform(0.15, 4),
        NoiseMatrix.random_upper_bounded(0.2, 3, np.random.default_rng(3)),
    ]
    rounds = 3 if scale == "quick" else 10
    for index, matrix in enumerate(matrices):
        size = matrix.matrix.shape[0]
        for r in range(rounds):
            messages = np.random.default_rng(100 + r).integers(
                0, size, size=257
            )
            seed = 1000 * index + r
            direct = matrix.corrupt(messages, np.random.default_rng(seed))
            uniforms = np.random.default_rng(seed).random(messages.size)
            via_uniforms = matrix.corrupt_with_uniforms(messages, uniforms)
            if not np.array_equal(direct, via_uniforms):
                raise ConfigurationError(
                    f"corrupt vs corrupt_with_uniforms diverged for "
                    f"matrix {index} (size {size}) at seed {seed}"
                )
    return f"{len(matrices)} matrix shapes x {rounds} draws bit-identical"


#: The ``laws`` leg's instances.  SF pools the Phase-1 commit of all n
#: agents: each weak opinion depends only on the agent's own samples,
#: noise and coin (Lemma 28), so Hoeffding holds exactly.  SSF pools the
#: first flush of the non-sources, which share the random initial
#: displays within a run, hence a 0.05 modelling tolerance.
_LAW_SETUPS = {
    "sf": _Setup(120, (1, 4), 6, 0.15, (8, 30), m=60),
    "ssf": _Setup(80, (1, 3), 8, 0.1, (6, 25), m=64),
}
_LAW_TOLERANCE = {"sf": 0.0, "ssf": 0.05}

#: Weak-opinion law rows: (engine, protocol, seed base).  Each
#: protocol's serial row is the oracle the other rows are pooled against.
_LAWS = (
    ("serial", "sf", 10_000), ("fast", "sf", 0), ("count", "sf", 20_000),
    ("serial", "ssf", 50_000), ("fast", "ssf", 0), ("count", "ssf", 30_000),
)


def _law_faults(protocol: str) -> dict:
    """The non-null rows' fault models, fresh: one per subset model the
    fast and count rows admit.  On SSF the stuck bit is the source bit,
    so a stuck agent's display reads its own weak opinion.  Excluding
    5% of the non-sources moves the weak law by under 0.01, so the
    exclude rows take out 90%: the law then moves by about 0.35 (SF)
    and 0.3 (SSF), past the rows' radius at ``--full``."""
    from ..faults import ByzantineDisplayFault, CrashFault, StuckAtFault

    return {
        "byzantine-fixed": ByzantineDisplayFault(fraction=0.05),
        "anti-majority": ByzantineDisplayFault(fraction=0.05, mode="anti-majority"),
        "crash-symbol": CrashFault(fraction=0.05),
        "crash-exclude": CrashFault(fraction=0.9, mode="exclude"),
        "stuck-at": StuckAtFault(fraction=0.05, bit=0 if protocol == "sf" else 1),
    }


#: The non-null rows, for each ``_law_faults`` model: (engine, seed base
#: of its first model).  The serial row is the oracle under that fault.
_FAULT_LAWS = (("serial", 60_000), ("fast", 70_000), ("count", 80_000))
#: A fault row pools this many times its protocol's runs: the exclude
#: rows pool only the few agents left honest.
_FAULT_RUNS = 4


def _weak_correct(
    engine: str, protocol: str, rng: np.random.Generator, fault=None
) -> np.ndarray:
    """``[correct weak opinions, agents pooled]`` of one run, pooling
    every agent (SF) or every non-source (SSF) that ``fault`` does not
    own."""
    setup = _LAW_SETUPS[protocol]
    config, schedule = setup.config, setup.schedule(protocol)
    correct, sf = config.correct_opinion, protocol == "sf"
    if engine == "serial":  # its weak opinions live on the protocol object
        population = Population(config, rng=rng)
        if sf:
            algorithm = SourceFilterProtocol(schedule)
            rounds, pooled = 2 * schedule.phase_rounds, np.ones(config.n, dtype=bool)
        else:
            algorithm = SelfStabilizingSourceFilterProtocol(schedule)
            rounds, pooled = schedule.epoch_rounds, ~population.is_source
        noise = NoiseMatrix.uniform(setup.delta, algorithm.alphabet_size)
        PullEngine(population, noise).run(
            algorithm, max_rounds=rounds, rng=rng, fault_model=fault
        )
        weak = algorithm.weak_opinions
    else:
        handle = create_engine(
            engine, protocol, config, setup.delta, schedule=schedule,
            fault_model=fault,
        )
        if engine == "fast" and sf and fault is None:  # Phase 1 alone
            weak = handle.draw_weak_opinions(rng)
            return np.array([(weak == correct).sum(), config.n])
        if sf:
            result = handle.run(rng=rng)
        else:  # up to the first flush
            handle.run(max_rounds=schedule.epoch_rounds, rng=rng, stop_on_consensus=False)
        if engine == "count":
            ones = handle.weak_count  # weak 1s among the pooled agents
            owned = 0 if fault is None else fault.count_view(config, 2 if sf else 4).owned
            pooled = setup.pooled(protocol) - owned
            return np.array([ones if correct == 1 else pooled - ones, pooled])
        weak = result.weak_opinions if sf else handle.weak
        pooled = np.arange(config.n) >= (0 if sf else config.num_sources)
    if fault is not None:
        pooled[fault.agents] = False
    return np.array([(weak[pooled] == correct).sum(), pooled.sum()])


def _check_laws(scale: str, budget: FalsePositiveBudget) -> str:
    """Each engine's pooled weak-opinion count against the oracle's: a
    two-sample Hoeffding comparison at confidence ``1 - 1e-5``.  Fast
    and count face the oracle both without a fault and under each
    subset fault their rows admit (:func:`_law_faults`), pooled on the
    agents the fault leaves honest."""
    runs = {protocol: setup.trials(scale) for protocol, setup in _LAW_SETUPS.items()}
    rows = [
        (engine, protocol, None, base, runs[protocol])
        for engine, protocol, base in _LAWS
    ]
    rows += [
        (engine, protocol, label, base + 1_000 * index,
         _FAULT_RUNS * runs[protocol])
        for protocol in _LAW_SETUPS
        for index, label in enumerate(_law_faults(protocol))
        for engine, base in _FAULT_LAWS
    ]
    tallies = {
        (engine, protocol, label): sum(
            _weak_correct(
                engine, protocol, np.random.default_rng(base + seed),
                None if label is None else _law_faults(protocol)[label],
            )
            for seed in range(count)
        ).tolist()
        for engine, protocol, label, base, count in rows
    }
    lines = []
    for engine, protocol, label, _, _ in rows:
        if engine == "serial":
            continue
        oracle, oracle_pooled = tallies["serial", protocol, label]
        observed, pooled = tallies[engine, protocol, label]
        under = "" if label is None else f" under {label}"
        assert_proportions_close(
            oracle, oracle_pooled, observed, pooled, confidence=1 - 1e-5,
            extra_tolerance=_LAW_TOLERANCE[protocol],
            context=f"oracle vs {engine} {protocol.upper()} weak-opinion law{under}",
            budget=budget,
        )
        lines.append(
            f"{engine} {protocol.upper()}{under} {observed / pooled:.4f} vs "
            f"oracle {oracle / oracle_pooled:.4f} over {pooled} agents"
        )
    return "\n".join(lines)


#: The w.h.p. grids of Theorems 4 and 5, and the engines that must
#: succeed on them with probability at least 0.8.
_GRIDS = {
    "sf": _Setup(400, (1, 6), 8, 0.2, (40, 200)),
    "ssf": _Setup(64, (0, 2), 32, 0.05, (10, 30)),
}
_RELIABLE = (("fast", "sf"), ("count", "sf"), ("fast", "ssf"), ("count", "ssf"))


def _check_reliability(scale: str, budget: FalsePositiveBudget) -> str:
    """Each :data:`_RELIABLE` row converges on its grid with probability
    >= 0.8 (exact binomial, confidence ``1 - 1e-6``); the oracle's SSF
    run on seed 0 is a deterministic regression."""
    lines = []
    for engine, protocol in _RELIABLE:
        grid = _GRIDS[protocol]
        seeds = grid.trials(scale)
        handle = create_engine(engine, protocol, grid.config, grid.delta)
        ok = run_trials(handle, seeds, seed=0).successes
        assert_success_probability(
            ok, seeds, 0.8, confidence=1 - 1e-6,
            context=f"{engine} {protocol.upper()} convergence reliability",
            budget=budget,
        )
        lines.append(f"{engine} {protocol.upper()} {ok}/{seeds}")
    grid = _GRIDS["ssf"]
    oracle = create_engine("serial", "ssf", grid.config, grid.delta)
    if not oracle.run(seed=0).converged:
        raise ConfigurationError("oracle SSF failed to converge on fixed seed 0")
    return "; ".join(lines) + "; oracle SSF seed 0 converged"


def _check_handoff(scale: str, budget: FalsePositiveBudget) -> str:
    """The mean-field handoff gate fires only where the O(1/sqrt(n))
    fluctuation cannot change the basin, so count SF's success
    proportion on the SF grid must not move with it."""
    from ..analysis import MeanFieldHandoff

    grid = _GRIDS["sf"]
    seeds = grid.trials(scale)
    stochastic = create_engine("count", "sf", grid.config, grid.delta)
    handoff = MeanFieldHandoff()
    gated = create_engine("count", "sf", grid.config, grid.delta, handoff=handoff)
    ok = sum(stochastic.run(rng=seed).converged for seed in range(seeds))
    gated_ok = sum(gated.run(rng=1_000_000 + s).converged for s in range(seeds))
    assert_proportions_close(
        int(ok), seeds, int(gated_ok), seeds, confidence=1 - 1e-5,
        context="handoff-gated vs fully stochastic count SF success",
        budget=budget,
    )
    return f"count SF {ok}/{seeds}, handoff-gated {gated_ok}/{seeds}"


def _check_sync_vs_async_ssf(scale: str, budget: FalsePositiveBudget) -> str:
    """Asynchrony costs only constants: async SSF consensus lands within
    a small factor of the sync engine's round count (fixed seeds, so the
    comparison is a deterministic regression at quick scale)."""
    config = PopulationConfig(n=48, sources=SourceCounts(0, 2), h=24)
    delta = 0.05
    schedule = SSFSchedule.from_config(config, delta)
    noise = NoiseMatrix.uniform(delta, 4)
    async_seeds = [2] if scale == "quick" else [2, 3, 4]
    ratios = []
    for seed in async_seeds:
        population = Population(config, rng=np.random.default_rng(1))
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        result = AsyncPullEngine(population, noise).run(
            protocol,
            max_activations=config.n * 12 * schedule.epoch_rounds,
            rng=np.random.default_rng(seed),
            consensus_patience=config.n * schedule.epoch_rounds,
        )
        if not result.converged:
            raise ConfigurationError(
                f"async SSF failed to converge on fixed seed {seed}"
            )
        sync = FastSelfStabilizingSourceFilter(
            config, delta, schedule=schedule
        ).run(rng=seed)
        if not sync.converged:
            raise ConfigurationError(
                f"sync SSF failed to converge on fixed seed {seed}"
            )
        ratio = result.consensus_parallel_rounds / max(
            sync.consensus_round, 1
        )
        if not 0.1 < ratio < 10.0:
            raise ConfigurationError(
                f"async/sync consensus-round ratio {ratio:.2f} outside "
                f"[0.1, 10] on seed {seed} — asynchrony should cost "
                f"only constants"
            )
        ratios.append(ratio)
    return (
        f"{len(async_seeds)} async run(s) converged; "
        f"async/sync round ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
    )


def _resilience_probe(rng: np.random.Generator) -> float:
    """Tiny Monte-Carlo trial for the resilience leg (module-level so it
    pickles across the process boundary)."""
    return float(rng.random())


def _resilience_success(value: float) -> bool:
    return value >= 0.25


def _check_resilience(scale: str, budget: FalsePositiveBudget) -> str:
    """Chaos-recovered pool statistics vs a clean serial run.

    The resilient backend promises that retries reuse each trial's
    original seed, so a run that survives injected exceptions, worker
    crashes and (at full scale) hung trials must be *bit-identical* to
    the unfaulted serial baseline — same values, same successes, zero
    ``failed_trials``.
    """
    trials = 12 if scale == "quick" else 24
    seed = 777
    baseline = repeat_trials(
        _resilience_probe, trials, seed=seed,
        success=_resilience_success, measure=float,
    )
    schedule = {1: ChaosSpec("raise"), 5: ChaosSpec("crash")}
    trial_timeout = None
    if scale == "full":
        # The hang goes on the *last* trial so no crash-driven pool
        # rebuild reclaims the hung worker early: the run must actually
        # sit out ``trial_timeout`` and take the timeout path.
        schedule[trials - 1] = ChaosSpec("hang")
        trial_timeout = 2.0
    chaos = ChaosTrial(_resilience_probe, schedule, hang_seconds=30.0)
    recovered = repeat_trials(
        chaos, trials, seed=seed,
        success=_resilience_success, measure=float,
        workers=2,
        resilience=ResilienceConfig(trial_timeout=trial_timeout, retries=2),
    )
    if recovered.failed_trials or recovered.incomplete:
        raise ConfigurationError(
            f"resilient run gave up on {recovered.failed_trials} trial(s) "
            f"despite every fault being transient (schedule "
            f"{sorted(schedule)})"
        )
    if (
        recovered.values != baseline.values
        or recovered.successes != baseline.successes
    ):
        raise ConfigurationError(
            "chaos-recovered statistics diverged from the clean serial "
            f"baseline: successes {recovered.successes} vs "
            f"{baseline.successes}, values {recovered.values} vs "
            f"{baseline.values} — seed-preserving retry is broken"
        )
    return (
        f"{trials} trials bit-identical through "
        f"{len(schedule)} injected fault(s) ({', '.join(sorted(s.kind for s in schedule.values()))})"
    )


def _check_faults(scale: str, budget: FalsePositiveBudget) -> str:
    """The EXT3 shape at smoke scale: success degrades monotonically in
    the Byzantine fraction, and a mildly misspecified noise level still
    converges w.h.p."""
    from ..faults import ByzantineDisplayFault, NoiseMisspecification

    trials = 6 if scale == "quick" else 20
    shape_config = PopulationConfig(n=128, sources=SourceCounts(0, 16), h=8)
    rates = []
    for frac in (0.0, 0.02, 0.25):
        fault = (
            ByzantineDisplayFault(fraction=frac, mode="fixed") if frac else None
        )
        engine = FastSourceFilter(shape_config, 0.2, fault_model=fault)
        ok = sum(
            engine.run(rng=900 + trial).converged for trial in range(trials)
        )
        rates.append(ok / trials)
    tolerance = 1.5 / trials
    if not all(b <= a + tolerance for a, b in zip(rates, rates[1:])):
        raise ConfigurationError(
            "success must degrade monotonically in the Byzantine "
            f"fraction, got {rates} for fractions (0, 0.02, 0.25)"
        )
    mis = FastSourceFilter(
        shape_config, 0.1, fault_model=NoiseMisspecification.uniform(0.15)
    )
    mis_ok = sum(mis.run(rng=1200 + t).converged for t in range(trials))
    assert_success_probability(
        int(mis_ok),
        trials,
        0.7,
        confidence=1 - 1e-6,
        context="misspecified-noise convergence (true 0.15, assumed 0.1)",
        budget=budget,
    )
    return f"byzantine success {rates}; misspec {mis_ok}/{trials}"


def _check_service_cache(scale: str, budget: FalsePositiveBudget) -> str:
    """Service result cache: a hit is bit-identical to a recomputation.

    Drives the service execution core directly (no sockets): a seeded
    serial-engine run is computed cold, replayed from the cache, and
    recomputed with caching disabled.  The cached and recomputed
    envelopes must be byte-identical JSON, and the decoded reports must
    pass :func:`~repro.verify.conformance.assert_results_identical` —
    the same bit-identity bar the batched engine is held to.  A seeded
    fast-SSF request of 8 trials is held to the same byte-identity bar,
    summary statistics included.  A last check asserts the key actually
    separates seeds.
    """
    import json
    import tempfile

    from ..results import report_from_dict
    from ..service import ResultCache, canonical_key, execute_run
    from .conformance import assert_results_identical

    seeds = (2025,) if scale == "quick" else (2025, 2026, 2027)
    request = {
        "engine": "serial", "protocol": "sf", "n": 48,
        "s0": 1, "s1": 3, "h": 4, "delta": 0.2,
    }
    trials_request = {
        "engine": "fast", "protocol": "ssf", "n": 1024,
        "s0": 0, "s1": 1, "delta": 0.1, "trials": 8,
    }

    def envelope(reply, body):
        fields = ("kind", "request", body, "code_version")
        return json.dumps({f: reply[f] for f in fields}, sort_keys=True)

    def cached_and_fresh(cache, seeded, body):
        """The cache hit and the recomputation of ``seeded``, checked
        byte-identical."""
        seed = seeded["seed"]
        cold = execute_run(dict(seeded), cache=cache)
        if cold["cached"]:
            raise ConfigurationError(
                f"first service run of seed {seed} claimed a cache hit"
            )
        hit = execute_run(dict(seeded), cache=cache)
        if not hit["cached"]:
            raise ConfigurationError(
                f"repeat service run of seed {seed} missed the cache"
            )
        fresh = execute_run(dict(seeded), cache=None)
        if envelope(hit, body) != envelope(fresh, body):
            raise ConfigurationError(
                f"cached {body} envelope for seed {seed} is not "
                f"byte-identical to its recomputation — the cache returned "
                f"a different artifact than the engines produce"
            )
        return hit, fresh

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        for seed in seeds:
            hit, fresh = cached_and_fresh(cache, dict(request, seed=seed), "report")
            assert_results_identical(
                report_from_dict(hit["report"]),
                report_from_dict(fresh["report"]),
                context=f"service cache seed {seed}",
                compare_trace=False,
            )
        cached_and_fresh(cache, dict(trials_request, seed=501), "stats")
        keys = {
            canonical_key("run", dict(request, seed=seed, trials=1,
                                      max_rounds=None))
            for seed in range(16)
        }
        if len(keys) != 16:
            raise ConfigurationError(
                f"cache keys collided across seeds: {len(keys)}/16 distinct"
            )
    return (
        f"{len(seeds)} seeded serial run(s) and 1 fast-SSF 8-trial request "
        f"cached byte-identical to recomputation; 16/16 seed keys distinct"
    )


def _check_net(scale: str, budget: FalsePositiveBudget) -> str:
    """Differential verification: networked deployment vs fast engine.

    Boots real localhost UDP clusters (:class:`repro.net.ClusterRunner`)
    and requires them to agree statistically with the in-process fast
    engine running the *same* truncated SF schedule — same population
    law, same channel, different substrate.  Four legs:

    * **registry** — ``create_engine("net", ...)`` satisfies the
      conformance grid: it returns a :class:`NetRunResult` that runs the
      schedule's full horizon and reports its seed.
    * **weak-opinion law** (Hoeffding, exactly valid) — weak opinions
      are independent across agents, so pooled correct-counts from the
      cluster and the fast engine are two binomial samples of the same
      parameter.
    * **success probability** (Hoeffding) — per-trial convergence
      proportions must agree.
    * **rounds-to-consensus** (deterministic band) — the mean number of
      boosting sub-phases before stable full consensus, read off the
      cluster's per-round trace at sub-phase boundaries and off the
      fast engine's ``boost_trace``, must agree within 1.5 sub-phases
      (no alpha charged; both laws are identical, the band absorbs the
      small-sample noise of the expensive networked trials).
    """
    from ..engines import create_engine
    from ..net import ClusterRunner, NetRunResult

    delta = 0.2
    confidence = 1 - 1e-5

    # Leg 1: registry conformance on a small cluster.
    small_config = PopulationConfig(n=12, sources=SourceCounts(s0=0, s1=2), h=6)
    small_schedule = SFSchedule.from_config(
        small_config, delta, m=12, boost_numerator=8, subphase_factor=0.5
    )
    handle = create_engine(
        "net", "sf", small_config, delta, schedule=small_schedule
    )
    report = handle.run(seed=123)
    if not isinstance(report, NetRunResult):
        raise ConfigurationError(
            f"create_engine('net').run returned {type(report).__name__}, "
            f"expected NetRunResult"
        )
    if report.rounds != small_schedule.total_rounds:
        raise ConfigurationError(
            f"net run executed {report.rounds} rounds, expected the "
            f"schedule horizon {small_schedule.total_rounds}"
        )
    if report.seed != 123:
        raise ConfigurationError(
            f"net report carries seed {report.seed}, expected 123"
        )

    # Differential legs: 64-peer deployment vs fast engine.
    config = PopulationConfig(n=64, sources=SourceCounts(s0=0, s1=4), h=16)
    schedule = SFSchedule.from_config(
        config, delta, m=48, boost_numerator=24, subphase_factor=1.0
    )
    net_trials = 4 if scale == "quick" else 8
    fast_trials = 30 if scale == "quick" else 60
    correct = config.correct_opinion
    # The last round of each boosting stage.
    boundaries = [end - 1 for end in schedule.stage_ends()[2:]]

    def consensus_subphase(fractions):
        """1-based sub-phase from which full consensus holds to the end
        (censored at ``len + 1`` when it never stabilizes)."""
        stable = len(fractions) + 1
        for index in range(len(fractions) - 1, -1, -1):
            if fractions[index] == 1.0:
                stable = index + 1
            else:
                break
        return stable

    runner = ClusterRunner("sf", config, delta, schedule=schedule)
    net_success = net_weak_correct = 0
    net_subphases = []
    for seed in range(net_trials):
        result = runner.run(seed=seed)
        net_success += int(result.converged)
        net_weak_correct += int((result.weak_opinions == correct).sum())
        by_round = {
            record.round_index: record.fraction_correct
            for record in result.trace
        }
        net_subphases.append(
            consensus_subphase([by_round[b] for b in boundaries])
        )

    fast_engine = FastSourceFilter(config, delta, schedule=schedule)
    fast_success = fast_weak_correct = 0
    fast_subphases = []
    for seed in range(fast_trials):
        fast_result = fast_engine.run(np.random.default_rng(10_000 + seed))
        fast_success += int(fast_result.converged)
        fast_weak_correct += int(
            (fast_result.weak_opinions == correct).sum()
        )
        fast_subphases.append(consensus_subphase(list(fast_result.boost_trace)))

    pooled_net = net_trials * config.n
    pooled_fast = fast_trials * config.n
    assert_proportions_close(
        net_weak_correct,
        pooled_net,
        fast_weak_correct,
        pooled_fast,
        confidence=confidence,
        context="net vs fast SF pooled weak-opinion law",
        budget=budget,
    )
    assert_proportions_close(
        net_success,
        net_trials,
        fast_success,
        fast_trials,
        confidence=confidence,
        context="net vs fast SF success probability",
        budget=budget,
    )
    mean_net = float(np.mean(net_subphases))
    mean_fast = float(np.mean(fast_subphases))
    if abs(mean_net - mean_fast) > 1.5:
        raise ConfigurationError(
            f"rounds-to-consensus diverged: cluster stabilizes at mean "
            f"sub-phase {mean_net:.2f}, fast engine at {mean_fast:.2f} "
            f"(band 1.5 sub-phases of {schedule.subphase_rounds} rounds)"
        )
    return (
        f"64-peer cluster vs fast engine: weak "
        f"{net_weak_correct / pooled_net:.4f} vs "
        f"{fast_weak_correct / pooled_fast:.4f}, success "
        f"{net_success}/{net_trials} vs {fast_success}/{fast_trials}, "
        f"consensus sub-phase {mean_net:.2f} vs {mean_fast:.2f}; "
        f"registry grid OK"
    )


def _check_topology(scale: str, budget: FalsePositiveBudget) -> str:
    """The EXT4 shape at smoke scale: SF stays near-unanimous w.h.p. on a
    dense regular graph, and the hybrid push-pull baseline does so on the
    spatial grid where SF collapses."""
    from ..topology import HybridPushPull, RandomRegularTopology

    trials = 8 if scale == "quick" else 20
    n = 144
    shape_config = PopulationConfig(n=n, sources=SourceCounts(0, n // 16), h=8)
    sf_ok = 0
    for trial in range(trials):
        result = FastSourceFilter(
            shape_config, 0.1, topology=RandomRegularTopology(degree=n // 2)
        ).run(rng=np.random.default_rng(700 + trial))
        sf_ok += float(np.mean(result.final_opinions == 1)) >= 0.95
    assert_success_probability(
        int(sf_ok),
        trials,
        0.7,
        confidence=1 - 1e-6,
        context="SF near-unanimity on dense regular graph",
        budget=budget,
    )
    hybrid_ok = 0
    for trial in range(trials):
        result = HybridPushPull(
            shape_config, 0.1, topology="grid",
            switch_fraction=0.85, max_pull_windows=16,
        ).run(rng=np.random.default_rng(800 + trial))
        hybrid_ok += result.accuracy >= 0.95
    assert_success_probability(
        int(hybrid_ok),
        trials,
        0.7,
        confidence=1 - 1e-6,
        context="hybrid push-pull near-unanimity on grid",
        budget=budget,
    )
    return f"SF dense {sf_ok}/{trials}, hybrid grid {hybrid_ok}/{trials}"


def _check_adversary(scale: str, budget: FalsePositiveBudget) -> str:
    """Adaptive adversary search conformance.

    Three promises: (1) *rediscovery* — a planted known-bad
    configuration (Byzantine wrong-symbol displays at a fraction the
    protocol cannot absorb) is found by the search, and the certified
    frontier point is at least as damaging; (2) *certificates hold* —
    every frontier point with a non-vacuous Clopper–Pearson lower bound
    survives an independent fresh-seed exact-binomial re-evaluation on
    the fast engine (``prefer_count=False``), whatever engine certified
    it, charged to the shared verify :class:`FalsePositiveBudget` — so a
    count certificate is checked across engines, a differential check of
    the routing; (3) *determinism* — the same seed reproduces the
    identical frontier.
    The search itself runs under its own error ledger (its SPRT
    accept/reject mass only affects which point is found, never the
    validity of a certificate).
    """
    from itertools import islice

    from ..adversary_search import (
        AdversaryConfig,
        CandidateEvaluator,
        FaultConfigSpace,
        SearchSettings,
        run_search,
    )
    from ..rng import generator_stream

    config = PopulationConfig(n=96, sources=SourceCounts(0, 4), h=6)
    delta = 0.2
    planted_fraction = 0.15
    planted = AdversaryConfig(
        family="byzantine", fraction=planted_fraction, mode="fixed", symbol=0
    )
    settings = SearchSettings(
        num_candidates=4,
        rungs=2,
        base_trials=8,
        refine_steps=2,
        cert_trials=30 if scale == "quick" else 80,
    )
    budgets = {"byzantine": [planted_fraction], "misspec": [0.02]}

    def search():
        return run_search(
            "sf", config, assumed_delta=delta, budgets=budgets, seed=1234,
            settings=settings, extra_candidates={"byzantine": [planted]},
        )

    frontier = search()

    worst = frontier.worst("byzantine")
    if worst is None or worst.certified_failure_lower_bound < 0.5:
        raise ConfigurationError(
            f"search failed to rediscover the planted Byzantine "
            f"configuration at fraction {planted_fraction}: worst "
            f"certified lower bound "
            f"{worst.certified_failure_lower_bound if worst else None}"
        )

    # Independent re-evaluation of every non-vacuous certificate, on
    # the fast engine whatever engine certified it.
    space = FaultConfigSpace(
        protocol="sf", assumed_delta=delta, families=tuple(budgets)
    )
    evaluator = CandidateEvaluator(space, config, prefer_count=False)
    trials = 24 if scale == "quick" else 60
    confirmed = vacuous = 0
    engines = set()
    for index, point in enumerate(frontier.points):
        if point.certified_failure_lower_bound <= 0.0:
            vacuous += 1  # nothing is claimed; nothing to confirm
            continue
        candidate = AdversaryConfig(**point.config)
        engines.add(point.engine)
        _, run_one = evaluator.failure_runner(candidate)
        failures = sum(
            bool(run_one(generator))
            for generator in islice(generator_stream(555 + index), trials)
        )
        assert_success_probability(
            failures,
            trials,
            point.certified_failure_lower_bound,
            confidence=1 - 1e-6,
            context=(
                f"adversary frontier point {point.family}@{point.budget} "
                f"re-evaluation"
            ),
            budget=budget,
        )
        confirmed += 1

    if search().to_dict() != frontier.to_dict():
        raise ConfigurationError(
            "adversary search is not deterministic: the same seed "
            "produced a different frontier"
        )

    return (
        f"planted worst case rediscovered (certified >= "
        f"{worst.certified_failure_lower_bound:.3f}); {confirmed} "
        f"certificate(s) of {'/'.join(sorted(engines)) or 'no engine'} "
        f"confirmed on {trials} fresh fast trials, {vacuous} vacuous; "
        f"frontier replay identical"
    )


_CHECKS: List[tuple] = [
    ("exact", "exact", _check_exact),
    ("corrupt-vs-corrupt-with-uniforms", "exact", _check_corrupt_equivalence),
    ("laws", "statistical", _check_laws),
    ("reliability", "statistical", _check_reliability),
    ("handoff", "statistical", _check_handoff),
    ("sync-vs-async-ssf", "statistical", _check_sync_vs_async_ssf),
    ("resilience", "exact", _check_resilience),
    ("faults", "statistical", _check_faults),
    ("service", "exact", _check_service_cache),
    ("net", "statistical", _check_net),
    ("topology", "statistical", _check_topology),
    ("adversary", "statistical", _check_adversary),
]

#: How each capability-table pair reaches the oracle: (engine, protocol)
#: -> (the leg that compares it, the engine it is compared with).
ORACLE_LINKS = {
    **{(e, p): ("laws", "serial") for e, p, _ in _LAWS if e != "serial"},
    ("batched", "sf"): ("exact", "serial"),
    ("mean-field", "sf"): ("exact", "count"),
    ("async", "ssf"): ("sync-vs-async-ssf", "fast"),
    ("net", "sf"): ("net", "fast"),
}

#: Capability-table pairs no leg compares with the oracle, and why.
UNCHECKED_PAIRS = {("net", "ssf"): "one 64-peer SSF cluster per trial"}


def run_verify(
    scale: str = "quick",
    *,
    goldens_dir: Optional[Union[str, pathlib.Path]] = None,
    update_goldens: bool = False,
    checks: Optional[List[str]] = None,
) -> VerifyReport:
    """Run the conformance matrix and the golden-trace comparison.

    ``checks`` optionally restricts the matrix to a subset of leg names
    (goldens always run); an unknown name is a ConfigurationError.
    ``update_goldens=True`` rewrites the fixtures instead of diffing
    them.  The legs share one strict 1e-3 :class:`FalsePositiveBudget`,
    so the leg that overdraws it fails.  A leg that raises fails with
    the exception's type and message, and the other legs still run.
    """
    if scale not in VERIFY_SCALES:
        raise ConfigurationError(
            f"scale must be one of {VERIFY_SCALES}, got {scale!r}"
        )
    legs = [name for name, _, _ in _CHECKS]
    unknown = sorted(set(checks or ()) - set(legs))
    if unknown:
        raise ConfigurationError(
            f"unknown verify leg(s) {', '.join(unknown)}; valid legs: "
            f"{', '.join(legs)}"
        )
    directory = pathlib.Path(goldens_dir or default_goldens_dir())
    budget = FalsePositiveBudget(total=1e-3, strict=True)
    outcomes: List[CheckOutcome] = []
    for name, kind, check in _CHECKS:
        if checks is not None and name not in checks:
            continue
        start = time.perf_counter()
        try:
            detail, passed = check(scale, budget), True
        except (AssertionError, ConfigurationError) as exc:
            detail, passed = str(exc), False
        except Exception as exc:
            # A broken leg (a busy UDP port, a bug) must not hide the
            # rest of the matrix: report where it raised and go on.
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"
            passed = False
        seconds = time.perf_counter() - start
        outcomes.append(CheckOutcome(name, kind, passed, seconds, detail))

    start = time.perf_counter()
    if update_goldens:
        written = write_goldens(directory)
        passed, detail = True, f"regenerated {len(written)} fixtures"
    else:
        mismatches = compare_goldens(directory)
        passed = not mismatches
        detail = "\n".join(mismatches) or f"{directory} digests all match"
    seconds = time.perf_counter() - start
    outcomes.append(
        CheckOutcome("golden-traces", "golden", passed, seconds, detail)
    )
    return VerifyReport(
        scale=scale,
        outcomes=outcomes,
        goldens_dir=directory,
        updated_goldens=update_goldens,
        budget_report=budget.report(),
    )
