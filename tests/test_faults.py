"""Unit tests for the model-layer fault subsystem (``repro.faults``)."""

import numpy as np
import pytest

from repro.engines import create_engine
from repro.exceptions import (
    ConfigurationError,
    NoiseMatrixError,
    UnsupportedFeatureError,
)
from repro.faults import (
    FAULT_TRAITS,
    ByzantineDisplayFault,
    ComposedFaultModel,
    CrashFault,
    FaultModel,
    IdentityFaultModel,
    NoiseMisspecification,
    RecoveryTracker,
    StuckAtFault,
    default_projection_margin,
    misspecified_reduction,
    project_to_stochastic,
    validate_probability,
    validate_sample_loss,
)
from repro.model import (
    BatchedPullEngine,
    Population,
    PopulationConfig,
    PullEngine,
)
from repro.model.async_engine import AsyncPullEngine
from repro.noise import NoiseMatrix
from repro.protocols import (
    BatchedSourceFilter,
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SourceFilterProtocol,
)
from repro.protocols.ssf_async import AsyncSelfStabilizingSourceFilter
from repro.protocols.parameters import SSFSchedule
from repro.telemetry import MemorySink, Telemetry
from repro.types import SourceCounts

pytestmark = pytest.mark.faults

CONFIG = PopulationConfig(n=64, sources=SourceCounts(2, 6), h=4)


def population(seed=0):
    return Population(CONFIG, rng=np.random.default_rng(seed))


class TestValidation:
    def test_validate_probability_domain(self):
        assert validate_probability(0.25, "p") == 0.25
        with pytest.raises(ConfigurationError):
            validate_probability(1.0, "p")
        assert validate_probability(1.0, "p", inclusive_upper=True) == 1.0
        with pytest.raises(ConfigurationError):
            validate_probability(-0.1, "p")
        with pytest.raises(ConfigurationError):
            validate_probability(float("nan"), "p")
        with pytest.raises(ConfigurationError):
            validate_probability("often", "p")

    def test_sample_loss_shared_across_protocols(self):
        for cls, noise in (
            (FastSourceFilter, 0.2),
            (FastSelfStabilizingSourceFilter, 0.1),
        ):
            with pytest.raises(ConfigurationError, match="sample_loss"):
                cls(CONFIG, noise, sample_loss=1.0)
            with pytest.raises(ConfigurationError, match="sample_loss"):
                cls(CONFIG, noise, sample_loss=-0.5)


class TestSubsetSelection:
    def test_explicit_agents_must_not_be_sources(self):
        fault = ByzantineDisplayFault(agents=[0, 1])
        with pytest.raises(ConfigurationError, match="source"):
            fault.reset(Population(CONFIG, shuffle=False), 2)

    @pytest.mark.parametrize("protocol", ["sf", "ssf"])
    def test_explicit_agents_name_the_same_agents_on_count_and_fast(self, protocol):
        """The count view reads ``agents=`` on the positional layout the
        fast engines reset on: a source index fails on both engines with
        one error, and the first non-source runs on both."""
        run = {} if protocol == "sf" else {"max_rounds": 40}
        errors = set()
        for engine in ("fast", "count"):
            with pytest.raises(ConfigurationError) as raised:
                create_engine(
                    engine, protocol, CONFIG, 0.2,
                    fault_model=ByzantineDisplayFault(agents=[CONFIG.num_sources - 1]),
                ).run(rng=np.random.default_rng(0), **run)
            errors.add(str(raised.value))
            create_engine(
                engine, protocol, CONFIG, 0.2,
                fault_model=ByzantineDisplayFault(agents=[CONFIG.num_sources]),
            ).run(rng=np.random.default_rng(0), **run)
        assert errors == {
            "fault models must not own source agents "
            "(the adversary contract protects sources)"
        }

    def test_fraction_selection_is_sorted_unique_non_source(self):
        fault = ByzantineDisplayFault(fraction=0.25)
        pop = Population(CONFIG, shuffle=False)
        fault.reset(pop, 2, np.random.default_rng(5))
        agents = fault.agents
        assert np.array_equal(agents, np.unique(agents))
        assert not pop.is_source[agents].any()
        assert agents.size == round(0.25 * CONFIG.num_non_sources)

    def test_fraction_requires_rng(self):
        fault = ByzantineDisplayFault(fraction=0.25)
        with pytest.raises(ConfigurationError):
            fault.reset(Population(CONFIG, shuffle=False), 2, None)

    def test_exactly_one_selector(self):
        with pytest.raises(ConfigurationError):
            ByzantineDisplayFault()
        with pytest.raises(ConfigurationError):
            ByzantineDisplayFault(fraction=0.1, count=3)


class TestByzantine:
    def test_fixed_default_symbol_is_wrong_opinion(self):
        fault = ByzantineDisplayFault(fraction=0.2)
        fault.reset(Population(CONFIG, shuffle=False), 2, np.random.default_rng(0))
        assert fault.symbol == 1 - CONFIG.correct_opinion

    def test_fixed_default_symbol_claims_wrong_source_on_ssf_alphabet(self):
        fault = ByzantineDisplayFault(fraction=0.2)
        fault.reset(Population(CONFIG, shuffle=False), 4, np.random.default_rng(0))
        assert fault.symbol == 2 + (1 - CONFIG.correct_opinion)

    def test_anti_majority_flips_honest_majority(self):
        pop = Population(CONFIG, shuffle=False)
        fault = ByzantineDisplayFault(fraction=0.2, mode="anti-majority")
        assert fault.requires_global_displays
        fault.reset(pop, 2, np.random.default_rng(0))
        honest = np.ones(CONFIG.n, dtype=np.int64)
        out = fault.transform_displays(0, honest, np.random.default_rng(1))
        assert (out[fault.agents] == 0).all()

    def test_random_mode_is_not_deterministic(self):
        fault = ByzantineDisplayFault(fraction=0.2, mode="random")
        assert not fault.deterministic_displays

    def test_evaluation_mask_excludes_byzantine_agents(self):
        pop = Population(CONFIG, shuffle=False)
        fault = ByzantineDisplayFault(fraction=0.2)
        fault.reset(pop, 2, np.random.default_rng(0))
        mask = fault.evaluation_mask()
        assert not mask[fault.agents].any()
        assert mask.sum() == CONFIG.n - fault.agents.size


class TestCrash:
    def test_symbol_mode_respects_schedule(self):
        pop = Population(CONFIG, shuffle=False)
        fault = CrashFault(
            fraction=0.25, mode="symbol", symbol=1, crash_round=3,
            recovery_round=9,
        )
        fault.reset(pop, 2, np.random.default_rng(0))
        honest = np.zeros(CONFIG.n, dtype=np.int64)
        rng = np.random.default_rng(1)
        assert fault.transform_displays(2, honest, rng) is honest
        crashed = fault.transform_displays(3, honest, rng)
        assert (crashed[fault.agents] == 1).all()
        assert fault.transform_displays(9, honest, rng) is honest
        assert fault.transition_rounds() == (3, 9)
        assert fault.onset_round == 3

    def test_exclude_mode_restricts_sampling(self):
        pop = Population(CONFIG, shuffle=False)
        fault = CrashFault(fraction=0.25, mode="exclude", crash_round=5)
        fault.reset(pop, 2, np.random.default_rng(0))
        assert fault.visible_agents(4) is None
        visible = fault.visible_agents(5)
        assert visible.size == CONFIG.n - fault.agents.size
        assert not np.isin(fault.agents, visible).any()

    def test_recovery_scheduled_keeps_everyone_evaluated(self):
        pop = Population(CONFIG, shuffle=False)
        recovering = CrashFault(
            fraction=0.25, crash_round=2, recovery_round=4
        )
        recovering.reset(pop, 2, np.random.default_rng(0))
        assert recovering.evaluation_mask() is None
        permanent = CrashFault(fraction=0.25, crash_round=2)
        permanent.reset(pop, 2, np.random.default_rng(0))
        assert not permanent.evaluation_mask()[permanent.agents].any()

    def test_bad_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashFault(fraction=0.1, crash_round=-1)
        with pytest.raises(ConfigurationError):
            CrashFault(fraction=0.1, crash_round=5, recovery_round=5)


class TestStuckAt:
    def test_bit_forced(self):
        pop = Population(CONFIG, shuffle=False)
        fault = StuckAtFault(fraction=0.3, bit=1, value=1)
        fault.reset(pop, 4, np.random.default_rng(0))
        honest = np.zeros(CONFIG.n, dtype=np.int64)
        out = fault.transform_displays(0, honest, np.random.default_rng(1))
        assert (out[fault.agents] == 2).all()

    def test_rejects_bit_outside_alphabet(self):
        fault = StuckAtFault(fraction=0.3, bit=1, value=1)
        with pytest.raises(ConfigurationError, match="alphabet"):
            fault.reset(Population(CONFIG, shuffle=False), 2, np.random.default_rng(0))

    def test_stuck_agents_stay_in_evaluation(self):
        fault = StuckAtFault(fraction=0.3, bit=0, value=0)
        fault.reset(Population(CONFIG, shuffle=False), 2, np.random.default_rng(0))
        assert fault.evaluation_mask() is None


class TestComposition:
    def test_composition_semantics(self):
        pop = Population(CONFIG, shuffle=False)
        byz = ByzantineDisplayFault(fraction=0.1, quasi_consensus_floor=0.05)
        crash = CrashFault(fraction=0.1, mode="exclude", crash_round=4)
        composed = ComposedFaultModel([byz, crash])
        composed.reset(pop, 2, np.random.default_rng(0))
        assert not composed.is_null
        assert composed.quasi_consensus_floor == 0.05
        assert composed.onset_round == 0
        assert composed.transition_rounds() == (4,)
        mask = composed.evaluation_mask()
        assert not mask[byz.agents].any()
        visible = composed.visible_agents(4)
        assert not np.isin(crash.agents, visible).any()

    def test_composed_identity_is_null(self):
        assert ComposedFaultModel(
            [IdentityFaultModel(), IdentityFaultModel()]
        ).is_null

    def test_rejects_empty_and_non_models(self):
        with pytest.raises(ConfigurationError):
            ComposedFaultModel([])
        with pytest.raises(ConfigurationError):
            ComposedFaultModel([0.5])


class TestTraits:
    """What each model declares, read with no reset and no draw."""

    SKEWED = NoiseMatrix(np.array([[0.85, 0.15], [0.25, 0.75]]))

    @pytest.mark.parametrize(
        "fault,traits",
        [
            (IdentityFaultModel(), set()),
            (ComposedFaultModel([IdentityFaultModel()]), set()),
            (ByzantineDisplayFault(fraction=0.1), {"subset"}),
            (
                ByzantineDisplayFault(fraction=0.1, mode="random"),
                {"subset", "randomized"},
            ),
            (
                ByzantineDisplayFault(fraction=0.1, mode="anti-majority"),
                {"subset", "global-displays"},
            ),
            (CrashFault(fraction=0.1), {"subset"}),
            (
                CrashFault(fraction=0.1, crash_round=3, recovery_round=9),
                {"subset", "scheduled"},
            ),
            (StuckAtFault(fraction=0.1), {"subset"}),
            (NoiseMisspecification.uniform(0.1), {"uniform-channel"}),
            (NoiseMisspecification(SKEWED), {"channel"}),
            (
                ComposedFaultModel(
                    [IdentityFaultModel(), NoiseMisspecification.uniform(0.1)]
                ),
                {"uniform-channel"},
            ),
            (
                ComposedFaultModel(
                    [StuckAtFault(count=1), NoiseMisspecification(SKEWED)]
                ),
                {"subset", "channel"},
            ),
            # A model that declares nothing is taken to own agents.
            (type("Unknown", (FaultModel,), {})(), {"agent-indexed"}),
            # Two random subsets overlap: no one count view covers them.
            (
                ComposedFaultModel(
                    [ByzantineDisplayFault(fraction=0.1), CrashFault(fraction=0.1)]
                ),
                {"agent-indexed"},
            ),
        ],
    )
    def test_declared_traits(self, fault, traits):
        assert fault.traits == traits
        assert traits <= set(FAULT_TRAITS)

    def test_channel_alphabet_checked_before_reset(self):
        fault = ComposedFaultModel(
            [ByzantineDisplayFault(fraction=0.1), NoiseMisspecification.uniform(0.1, 4)]
        )
        fault.check_alphabet(4)
        with pytest.raises(ConfigurationError, match="alphabet 2"):
            fault.check_alphabet(2)


class TestMisspecification:
    def test_reduction_projection_within_margin(self):
        true = NoiseMatrix.uniform(0.2459, 4)
        assumed = NoiseMatrix.uniform(0.2499, 4)
        reduction = misspecified_reduction(true, assumed)
        # 4x4 uniform matrices differing by d_delta = 0.004: the row-sum
        # of |N - N-hat| is 3*d_delta (diagonal) + 3*d_delta (off).
        assert reduction.deviation == pytest.approx(6 * 0.004, abs=1e-9)
        assert reduction.effective_deviation <= reduction.deviation + 1e-9
        margin = default_projection_margin(4, 0.2499)
        assert reduction.projection_shift <= margin

    def test_project_to_stochastic_rejects_beyond_margin(self):
        bad = np.array([[1.5, -0.5], [-0.5, 1.5]])
        with pytest.raises(NoiseMatrixError):
            project_to_stochastic(bad, margin=1e-9)

    def test_effective_delta_for_fast_engines(self):
        fault = NoiseMisspecification.uniform(0.22, size=2)
        assert fault.effective_uniform_delta(0.1) == pytest.approx(0.22)

    def test_channel_substitution_on_pull_engine(self):
        fault = NoiseMisspecification.uniform(0.22, size=2)
        fault.reset(Population(CONFIG, shuffle=False), 2)
        assumed = NoiseMatrix.uniform(0.1, 2)
        assert fault.channel(0, assumed).uniform_delta == pytest.approx(0.22)

    def test_size_mismatch_rejected(self):
        fault = NoiseMisspecification.uniform(0.22, size=4)
        with pytest.raises(ConfigurationError):
            fault.reset(Population(CONFIG, shuffle=False), 2)


class TestRecoveryTracker:
    def test_recovery_time_counts_from_onset(self):
        tracker = RecoveryTracker(onset_round=10, floor=0.1)
        tracker.observe(5, 0.9)  # pre-onset, ignored
        tracker.observe(12, 0.4)
        tracker.observe(20, 0.05)
        assert tracker.recovered
        assert tracker.recovery_rounds == 10
        assert tracker.worst_wrong_fraction == 0.4

    def test_reentry_resets_recovery(self):
        tracker = RecoveryTracker(onset_round=0, floor=0.0)
        tracker.observe(1, 0.0)
        tracker.observe(2, 0.3)
        assert not tracker.recovered
        tracker.observe(3, 0.0)
        assert tracker.recovery_rounds == 3

    def test_emit_metrics(self):
        sink = MemorySink()
        tele = Telemetry(sinks=[sink])
        tracker = RecoveryTracker(onset_round=2, floor=0.0)
        tracker.observe(4, 0.0)
        tracker.emit(tele)
        names = {e.name for e in sink.events if hasattr(e, "name")}
        assert "faults.recovery_rounds" in names
        assert "faults.recovered_runs" in names


class TestEngineIdentity:
    """IdentityFaultModel must be bit-identical to fault_model=None."""

    def test_pull_engine(self):
        schedule = SFSchedule.from_config(CONFIG, 0.2, m=24)
        runs = [
            PullEngine(population(), NoiseMatrix.uniform(0.2, 2)).run(
                SourceFilterProtocol(schedule),
                max_rounds=schedule.total_rounds,
                rng=3,
                fault_model=fault,
            )
            for fault in (None, IdentityFaultModel())
        ]
        assert np.array_equal(runs[0].final_opinions, runs[1].final_opinions)
        assert runs[0].converged == runs[1].converged

    def test_batched_engine_spawn(self):
        schedule = SFSchedule.from_config(CONFIG, 0.2, m=24)
        batches = [
            BatchedPullEngine(population(), NoiseMatrix.uniform(0.2, 2)).run(
                BatchedSourceFilter(schedule),
                max_rounds=schedule.total_rounds,
                replicas=3,
                rng=3,
                fault_model=fault,
            )
            for fault in (None, IdentityFaultModel())
        ]
        for clean, faulted in zip(*batches):
            assert np.array_equal(
                clean.final_opinions, faulted.final_opinions
            )

    def test_fast_sf(self):
        runs = [
            FastSourceFilter(CONFIG, 0.2, fault_model=fault).run(rng=3)
            for fault in (None, IdentityFaultModel())
        ]
        assert np.array_equal(runs[0].final_opinions, runs[1].final_opinions)
        assert runs[0].boost_trace == runs[1].boost_trace

    def test_fast_ssf(self):
        runs = [
            FastSelfStabilizingSourceFilter(
                CONFIG, 0.1, fault_model=fault
            ).run(rng=3)
            for fault in (None, IdentityFaultModel())
        ]
        assert np.array_equal(runs[0].final_opinions, runs[1].final_opinions)
        assert runs[0].trace == runs[1].trace

    @pytest.mark.parametrize("engine", ["serial", "batched", "fast", "count"])
    def test_null_model_emits_no_metric_of_its_own(self, engine):
        """A null model is absent on every SF engine: the same metric
        names with and without it (no ``faults.*`` recovery metrics)."""
        schedule = SFSchedule.from_config(CONFIG, 0.2, m=24)

        def names(**seam):
            sink = MemorySink()
            create_engine(engine, "sf", CONFIG, 0.2, schedule=schedule, **seam).run(
                seed=3, telemetry=Telemetry([sink])
            )
            return {(event.kind, event.name) for event in sink.events}

        assert names(fault_model=IdentityFaultModel()) == names()


class TestEngineFaultBehavior:
    def test_pull_engine_byzantine_excluded_from_consensus(self):
        schedule = SFSchedule.from_config(CONFIG, 0.2, m=24)
        fault = ByzantineDisplayFault(fraction=0.1)
        result = PullEngine(population(), NoiseMatrix.uniform(0.2, 2)).run(
            SourceFilterProtocol(schedule),
            max_rounds=schedule.total_rounds,
            rng=3,
            fault_model=fault,
        )
        # Convergence is judged over non-Byzantine agents only, so the
        # result object stays meaningful under attack.
        assert result.final_opinions.shape == (CONFIG.n,)

    def test_async_engine_rejects_global_display_faults(self):
        schedule = SSFSchedule.from_config(CONFIG, 0.05)
        fault = ByzantineDisplayFault(fraction=0.1, mode="anti-majority")
        with pytest.raises(UnsupportedFeatureError, match="global display"):
            AsyncPullEngine(
                population(), NoiseMatrix.uniform(0.05, 4)
            ).run(
                AsyncSelfStabilizingSourceFilter(schedule),
                max_activations=10,
                rng=0,
                fault_model=fault,
            )

    def test_fast_sf_rejects_randomized_and_scheduled_faults(self):
        random_fault = ByzantineDisplayFault(fraction=0.1, mode="random")
        with pytest.raises(ConfigurationError, match="deterministic"):
            FastSourceFilter(CONFIG, 0.2, fault_model=random_fault).run(rng=0)
        scheduled = CrashFault(fraction=0.1, crash_round=5)
        with pytest.raises(ConfigurationError, match="time-invariant"):
            FastSourceFilter(CONFIG, 0.2, fault_model=scheduled).run(rng=0)

    @pytest.mark.parametrize(
        "engine, protocol",
        [("serial", "sf"), ("batched", "sf"), ("async", "ssf"),
         ("fast", "sf"), ("fast", "ssf")],
    )
    def test_empty_judged_set_is_a_configuration_error(self, engine, protocol):
        class JudgesNobody(FaultModel):
            def evaluation_mask(self):
                return np.zeros(self._n, dtype=bool)

        handle = create_engine(
            engine, protocol, CONFIG, 0.2 if protocol == "sf" else 0.1,
            fault_model=JudgesNobody(),
        )
        with pytest.raises(ConfigurationError, match="excludes every agent"):
            handle.run(rng=0)

    def test_fast_ssf_crash_recovery_emits_metrics(self):
        probe = FastSelfStabilizingSourceFilter(CONFIG, 0.1)
        epoch = probe.schedule.epoch_rounds
        fault = CrashFault(
            fraction=0.25, mode="symbol", symbol=1,
            crash_round=2 * epoch, recovery_round=4 * epoch,
        )
        sink = MemorySink()
        result = FastSelfStabilizingSourceFilter(
            CONFIG, 0.1, fault_model=fault
        ).run(
            rng=9,
            max_rounds=10 * epoch,
            stop_on_consensus=False,
            telemetry=Telemetry(sinks=[sink]),
        )
        metrics = {
            e.name: e.value
            for e in sink.events
            if getattr(e, "name", "").startswith("faults.")
        }
        assert metrics.get("faults.runs") == 1
        assert metrics.get("faults.onset_round") == 2 * epoch
        assert result.rounds_executed == 10 * epoch

    def test_byzantine_fraction_degrades_fast_sf(self):
        config = PopulationConfig(n=128, sources=SourceCounts(0, 8), h=8)
        def rate(fraction, trials=8):
            fault = (
                ByzantineDisplayFault(fraction=fraction) if fraction else None
            )
            engine = FastSourceFilter(config, 0.2, fault_model=fault)
            return sum(
                engine.run(rng=100 + t).converged for t in range(trials)
            )
        assert rate(0.0) >= rate(0.4)
        assert rate(0.4) <= 2


class TestExperimentMetadata:
    def test_ext2_records_rerunnable_churn_seeds(self):
        from repro.experiments import get_experiment

        outcome = get_experiment("EXT2").run(scale="quick", seed=11)
        records = outcome.metadata["churn_seeds"]
        assert outcome.metadata["master_seed"] == 11
        assert len(records) == 1  # quick scale: one churn scenario
        record = records[0]
        # The recorded (entropy, spawn_key) rebuilds the exact stream.
        rebuilt = np.random.SeedSequence(
            record["population_seed"]["entropy"],
            spawn_key=tuple(record["population_seed"]["spawn_key"]),
        )
        # Hierarchy: master -> (loss_root, churn_root) -> per-scenario
        # (population, run) pairs; the first churn population stream is
        # the churn root's first child.
        churn_root = np.random.SeedSequence(11).spawn(2)[1]
        original = churn_root.spawn(2)[0]
        assert (
            rebuilt.generate_state(4).tolist()
            == original.generate_state(4).tolist()
        )
        # And the metadata survives the JSON round trip.
        assert "metadata" in outcome.to_dict()

    def test_ext3_registered_and_passes_quick(self):
        from repro.experiments import get_experiment

        outcome = get_experiment("EXT3").run(scale="quick", seed=42)
        assert outcome.passed, [c.name for c in outcome.failures]
        assert "byzantine_frontier" in outcome.metadata

class TestCrashBoundarySchedules:
    """Boundary geometry of scheduled crash windows.

    The edges the engines must get right: a recovery that lands exactly
    on the horizon (the fault stays active through the final round and
    no recovery is ever observed), a window entirely beyond the horizon
    (the run must be bit-identical to ``fault_model=None``), zero-length
    windows (rejected at construction), and overlapping composed
    schedules (transition union, left-to-right display order).
    """

    def test_recovery_at_horizon_active_through_final_round(self):
        pop = Population(CONFIG, shuffle=False)
        horizon = 12
        fault = CrashFault(
            fraction=0.25, mode="symbol", symbol=1,
            crash_round=horizon - 3, recovery_round=horizon,
        )
        fault.reset(pop, 2, np.random.default_rng(0))
        honest = np.zeros(CONFIG.n, dtype=np.int64)
        rng = np.random.default_rng(1)
        last = fault.transform_displays(horizon - 1, honest, rng)
        assert (last[fault.agents] == 1).all()
        # One round past the horizon the fault would release, but the
        # run never gets there; recovery-scheduled agents stay counted.
        assert fault.transform_displays(horizon, honest, rng) is honest
        assert fault.evaluation_mask() is None

    def test_fast_ssf_accepts_recovery_exactly_at_horizon(self):
        probe = FastSelfStabilizingSourceFilter(CONFIG, 0.1)
        epoch = probe.schedule.epoch_rounds
        horizon = 6 * epoch
        fault = CrashFault(
            fraction=0.25, mode="symbol", symbol=1,
            crash_round=4 * epoch, recovery_round=horizon,
        )
        result = FastSelfStabilizingSourceFilter(
            CONFIG, 0.1, fault_model=fault
        ).run(rng=5, max_rounds=horizon, stop_on_consensus=False)
        assert result.rounds_executed == horizon

    def test_window_beyond_horizon_is_bit_identical(self):
        schedule = SFSchedule.from_config(CONFIG, 0.2, m=24)
        horizon = schedule.total_rounds
        # Explicit agents: fraction-based selection would draw from the
        # run's generator at reset (the engine's one-stream seeding
        # contract) and legitimately shift the sampling stream.
        dormant = CrashFault(
            agents=[20, 21, 22], mode="symbol", symbol=1,
            crash_round=horizon + 1, recovery_round=horizon + 10,
        )
        runs = [
            PullEngine(
                Population(CONFIG, shuffle=False), NoiseMatrix.uniform(0.2, 2)
            ).run(
                SourceFilterProtocol(schedule),
                max_rounds=horizon,
                rng=3,
                fault_model=fault,
            )
            for fault in (None, dormant)
        ]
        assert np.array_equal(runs[0].final_opinions, runs[1].final_opinions)
        assert runs[0].converged == runs[1].converged
        assert runs[0].rounds_executed == runs[1].rounds_executed

    def test_zero_length_windows_rejected(self):
        with pytest.raises(ConfigurationError, match="recovery_round"):
            CrashFault(fraction=0.1, crash_round=7, recovery_round=7)
        with pytest.raises(ConfigurationError, match="recovery_round"):
            CrashFault(fraction=0.1, crash_round=7, recovery_round=3)

    def test_overlapping_composed_schedules(self):
        pop = Population(CONFIG, shuffle=False)
        early = CrashFault(
            agents=[10, 11, 12], mode="symbol", symbol=1,
            crash_round=2, recovery_round=8,
        )
        late = CrashFault(
            agents=[12, 13], mode="symbol", symbol=0,
            crash_round=5, recovery_round=11,
        )
        composed = ComposedFaultModel([early, late])
        composed.reset(pop, 2, np.random.default_rng(0))
        assert composed.transition_rounds() == (2, 5, 8, 11)
        assert composed.onset_round == 2
        honest = np.ones(CONFIG.n, dtype=np.int64)
        honest[pop.source_indices] = pop.preferences[pop.source_indices]
        rng = np.random.default_rng(1)
        # Overlap (rounds 5..7): displays chain left-to-right, so the
        # later model wins on the shared agent 12.
        overlap = composed.transform_displays(6, honest.copy(), rng)
        assert (overlap[[10, 11]] == 1).all()
        assert (overlap[[12, 13]] == 0).all()
        # After the first recovery only the late window remains.
        tail = composed.transform_displays(9, honest.copy(), rng)
        assert (tail[[10, 11]] == 1).all()
        assert (tail[[12, 13]] == 0).all()

    def test_recovery_tracker_telemetry_counts_exact(self):
        sink = MemorySink()
        tele = Telemetry(sinks=[sink])
        tracker = RecoveryTracker(onset_round=4, floor=0.1)
        tracker.observe(2, 0.5)   # pre-onset: ignored entirely
        tracker.observe(5, 0.45)
        tracker.observe(7, 0.08)  # first floor entry
        tracker.observe(9, 0.3)   # re-entry resets the clock
        tracker.observe(13, 0.1)  # final re-entry (== floor counts)
        tracker.emit(tele)
        metrics = {
            e.name: e.value
            for e in sink.events
            if getattr(e, "name", "").startswith("faults.")
        }
        assert metrics["faults.runs"] == 1
        assert metrics["faults.recovered_runs"] == 1
        assert metrics["faults.onset_round"] == 4.0
        assert metrics["faults.recovery_rounds"] == 9.0  # 13 - 4
        assert metrics["faults.worst_wrong_fraction"] == 0.45
        assert metrics["faults.final_wrong_fraction"] == 0.1
