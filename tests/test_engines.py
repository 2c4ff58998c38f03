"""The unified engine registry: capabilities and the canonical run contract."""

import pickle

import numpy as np
import pytest

from repro import PopulationConfig, SourceCounts
from repro.engines import (
    EngineHandle,
    capability_table,
    create_engine,
    engine_spec,
    list_engines,
)
from repro.exceptions import ConfigurationError, UnsupportedFeatureError
from repro.faults import (
    ByzantineDisplayFault,
    CrashFault,
    IdentityFaultModel,
    NoiseMisspecification,
    StuckAtFault,
)
from repro.noise import NoiseMatrix
from repro.protocols import SFSchedule, SSFSchedule
from repro.topology import RandomRegularTopology
from repro.types import merge_rng_seed


def _config(n=48, s0=1, s1=3, h=4):
    return PopulationConfig(n=n, sources=SourceCounts(s0=s0, s1=s1), h=h)


#: One cheap, runnable (engine, protocol, kwargs) combination per
#: registered engine — the conformance grid for the canonical contract.
def _canonical_cases():
    config = _config()
    short_sf = SFSchedule.from_config(config, 0.2, m=24)
    ssf_config = PopulationConfig(n=32, sources=SourceCounts(0, 1), h=16)
    # The net case boots a real localhost UDP cluster, so it stays tiny:
    # 12 peers on a deliberately truncated schedule (~14 rounds).
    net_config = PopulationConfig(n=12, sources=SourceCounts(0, 2), h=6)
    net_schedule = SFSchedule.from_config(
        net_config, 0.2, m=12, boost_numerator=8, subphase_factor=0.5
    )
    return [
        ("fast", "sf", config, 0.2, {"schedule": short_sf}),
        ("count", "sf", config, 0.2, {"schedule": short_sf}),
        ("mean-field", "sf", config, 0.2, {"schedule": short_sf}),
        ("serial", "sf", config, 0.2, {"schedule": short_sf}),
        ("batched", "sf", config, 0.2, {"schedule": short_sf}),
        ("async", "ssf", ssf_config, 0.05, {}),
        ("net", "sf", net_config, 0.2, {"schedule": net_schedule}),
    ]


class TestRegistry:
    def test_list_engines_sorted_and_complete(self):
        names = list_engines()
        assert names == sorted(names)
        assert names == [
            "async", "batched", "count", "fast", "mean-field", "net",
            "serial",
        ]

    def test_capability_table_rows(self):
        table = capability_table()
        assert [row["name"] for row in table] == list_engines()
        for row in table:
            assert set(row) == {
                "name", "description", "protocols", "fault_traits",
                "supports_batch", "agent_blind", "graph_kinds",
            }
            assert row["protocols"], f"{row['name']} registers no protocol"
            assert set(row["fault_traits"]) == set(row["protocols"])
            assert set(row["graph_kinds"]) == set(row["protocols"])
            # Agent-blind engines can never admit per-agent faults or
            # sample from a graph.
            if row["agent_blind"]:
                for protocol in row["protocols"]:
                    assert "agent-indexed" not in row["fault_traits"][protocol]
                    assert not row["graph_kinds"][protocol]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            engine_spec("bogus")
        with pytest.raises(ConfigurationError, match="unknown engine"):
            create_engine("bogus", "sf", _config(), 0.2)

    @pytest.mark.parametrize(
        "engine,protocol",
        [("mean-field", "ssf"), ("async", "sf"), ("batched", "ssf")],
    )
    def test_unsupported_protocol_rejected(self, engine, protocol):
        with pytest.raises(ConfigurationError, match="supports protocol"):
            create_engine(engine, protocol, _config(), 0.2)

    def test_handles_pickle(self):
        for engine, protocol, config, delta, kwargs in _canonical_cases():
            handle = create_engine(engine, protocol, config, delta, **kwargs)
            clone = pickle.loads(pickle.dumps(handle))
            assert isinstance(clone, EngineHandle)
            assert clone.name == engine


class TestCanonicalRunContract:
    """Every registered engine accepts the EngineRunner keyword family."""

    @pytest.mark.parametrize(
        "engine,protocol,config,delta,kwargs",
        _canonical_cases(),
        ids=[case[0] for case in _canonical_cases()],
    )
    def test_canonical_call(self, engine, protocol, config, delta, kwargs):
        handle = create_engine(engine, protocol, config, delta, **kwargs)
        report = handle.run(max_rounds=None, rng=None, seed=3, telemetry=None)
        # The RunReport vocabulary: success, rounds, seed.
        assert isinstance(report.success, bool)
        assert report.rounds >= 0
        assert hasattr(report, "seed")

    def test_seed_and_rng_are_alternative_spellings(self):
        handle = create_engine("serial", "sf", _config(), 0.2,
                               schedule=SFSchedule.from_config(_config(), 0.2, m=24))
        by_seed = handle.run(seed=5)
        by_rng = handle.run(rng=5)
        assert np.array_equal(by_seed.final_opinions, by_rng.final_opinions)
        assert by_seed.rounds_executed == by_rng.rounds_executed

    def test_seed_and_rng_together_rejected(self):
        handle = create_engine("fast", "sf", _config(), 0.2)
        with pytest.raises(ConfigurationError, match="not both"):
            handle.run(rng=np.random.default_rng(0), seed=1)

    def test_fixed_sf_horizon_rejects_max_rounds(self):
        for engine in ("fast", "count", "mean-field"):
            handle = create_engine(engine, "sf", _config(), 0.2)
            with pytest.raises(UnsupportedFeatureError, match="max_rounds"):
                handle.run(max_rounds=7, seed=0)

    def test_merge_rng_seed_contract(self):
        assert merge_rng_seed(None, 7) == 7
        assert merge_rng_seed(3, None) == 3
        assert merge_rng_seed(None, None) is None
        with pytest.raises(ValueError, match="not both"):
            merge_rng_seed(3, 7)


class TestFaultCapabilityErrors:
    """Agent-blind engines raise one typed error on the fault models
    their rows refuse (count admits subset faults, but not per-round
    random displays) — identically at the registry seam and under
    direct construction."""

    @pytest.mark.parametrize("engine", ["count", "mean-field"])
    def test_registry_rejects_faults_on_agent_blind(self, engine):
        with pytest.raises(UnsupportedFeatureError, match="agent-blind"):
            create_engine(
                engine, "sf", _config(), 0.2,
                fault_model=ByzantineDisplayFault(fraction=0.1, mode="random"),
            )

    def test_direct_construction_raises_same_type(self):
        from repro.analysis.mean_field import MeanFieldEngine
        from repro.protocols import CountSourceFilter

        fault = ByzantineDisplayFault(fraction=0.1, mode="random")
        with pytest.raises(UnsupportedFeatureError):
            CountSourceFilter(_config(), 0.2, fault_model=fault)
        with pytest.raises(UnsupportedFeatureError):
            MeanFieldEngine(_config(), 0.2, fault_model=fault)

    @pytest.mark.parametrize("protocol", ["sf", "ssf"])
    def test_count_refuses_a_channel_of_the_wrong_alphabet(self, protocol):
        # The count adapters never reset the fault model, so only the
        # gate sees the true channel's alphabet.
        from repro.protocols import (
            CountSelfStabilizingSourceFilter,
            CountSourceFilter,
        )

        config = PopulationConfig(1000, SourceCounts(0, 3), 16)
        sf = protocol == "sf"
        delta, other = (0.2, 4) if sf else (0.05, 2)
        direct = CountSourceFilter if sf else CountSelfStabilizingSourceFilter
        for build in (
            lambda fault: create_engine(
                "count", protocol, config, delta, fault_model=fault
            ),
            lambda fault: direct(config, delta, fault_model=fault),
        ):
            with pytest.raises(ConfigurationError, match="alphabet"):
                build(NoiseMisspecification.uniform(0.1, size=other))

    def test_unsupported_feature_is_configuration_error(self):
        # Except-clauses written for the old error type keep working.
        assert issubclass(UnsupportedFeatureError, ConfigurationError)

    @pytest.mark.parametrize("engine", ["count", "mean-field"])
    def test_null_fault_model_accepted(self, engine):
        handle = create_engine(
            engine, "sf", _config(), 0.2, fault_model=IdentityFaultModel()
        )
        assert handle.name == engine

    def test_agent_level_engines_accept_faults(self):
        handle = create_engine(
            "fast", "sf", _config(n=64, s0=0, s1=4, h=8), 0.2,
            fault_model=ByzantineDisplayFault(fraction=0.05),
        )
        assert handle.run(seed=0).rounds > 0


class TestNetCapabilityErrors:
    """The net backend mirrors the capability grid: every unsupported
    feature is one typed UnsupportedFeatureError at construction time,
    identically through the registry and under direct construction."""

    def test_model_layer_faults_rejected_with_link_layer_pointer(self):
        # Faults on the net backend live at the link layer
        # (drop_probability / byzantine_fraction), not in repro.faults.
        with pytest.raises(UnsupportedFeatureError, match="link layer"):
            create_engine(
                "net", "sf", _config(), 0.2,
                fault_model=ByzantineDisplayFault(fraction=0.1),
            )

    def test_null_fault_model_accepted(self):
        handle = create_engine(
            "net", "sf", _config(), 0.2, fault_model=IdentityFaultModel()
        )
        assert handle.name == "net"

    def test_peer_cap_rejected_at_registry_and_directly(self):
        from repro.net import NET_MAX_PEERS, ClusterRunner

        big = PopulationConfig(
            n=NET_MAX_PEERS + 1, sources=SourceCounts(0, 2), h=4
        )
        with pytest.raises(UnsupportedFeatureError, match="peer"):
            create_engine("net", "sf", big, 0.2)
        with pytest.raises(UnsupportedFeatureError, match="peer"):
            ClusterRunner("sf", big, 0.2)

    def test_simulation_only_kwargs_rejected(self):
        # ``handoff`` belongs to the count engines; the networked
        # runtime cannot honor it and must say so, not silently ignore.
        with pytest.raises(UnsupportedFeatureError, match="handoff"):
            create_engine("net", "sf", _config(), 0.2, handoff=True)

    def test_link_layer_kwargs_accepted(self):
        handle = create_engine(
            "net", "sf", _config(), 0.2,
            drop_probability=0.1, byzantine_fraction=0.05, round_timeout=2.0,
        )
        assert handle.name == "net"


try:
    from hypothesis import given, strategies as st

    from repro.verify.strategies import population_configs

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    class TestRegistryProperties:
        """Registry construction over engine names x protocols x configs."""

        @given(
            engine=st.sampled_from(list_engines()),
            protocol=st.sampled_from(["sf", "ssf"]),
            config=population_configs(min_n=16, max_n=96, max_sources=4),
            delta=st.floats(min_value=0.01, max_value=0.2),
        )
        def test_create_engine_total_over_capability_table(
            self, engine, protocol, config, delta
        ):
            """create_engine succeeds iff the spec lists the protocol,
            and never raises anything but the typed errors."""
            spec = engine_spec(engine)
            if protocol in spec.protocols:
                handle = create_engine(engine, protocol, config, delta)
                assert handle.name == engine
                assert handle.protocol == protocol
                assert handle.config is config
            else:
                with pytest.raises(ConfigurationError):
                    create_engine(engine, protocol, config, delta)

        @given(
            engine=st.sampled_from(list_engines()),
            config=population_configs(min_n=16, max_n=96, max_sources=4),
        )
        def test_fault_rejection_matches_capability_flag(self, engine, config):
            spec = engine_spec(engine)
            protocol = spec.protocols[0]
            fault = ByzantineDisplayFault(fraction=0.1)
            if fault.traits <= spec.fault_traits.get(protocol, frozenset()):
                handle = create_engine(
                    engine, protocol, config, 0.1, fault_model=fault
                )
                assert handle.fault_model is fault
            else:
                with pytest.raises(UnsupportedFeatureError):
                    create_engine(
                        engine, protocol, config, 0.1, fault_model=fault
                    )


# ----------------------------------------------------------------------
# The seam matrix: every capability-table pair against every fault class
# and graph, pinned cell by cell.
# ----------------------------------------------------------------------

#: One small instance per protocol; SSF runs stop after two rounds,
#: which is enough to reach every check a run makes up front.
_SEAM_INSTANCES = {
    "sf": (PopulationConfig(n=48, sources=SourceCounts(1, 3), h=4), 0.2),
    "ssf": (PopulationConfig(n=48, sources=SourceCounts(0, 2), h=24), 0.05),
}
_SEAM_SSF_ROUNDS = 2
_SKEWED_CHANNELS = {
    2: [[0.85, 0.15], [0.25, 0.75]],
    4: [
        [0.91, 0.03, 0.03, 0.03],
        [0.02, 0.94, 0.02, 0.02],
        [0.05, 0.05, 0.85, 0.05],
        [0.03, 0.03, 0.03, 0.91],
    ],
}


def _seam_schedule(protocol):
    """A truncated 21-round SF schedule, or the default SSF one."""
    config, delta = _SEAM_INSTANCES[protocol]
    if protocol == "ssf":
        return SSFSchedule.from_config(config, delta)
    return SFSchedule.from_config(
        config, delta, m=12, boost_numerator=8, subphase_factor=0.5
    )


def _seam_faults(alphabet):
    """Fault factories for one protocol alphabet (fresh model per cell)."""
    other = 6 - alphabet  # the other paper alphabet: 2 <-> 4
    return {
        "null": IdentityFaultModel,
        "byzantine-fixed": lambda: ByzantineDisplayFault(fraction=0.1),
        "byzantine-random": lambda: ByzantineDisplayFault(
            fraction=0.1, mode="random"
        ),
        "byzantine-anti-majority": lambda: ByzantineDisplayFault(
            fraction=0.1, mode="anti-majority"
        ),
        "crash-symbol": lambda: CrashFault(fraction=0.1),
        "crash-exclude": lambda: CrashFault(fraction=0.1, mode="exclude"),
        "crash-symbol-recovery": lambda: CrashFault(
            fraction=0.1, crash_round=2, recovery_round=6
        ),
        "crash-exclude-recovery": lambda: CrashFault(
            fraction=0.1, crash_round=2, recovery_round=6, mode="exclude"
        ),
        "stuck-at": lambda: StuckAtFault(fraction=0.1),
        "misspecified-uniform": lambda: NoiseMisspecification.uniform(
            0.1, size=alphabet
        ),
        "misspecified-wrong-alphabet": lambda: NoiseMisspecification.uniform(
            0.1, size=other
        ),
        "misspecified-skewed": lambda: NoiseMisspecification(
            NoiseMatrix(_SKEWED_CHANNELS[alphabet])
        ),
    }


def _seam_cells(protocol):
    """``label -> (fault factory, topology factory)`` for one protocol."""
    config, _ = _SEAM_INSTANCES[protocol]
    faults = _seam_faults(2 if protocol == "sf" else 4)
    graph = RandomRegularTopology(degree=8).bind(
        config.n, np.random.default_rng(0)
    )
    graphs = {
        "complete": lambda: "complete",
        "regular": lambda: graph,
        "churn": lambda: "churn",
    }
    cells = {label: (make, lambda: None) for label, make in faults.items()}
    for fault in ("null", "byzantine-fixed"):
        for kind, make_graph in graphs.items():
            cells[f"{fault}+{kind}"] = (faults[fault], make_graph)
    return cells


def _direct_run(name, protocol, fault_model, topology):
    """Run one cell on the engine class itself, not through the registry;
    ``None`` when that class takes no ``topology=`` to pass."""
    from repro.analysis.mean_field import MeanFieldEngine
    from repro.model import BatchedPullEngine, Population, PullEngine
    from repro.model.async_engine import AsyncPullEngine
    from repro.protocols import (
        BatchedSourceFilter,
        CountSelfStabilizingSourceFilter,
        CountSourceFilter,
        FastSelfStabilizingSourceFilter,
        FastSourceFilter,
        SelfStabilizingSourceFilterProtocol,
        SourceFilterProtocol,
    )
    from repro.protocols.ssf_async import AsyncSelfStabilizingSourceFilter

    config, delta = _SEAM_INSTANCES[protocol]
    sf = protocol == "sf"
    schedule = _seam_schedule(protocol)
    seams = {"fault_model": fault_model}
    if topology is not None:
        if name not in ("fast", "serial", "batched"):
            return None
        seams["topology"] = topology
    if name in ("fast", "count", "mean-field"):
        classes = {
            ("fast", "sf"): FastSourceFilter,
            ("fast", "ssf"): FastSelfStabilizingSourceFilter,
            ("count", "sf"): CountSourceFilter,
            ("count", "ssf"): CountSelfStabilizingSourceFilter,
            ("mean-field", "sf"): MeanFieldEngine,
        }
        engine = classes[name, protocol](
            config, delta, schedule=schedule, **seams
        )
        return engine.run(rng=0) if sf else engine.run(
            max_rounds=_SEAM_SSF_ROUNDS, rng=0
        )
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(delta, 2 if sf else 4)
    rounds = schedule.total_rounds if sf else _SEAM_SSF_ROUNDS
    if name == "serial":
        agent_protocol = (
            SourceFilterProtocol(schedule)
            if sf
            else SelfStabilizingSourceFilterProtocol(schedule)
        )
        return PullEngine(population, noise).run(
            agent_protocol, max_rounds=rounds, rng=0, **seams
        )
    if name == "batched":
        return BatchedPullEngine(population, noise).run(
            BatchedSourceFilter(schedule), max_rounds=rounds, replicas=1,
            rng=0, **seams
        )
    return AsyncPullEngine(population, noise).run(
        AsyncSelfStabilizingSourceFilter(schedule),
        max_activations=config.n * rounds, rng=0, **seams
    )


def _seam_matrix():
    """``(registry, direct)`` outcomes of every seam cell.

    A registry outcome is ``"accepted"`` or ``"<stage>:<error class>"``,
    the stage being ``create`` (``create_engine``) or ``run`` (the first
    ``run(seed=0)``; never attempted on ``net``).  A direct outcome is
    the error class the engine class raises on the same cell, or
    ``"accepted"``.
    """
    registry, direct = {}, {}
    for row in capability_table():
        name = row["name"]
        for protocol in row["protocols"]:
            config, delta = _SEAM_INSTANCES[protocol]
            sf = protocol == "sf"
            schedule = _seam_schedule(protocol)
            pair = f"{name}/{protocol}"
            for label, (make_fault, make_graph) in _seam_cells(protocol).items():
                seams = {"fault_model": make_fault()}
                if make_graph() is not None:
                    seams["topology"] = make_graph()
                stage = "create"
                try:
                    handle = create_engine(
                        name, protocol, config, delta, schedule=schedule,
                        **seams,
                    )
                    stage = "run"
                    if name != "net":
                        handle.run(seed=0, **(
                            {} if sf else {"max_rounds": _SEAM_SSF_ROUNDS}
                        ))
                    outcome = "accepted"
                except Exception as error:  # pinned whatever its class
                    outcome = f"{stage}:{type(error).__name__}"
                registry[pair, label] = outcome
                if name == "net":
                    continue
                try:
                    ran = _direct_run(
                        name, protocol, make_fault(), make_graph()
                    )
                    if ran is None:
                        continue
                    direct[pair, label] = "accepted"
                except Exception as error:
                    direct[pair, label] = type(error).__name__
    return registry, direct


#: Each cell's outcome on the instances above: ``"accepted"``, or where
#: the error was raised (``create`` or ``run``) and its class.
_PINNED_SEAM_MATRIX = {
    "async/ssf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "accepted",
        "byzantine-anti-majority": "create:UnsupportedFeatureError",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "accepted",
        "crash-exclude-recovery": "accepted",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "accepted",
        "null+complete": "accepted",
        "null+regular": "create:UnsupportedFeatureError",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "batched/sf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "accepted",
        "byzantine-anti-majority": "accepted",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "accepted",
        "crash-exclude-recovery": "accepted",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "accepted",
        "null+complete": "accepted",
        "null+regular": "accepted",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "count/sf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "create:UnsupportedFeatureError",
        "byzantine-anti-majority": "accepted",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "create:UnsupportedFeatureError",
        "crash-exclude-recovery": "create:UnsupportedFeatureError",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "create:UnsupportedFeatureError",
        "null+complete": "accepted",
        "null+regular": "create:UnsupportedFeatureError",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "count/ssf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "create:UnsupportedFeatureError",
        "byzantine-anti-majority": "accepted",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "create:UnsupportedFeatureError",
        "crash-exclude-recovery": "create:UnsupportedFeatureError",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "create:UnsupportedFeatureError",
        "null+complete": "accepted",
        "null+regular": "create:UnsupportedFeatureError",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "fast/sf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "create:UnsupportedFeatureError",
        "byzantine-anti-majority": "accepted",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "create:UnsupportedFeatureError",
        "crash-exclude-recovery": "create:UnsupportedFeatureError",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "create:UnsupportedFeatureError",
        "null+complete": "accepted",
        "null+regular": "accepted",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "fast/ssf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "create:UnsupportedFeatureError",
        "byzantine-anti-majority": "accepted",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "accepted",
        "crash-exclude-recovery": "accepted",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "create:UnsupportedFeatureError",
        "null+complete": "accepted",
        "null+regular": "create:UnsupportedFeatureError",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "mean-field/sf": {
        "null": "accepted",
        "byzantine-fixed": "create:UnsupportedFeatureError",
        "byzantine-random": "create:UnsupportedFeatureError",
        "byzantine-anti-majority": "create:UnsupportedFeatureError",
        "crash-symbol": "create:UnsupportedFeatureError",
        "crash-exclude": "create:UnsupportedFeatureError",
        "crash-symbol-recovery": "create:UnsupportedFeatureError",
        "crash-exclude-recovery": "create:UnsupportedFeatureError",
        "stuck-at": "create:UnsupportedFeatureError",
        "misspecified-uniform": "create:UnsupportedFeatureError",
        "misspecified-wrong-alphabet": "create:UnsupportedFeatureError",
        "misspecified-skewed": "create:UnsupportedFeatureError",
        "null+complete": "accepted",
        "null+regular": "create:UnsupportedFeatureError",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "create:UnsupportedFeatureError",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "net/sf": {
        "null": "accepted",
        "byzantine-fixed": "create:UnsupportedFeatureError",
        "byzantine-random": "create:UnsupportedFeatureError",
        "byzantine-anti-majority": "create:UnsupportedFeatureError",
        "crash-symbol": "create:UnsupportedFeatureError",
        "crash-exclude": "create:UnsupportedFeatureError",
        "crash-symbol-recovery": "create:UnsupportedFeatureError",
        "crash-exclude-recovery": "create:UnsupportedFeatureError",
        "stuck-at": "create:UnsupportedFeatureError",
        "misspecified-uniform": "create:UnsupportedFeatureError",
        "misspecified-wrong-alphabet": "create:UnsupportedFeatureError",
        "misspecified-skewed": "create:UnsupportedFeatureError",
        "null+complete": "accepted",
        "null+regular": "create:UnsupportedFeatureError",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "create:UnsupportedFeatureError",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "net/ssf": {
        "null": "accepted",
        "byzantine-fixed": "create:UnsupportedFeatureError",
        "byzantine-random": "create:UnsupportedFeatureError",
        "byzantine-anti-majority": "create:UnsupportedFeatureError",
        "crash-symbol": "create:UnsupportedFeatureError",
        "crash-exclude": "create:UnsupportedFeatureError",
        "crash-symbol-recovery": "create:UnsupportedFeatureError",
        "crash-exclude-recovery": "create:UnsupportedFeatureError",
        "stuck-at": "create:UnsupportedFeatureError",
        "misspecified-uniform": "create:UnsupportedFeatureError",
        "misspecified-wrong-alphabet": "create:UnsupportedFeatureError",
        "misspecified-skewed": "create:UnsupportedFeatureError",
        "null+complete": "accepted",
        "null+regular": "create:UnsupportedFeatureError",
        "null+churn": "create:UnsupportedFeatureError",
        "byzantine-fixed+complete": "create:UnsupportedFeatureError",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "serial/sf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "accepted",
        "byzantine-anti-majority": "accepted",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "accepted",
        "crash-exclude-recovery": "accepted",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "accepted",
        "null+complete": "accepted",
        "null+regular": "accepted",
        "null+churn": "accepted",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
    "serial/ssf": {
        "null": "accepted",
        "byzantine-fixed": "accepted",
        "byzantine-random": "accepted",
        "byzantine-anti-majority": "accepted",
        "crash-symbol": "accepted",
        "crash-exclude": "accepted",
        "crash-symbol-recovery": "accepted",
        "crash-exclude-recovery": "accepted",
        "stuck-at": "accepted",
        "misspecified-uniform": "accepted",
        "misspecified-wrong-alphabet": "create:ConfigurationError",
        "misspecified-skewed": "accepted",
        "null+complete": "accepted",
        "null+regular": "accepted",
        "null+churn": "accepted",
        "byzantine-fixed+complete": "accepted",
        "byzantine-fixed+regular": "create:UnsupportedFeatureError",
        "byzantine-fixed+churn": "create:UnsupportedFeatureError",
    },
}


@pytest.fixture(scope="module")
def seam_matrix():
    return _seam_matrix()


class TestSeamMatrix:
    """Which fault models and graphs each (engine, protocol) pair admits,
    and where it rejects the rest."""

    def test_every_cell_matches_the_pinned_outcome(self, seam_matrix):
        registry, _ = seam_matrix
        pinned = {
            (pair, label): outcome
            for pair, row in _PINNED_SEAM_MATRIX.items()
            for label, outcome in row.items()
        }
        changed = {
            cell: (pinned.get(cell), registry.get(cell))
            for cell in set(pinned) | set(registry)
            if pinned.get(cell) != registry.get(cell)
        }
        assert not changed, f"(pinned, now) per changed cell: {changed}"

    def test_direct_construction_raises_the_same_class(self, seam_matrix):
        registry, direct = seam_matrix
        assert direct, "no cell was run on an engine class directly"
        for cell, outcome in direct.items():
            assert registry[cell].split(":")[-1] == outcome, cell
