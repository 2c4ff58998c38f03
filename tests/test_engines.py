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
from repro.faults import ByzantineDisplayFault, IdentityFaultModel
from repro.protocols import SFSchedule
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
                "name", "description", "protocols", "supports_faults",
                "supports_batch", "agent_blind", "supports_topology",
            }
            assert row["protocols"], f"{row['name']} registers no protocol"
            # Agent-blind engines can never support per-agent faults.
            if row["agent_blind"]:
                assert not row["supports_faults"]

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
    """Agent-blind engines raise one typed error on fault models —
    identically at the registry seam and under direct construction."""

    @pytest.mark.parametrize("engine", ["count", "mean-field"])
    def test_registry_rejects_faults_on_agent_blind(self, engine):
        with pytest.raises(UnsupportedFeatureError, match="agent-blind"):
            create_engine(
                engine, "sf", _config(), 0.2,
                fault_model=ByzantineDisplayFault(fraction=0.1),
            )

    def test_direct_construction_raises_same_type(self):
        from repro.analysis.mean_field import MeanFieldEngine
        from repro.model.count_engine import CountPullEngine
        from repro.protocols import CountSourceFilter

        fault = ByzantineDisplayFault(fraction=0.1)
        with pytest.raises(UnsupportedFeatureError):
            CountPullEngine(_config(), 0.2, fault_model=fault)
        with pytest.raises(UnsupportedFeatureError):
            CountSourceFilter(_config(), 0.2, fault_model=fault)
        with pytest.raises(UnsupportedFeatureError):
            MeanFieldEngine(_config(), 0.2, fault_model=fault)

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
            if spec.supports_faults:
                handle = create_engine(
                    engine, protocol, config, 0.1, fault_model=fault
                )
                assert handle.fault_model is fault
            else:
                with pytest.raises(UnsupportedFeatureError):
                    create_engine(
                        engine, protocol, config, 0.1, fault_model=fault
                    )
