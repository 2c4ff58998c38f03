"""Topology threading through the engines and the registry."""

import numpy as np
import pytest

from repro import PopulationConfig, SourceCounts
from repro.engines import capability_table, create_engine, engine_spec
from repro.exceptions import UnsupportedFeatureError
from repro.faults import ByzantineDisplayFault, IdentityFaultModel
from repro.model import BatchedPullEngine, Population, PullEngine
from repro.noise import NoiseMatrix
from repro.protocols import (
    BatchedSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SSFSchedule,
    SourceFilterProtocol,
)
from repro.topology import ChurnTopology, CompleteTopology, RandomRegularTopology

pytestmark = pytest.mark.topology

CONFIG = PopulationConfig(n=64, sources=SourceCounts(1, 4), h=4)
DELTA = 0.2


class TestCompleteBitIdentity:
    """topology='complete' must be indistinguishable from no topology."""

    def test_registry_fast_engine(self):
        # The ISSUE acceptance criterion, verbatim.
        plain = create_engine("fast", "sf", CONFIG, DELTA).run(seed=5)
        topo = create_engine(
            "fast", "sf", CONFIG, DELTA, topology="complete"
        ).run(seed=5)
        assert np.array_equal(plain.final_opinions, topo.final_opinions)
        assert np.array_equal(plain.weak_opinions, topo.weak_opinions)
        assert plain.converged == topo.converged

    def test_serial_engine(self):
        schedule = SFSchedule.from_config(CONFIG, DELTA, m=24)
        population = Population(CONFIG, rng=np.random.default_rng(0))
        noise = NoiseMatrix.uniform(DELTA, 2)
        runs = [
            PullEngine(population, noise).run(
                SourceFilterProtocol(schedule),
                max_rounds=schedule.total_rounds,
                rng=9,
                topology=topology,
            )
            for topology in (None, "complete", CompleteTopology())
        ]
        for other in runs[1:]:
            assert np.array_equal(
                runs[0].final_opinions, other.final_opinions
            )

    def test_batched_engine(self):
        schedule = SFSchedule.from_config(CONFIG, DELTA, m=24)
        population = Population(CONFIG, rng=np.random.default_rng(0))
        noise = NoiseMatrix.uniform(DELTA, 2)
        engine = BatchedPullEngine(population, noise)
        plain = engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=3,
            rng=9,
        )
        topo = engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=3,
            rng=9,
            topology="complete",
        )
        for a, b in zip(plain, topo):
            assert np.array_equal(a.final_opinions, b.final_opinions)


class TestQuenchedGraphAgreement:
    def test_batched_replicas_match_serial_on_shared_graph(self):
        # One quenched graph, shared: batched replica r must reproduce a
        # serial run on spawn-child r of the same root bit for bit.
        schedule = SFSchedule.from_config(CONFIG, DELTA, m=24)
        population = Population(CONFIG, rng=np.random.default_rng(0))
        noise = NoiseMatrix.uniform(DELTA, 2)
        sampler = RandomRegularTopology(degree=6).bind(CONFIG.n, 77)
        batched = BatchedPullEngine(population, noise).run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=3,
            rng=31,
            topology=sampler,
        )
        serial_engine = PullEngine(population, noise)
        for child, result in zip(
            np.random.SeedSequence(31).spawn(3), batched
        ):
            reference = serial_engine.run(
                SourceFilterProtocol(schedule),
                max_rounds=schedule.total_rounds,
                rng=np.random.default_rng(child),
                topology=sampler,
            )
            assert np.array_equal(
                reference.final_opinions, result.final_opinions
            )


class TestCapabilityGrid:
    def test_capability_table_has_topology_column(self):
        rows = {row["name"]: row for row in capability_table()}
        assert rows["fast"]["graph_kinds"]["sf"]
        assert rows["serial"]["graph_kinds"]["ssf"]
        assert rows["batched"]["graph_kinds"]["sf"]
        assert not any(rows["count"]["graph_kinds"].values())
        assert not any(rows["mean-field"]["graph_kinds"].values())

    def test_agent_blind_engines_reject_graphs(self):
        for engine in ("count", "mean-field"):
            with pytest.raises(UnsupportedFeatureError, match="agent-blind"):
                create_engine(engine, "sf", CONFIG, DELTA, topology="regular")

    def test_graph_acceptance_matches_capability_column(self):
        for row in capability_table():
            for protocol in row["protocols"]:
                args = (row["name"], protocol, CONFIG, DELTA)
                if "static" in row["graph_kinds"][protocol]:
                    handle = create_engine(*args, topology="regular")
                    assert handle.protocol == protocol
                else:
                    with pytest.raises(UnsupportedFeatureError, match="graph"):
                        create_engine(*args, topology="regular")

    def test_agent_blind_engines_accept_complete(self):
        # Uniform specs collapse to None before the capability check.
        handle = create_engine(
            "count", "sf", CONFIG, DELTA, topology="complete"
        )
        assert handle.run(seed=0).rounds > 0

    def test_graph_plus_fault_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="fault"):
            create_engine(
                "fast", "sf", CONFIG, DELTA,
                topology="regular",
                fault_model=ByzantineDisplayFault(fraction=0.1),
            )

    @pytest.mark.parametrize(
        "engine,protocol",
        [
            (row["name"], protocol)
            for row in capability_table()
            for protocol in row["protocols"]
            if "static" in row["graph_kinds"][protocol]
        ],
    )
    def test_null_fault_beside_a_static_graph_is_the_plain_run(
        self, engine, protocol
    ):
        # A null fault model is absent: next to a pre-bound graph it must
        # give the plain graph run, on every engine that takes a graph.
        if protocol == "sf":
            config, delta, run = CONFIG, DELTA, {}
            schedule = SFSchedule.from_config(config, delta, m=24)
        else:
            config = PopulationConfig(n=64, sources=SourceCounts(0, 2), h=16)
            delta = 0.05
            schedule = SSFSchedule.from_config(config, delta)
            run = {"max_rounds": 2 * schedule.epoch_rounds}
        graph = RandomRegularTopology(degree=8).bind(
            config.n, np.random.default_rng(0)
        )
        plain, null = (
            create_engine(
                engine, protocol, config, delta, schedule=schedule,
                topology=graph, **seam,
            ).run(seed=3, **run)
            for seam in ({}, {"fault_model": IdentityFaultModel()})
        )
        assert np.array_equal(plain.final_opinions, null.final_opinions)
        assert plain.converged == null.converged

    def test_identity_fault_composes_on_serial(self):
        handle = create_engine(
            "serial", "sf", CONFIG, DELTA,
            topology="regular", fault_model=IdentityFaultModel(),
        )
        assert handle.run(seed=0).rounds > 0

    def test_batched_rejects_dynamic_topology(self):
        schedule = SFSchedule.from_config(CONFIG, DELTA, m=24)
        population = Population(CONFIG, rng=np.random.default_rng(0))
        engine = BatchedPullEngine(population, NoiseMatrix.uniform(DELTA, 2))
        with pytest.raises(UnsupportedFeatureError, match="dynamic"):
            engine.run(
                BatchedSourceFilter(schedule),
                max_rounds=schedule.total_rounds,
                replicas=2,
                rng=0,
                topology=ChurnTopology(degree=4),
            )

    def test_spec_serialization_includes_topology(self):
        assert engine_spec("fast").to_dict()["graph_kinds"] == {
            "sf": ["static"], "ssf": [],
        }


class TestStructuredFastEngine:
    def test_fast_matches_family_not_instance(self):
        # Annealed string spec: two runs on different seeds see
        # different graphs but both converge on a dense-enough family.
        results = [
            FastSourceFilter(
                PopulationConfig(n=128, sources=SourceCounts(0, 8), h=8),
                0.1,
                topology=RandomRegularTopology(degree=64),
            ).run(rng=seed)
            for seed in (0, 1)
        ]
        assert all(r.converged for r in results)

    def test_churn_on_fast_rejected_at_construction(self):
        with pytest.raises(UnsupportedFeatureError, match="dynamic"):
            FastSourceFilter(CONFIG, DELTA, topology="churn")

    def test_serial_runs_churn(self):
        handle = create_engine(
            "serial", "sf", CONFIG, DELTA, topology="churn"
        )
        assert handle.run(seed=0).rounds > 0
