"""Unit tests for the topology samplers (repro.topology)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model import build_graph
from repro.topology import (
    TOPOLOGY_KINDS,
    ChurnTopology,
    CompleteTopology,
    ExplicitGraphTopology,
    GeometricTopology,
    GraphTopology,
    LatticeTopology,
    RandomRegularTopology,
    TopologySampler,
    create_topology,
    resolve_topology,
)

pytestmark = pytest.mark.topology


class TestCompleteTopology:
    def test_is_uniform_and_static(self):
        sampler = CompleteTopology()
        assert sampler.is_uniform
        assert not sampler.dynamic

    def test_sample_matches_legacy_stream_exactly(self):
        # The complete graph IS the model: the sample must be the same
        # generator call the untopologized engines make, bit for bit.
        sampler = CompleteTopology().bind(37)
        sampled = sampler.sample(None, 5, np.random.default_rng(99))
        expected = np.random.default_rng(99).integers(0, 37, size=(37, 5))
        assert np.array_equal(sampled, expected)

    def test_subset_sampling(self):
        sampler = CompleteTopology().bind(20)
        agents = np.array([3, 7, 11])
        sampled = sampler.sample(agents, 4, np.random.default_rng(0))
        assert sampled.shape == (3, 4)
        assert sampled.min() >= 0 and sampled.max() < 20

    def test_degrees_and_counts(self):
        sampler = CompleteTopology().bind(10)
        assert np.array_equal(sampler.degrees(), np.full(10, 10))
        values = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        counts = sampler.neighbor_symbol_counts(values, 1)
        assert np.array_equal(counts, np.full(10, 3))


class TestGraphTopology:
    def test_cycle_neighbors_only(self):
        sampler = LatticeTopology("cycle").bind(12)
        sampled = sampler.sample(None, 50, np.random.default_rng(1))
        for agent in range(12):
            neighbors = {(agent - 1) % 12, (agent + 1) % 12}
            assert set(sampled[agent]) <= neighbors

    def test_neighbor_symbol_counts_matches_bruteforce(self):
        graph = build_graph("regular", 30, degree=4, rng=7)
        sampler = ExplicitGraphTopology(graph).bind(30)
        values = np.random.default_rng(2).integers(0, 2, size=30)
        counts = sampler.neighbor_symbol_counts(values, 1)
        for agent in range(30):
            expected = sum(values[v] == 1 for v in graph.neighbors(agent))
            assert counts[agent] == expected

    def test_isolated_agent_gets_self_loop(self):
        # degree-0 nodes would make sampling impossible; the CSR build
        # attaches a self-loop so every agent has at least one neighbor.
        sampler = ExplicitGraphTopology([[1], [0], []]).bind(3)
        assert sampler.degrees()[2] == 1
        sampled = sampler.sample(np.array([2]), 8, np.random.default_rng(0))
        assert np.all(sampled == 2)

    def test_rejects_out_of_range_neighbors(self):
        with pytest.raises(ConfigurationError):
            ExplicitGraphTopology([[5], [0]]).bind(2)

    def test_bind_twice_rejected(self):
        sampler = LatticeTopology("cycle").bind(8)
        with pytest.raises(ConfigurationError):
            sampler.bind(8)
        # ensure_bound tolerates the same n, rejects a different one.
        assert sampler.ensure_bound(8) is sampler
        with pytest.raises(ConfigurationError):
            sampler.ensure_bound(9)

    def test_sample_before_bind_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeTopology("grid").sample(None, 2, np.random.default_rng(0))


class TestRandomRegularTopology:
    def test_degrees_uniform(self):
        sampler = RandomRegularTopology(degree=6).bind(40, 0)
        assert np.all(sampler.degrees() == 6)

    def test_degree_clamped_to_population(self):
        # degree > n - 1 is infeasible; the sampler clamps (and fixes
        # parity) instead of failing on small populations.
        sampler = RandomRegularTopology(degree=10).bind(6, 0)
        assert np.all(sampler.degrees() <= 5)

    def test_binding_seed_determinism(self):
        a = RandomRegularTopology(degree=4).bind(30, 11)
        b = RandomRegularTopology(degree=4).bind(30, 11)
        c = RandomRegularTopology(degree=4).bind(30, 12)
        assert np.array_equal(a._indices, b._indices)
        assert not np.array_equal(a._indices, c._indices)


class TestGeometricTopology:
    def test_connectivity_radius_default(self):
        sampler = GeometricTopology().bind(100, 3)
        assert sampler.degrees().min() >= 1
        assert sampler.points.shape == (100, 2)

    def test_explicit_radius(self):
        wide = GeometricTopology(radius=1.4).bind(20, 0)
        # radius covers the unit square: everyone sees everyone else.
        assert np.all(wide.degrees() == 19)


class TestChurnTopology:
    def test_dynamic_flag_and_evolution(self):
        sampler = ChurnTopology(degree=4, churn_rate=0.5).bind(24, 0)
        assert sampler.dynamic
        before = sampler.degrees().copy()
        generator = np.random.default_rng(1)
        sampler.begin_round(0, generator)
        sampler.begin_round(1, generator)
        after = sampler.degrees()
        assert before.shape == after.shape
        assert after.min() >= 1
        # With churn_rate=0.5 over two rounds the edge set must move.
        assert not np.array_equal(before, after)

    def test_samples_stay_valid_under_churn(self):
        sampler = ChurnTopology(degree=4, churn_rate=0.3).bind(16, 0)
        generator = np.random.default_rng(2)
        for round_index in range(5):
            sampler.begin_round(round_index, generator)
            sampled = sampler.sample(None, 6, generator)
            assert sampled.shape == (16, 6)
            assert sampled.min() >= 0 and sampled.max() < 16


def per_row_sample(sampler, agents, h, generator):
    """The per-row-bound draw ``GraphTopology.sample`` made for every
    graph before constant-degree graphs took a scalar bound."""
    rows = np.arange(sampler.n) if agents is None else np.asarray(agents)
    degrees = sampler.degrees()[rows]
    offsets = generator.integers(0, degrees[:, None], size=(rows.size, h))
    return sampler._indices[sampler._indptr[rows][:, None] + offsets]


class TestScalarBoundSampling:
    """Constant-degree graphs draw offsets with a scalar bound.  NumPy's
    fill and broadcast paths make the same draw per element, so the
    stream must match the per-row draw exactly; this is a fact about
    NumPy's implementation, so it is checked on every supported version.
    """

    @pytest.mark.parametrize("make", [
        lambda: RandomRegularTopology(degree=8).bind(256, 4),
        lambda: RandomRegularTopology(degree=5).bind(40, 1),
        lambda: LatticeTopology("cycle").bind(33),
    ], ids=["regular-8", "regular-5", "cycle"])
    @pytest.mark.parametrize(
        "agents", [None, [0, 3, 3, 7, 31, 2]], ids=["all", "subset"]
    )
    def test_constant_degree_stream_matches_per_row(self, make, agents):
        sampler = make()
        assert sampler._degree == int(sampler.degrees()[0])
        fast, reference = np.random.default_rng(9), np.random.default_rng(9)
        for h in (8, 3, 1):
            assert np.array_equal(
                sampler.sample(agents, h, fast),
                per_row_sample(sampler, agents, h, reference),
            )
            # The generators must also be left in the same state.
            assert np.array_equal(fast.random(5), reference.random(5))

    @pytest.mark.parametrize("make", [
        lambda: GeometricTopology().bind(200, 3),  # degrees 1..13
        lambda: LatticeTopology("grid").bind(30),  # degrees 2..4
    ], ids=["geometric", "grid"])
    def test_unequal_degrees_take_per_row_path(self, make):
        sampler = make()
        assert sampler.degrees().min() < sampler.degrees().max()
        assert sampler._degree is None
        fast, reference = np.random.default_rng(2), np.random.default_rng(2)
        assert np.array_equal(
            sampler.sample(None, 6, fast), per_row_sample(sampler, None, 6, reference)
        )

    def test_churn_recomputes_the_flag(self):
        sampler = ChurnTopology(degree=4, churn_rate=0.3).bind(20, 0)
        generator = np.random.default_rng(1)
        sampler.sample(None, 2, generator)
        assert sampler._degree == 4
        sampler.begin_round(0, generator)
        sampler.sample(None, 2, generator)
        assert len(set(sampler.degrees().tolist())) > 1
        assert sampler._degree is None
        state = generator.bit_generator.state
        reference = np.random.default_rng(0)
        reference.bit_generator.state = state
        assert np.array_equal(
            sampler.sample(None, 5, generator),
            per_row_sample(sampler, None, 5, reference),
        )


class TestFactory:
    def test_string_dispatch_covers_all_kinds(self):
        for kind in TOPOLOGY_KINDS:
            sampler = create_topology(kind)
            assert isinstance(sampler, TopologySampler)
            assert sampler.kind == kind

    def test_none_is_complete(self):
        assert create_topology(None).is_uniform

    def test_sampler_passthrough(self):
        sampler = RandomRegularTopology(degree=4)
        assert create_topology(sampler) is sampler

    def test_networkx_graph_accepted(self):
        graph = build_graph("cycle", 10)
        sampler = create_topology(graph)
        assert isinstance(sampler, GraphTopology)
        # edge_count is directed adjacency entries: a 10-cycle has 20.
        assert sampler.ensure_bound(10).edge_count() == 20

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            create_topology("smallworld")

    def test_resolve_drops_uniform(self):
        rng = np.random.default_rng(0)
        assert resolve_topology(None, 16, rng) is None
        assert resolve_topology("complete", 16, rng) is None
        sampler = resolve_topology("cycle", 16, rng)
        assert sampler is not None and sampler.kind == "cycle"
