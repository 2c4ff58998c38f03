"""Tests for the mean-field recursions against theory and simulation."""

import json
import pathlib

import numpy as np
import pytest

from repro.analysis import (
    MeanFieldEngine,
    boosting_map,
    iterate_map,
    majority_map,
    voter_fixed_point,
    voter_map,
)
from repro.baselines import NoisyVoterModel
from repro.model.config import PopulationConfig
from repro.types import SourceCounts


def config(n=1000, s0=0, s1=1, h=16):
    return PopulationConfig(n=n, sources=SourceCounts(s0, s1), h=h)


class TestVoterMap:
    def test_fixed_point_is_fixed(self):
        cfg = config()
        step = voter_map(cfg, 0.2)
        fp = voter_fixed_point(cfg, 0.2)
        assert step(fp) == pytest.approx(fp)

    def test_fixed_point_near_half_for_constant_noise(self):
        """The stall point explaining E9's voter failure: with constant
        noise and o(n) sources, the voter equilibrates near 1/2."""
        fp = voter_fixed_point(config(n=10_000, s1=1), 0.2)
        assert 0.5 < fp < 0.52

    def test_fixed_point_reaches_one_without_noise_or_opposition(self):
        # delta = 0: x = z1 + (1-z) x has fixed point 1 when s0 = 0.
        fp = voter_fixed_point(config(n=100, s1=5), 0.0)
        assert fp == pytest.approx(1.0)

    def test_trajectory_converges_to_fixed_point(self):
        cfg = config()
        trajectory = iterate_map(voter_map(cfg, 0.2), 0.9, 2000, tolerance=1e-12)
        assert trajectory.final == pytest.approx(
            voter_fixed_point(cfg, 0.2), abs=1e-6
        )

    def test_matches_simulation(self):
        """Mean-field trajectory tracks the stochastic voter at large n."""
        cfg = PopulationConfig(n=20_000, sources=SourceCounts(0, 10), h=1)
        delta = 0.1
        rounds = 50
        sim = NoisyVoterModel(cfg, delta).run(
            rounds, rng=0, stop_on_consensus=False, record_trace=True
        )
        mean_field = iterate_map(voter_map(cfg, delta), 0.5, rounds)
        # Compare the last 10 rounds pointwise (O(1/sqrt(n)) fluctuation).
        for simulated, predicted in zip(sim.trace[-10:], mean_field.fractions[-10:]):
            assert simulated == pytest.approx(predicted, abs=0.02)


class TestMajorityMap:
    def test_amplifies_majority(self):
        step = majority_map(config(h=64), 0.1)
        assert step(0.7) > 0.9

    def test_symmetric_start_stays_near_half(self):
        step = majority_map(config(n=100_000, h=32), 0.1)
        assert step(0.5) == pytest.approx(0.5, abs=0.01)

    def test_zealots_pin_mass(self):
        cfg = config(n=100, s0=0, s1=25, h=8)
        step = majority_map(cfg, 0.1)
        # Even from x = 0 the zealots contribute their mass.
        assert step(0.0) >= 0.25


class TestBoostingMap:
    def test_lemma_33_growth(self):
        """A 1.2x-style multiplicative drift above 1/2 (Lemma 33's shape)."""
        step = boosting_map(n=10_000, delta=0.2, window=278)
        x = 0.52
        nxt = step(x)
        assert (nxt - 0.5) > 1.2 * (x - 0.5)

    def test_saturates_at_one(self):
        step = boosting_map(n=10_000, delta=0.2, window=278)
        trajectory = iterate_map(step, 0.53, 30)
        assert trajectory.final == pytest.approx(1.0, abs=1e-6)

    def test_below_half_drifts_to_zero(self):
        step = boosting_map(n=10_000, delta=0.2, window=278)
        trajectory = iterate_map(step, 0.47, 30)
        assert trajectory.final == pytest.approx(0.0, abs=1e-6)

    def test_matches_sf_boost_step_statistics(self):
        """Mean-field boosting step equals the simulated expectation."""
        from repro.protocols import FastSourceFilter

        cfg = PopulationConfig(n=50_000, sources=SourceCounts(0, 1), h=1)
        engine = FastSourceFilter(cfg, 0.2)
        opinions = np.zeros(cfg.n, dtype=np.int8)
        opinions[: int(0.55 * cfg.n)] = 1
        out = engine.boost_step(opinions, window=278, rng=0)
        predicted = boosting_map(cfg.n, 0.2, 278)(0.55)
        assert out.mean() == pytest.approx(predicted, abs=0.01)


class TestIterateMap:
    def test_validation(self):
        step = lambda x: x  # noqa: E731
        with pytest.raises(ValueError):
            iterate_map(step, 1.5, 10)
        with pytest.raises(ValueError):
            iterate_map(step, 0.5, -1)

    def test_rounds_to_reach(self):
        trajectory = iterate_map(lambda x: min(x + 0.1, 1.0), 0.0, 20)
        assert trajectory.rounds_to_reach(0.35) == 4

    def test_rounds_to_reach_unreachable_raises(self):
        trajectory = iterate_map(lambda x: min(x + 0.1, 1.0), 0.0, 20)
        with pytest.raises(ValueError, match="never reaches threshold"):
            trajectory.rounds_to_reach(2.0)

    def test_tolerance_stops_early(self):
        trajectory = iterate_map(lambda x: x, 0.5, 1000, tolerance=1e-9)
        assert len(trajectory.fractions) == 2


#: ``MeanFieldEngine`` runs recorded before the engine was rebuilt on the
#: count adapter's stage laws: n in {10^3, 10^6, 10^8}, either opinion
#: correct, delta in {0.1, 0.2, 0.3}, one short schedule and one tie.
PINS = json.loads(
    (pathlib.Path(__file__).parent / "mean_field_pins.json").read_text()
)


class TestMeanFieldEnginePins:
    @pytest.mark.parametrize(
        "pin",
        PINS,
        ids=lambda p: f"n{p['n']}-s{p['s0']},{p['s1']}-h{p['h']}-d{p['delta']}",
    )
    def test_matches_pinned_run(self, pin):
        config = PopulationConfig(
            n=pin["n"],
            sources=SourceCounts(pin["s0"], pin["s1"]),
            h=pin["h"],
            allow_zero_bias=pin["s0"] == pin["s1"],
        )
        result = MeanFieldEngine(config, pin["delta"], constant=pin["constant"]).run()
        assert abs(result.weak_fraction_correct - pin["weak"]) <= 1e-12
        assert abs(result.final_fraction_correct - pin["final"]) <= 1e-12
        assert result.converged is pin["converged"]
        assert result.total_rounds == pin["rounds"]
        assert len(result.trace) == len(pin["trace"])
        assert np.max(np.abs(np.subtract(result.trace, pin["trace"]))) <= 1e-12
