"""Tests for the two-party lower-bound gadget (footnote 3 / [19])."""

import math
from fractions import Fraction

import pytest

from repro.theory.two_party import (
    messages_needed,
    simulate_two_party,
    two_party_error,
    whp_round_lower_bound,
)


class TestTwoPartyError:
    def test_single_message(self):
        assert two_party_error(1, 0.2) == pytest.approx(0.2)

    def test_noiseless(self):
        assert two_party_error(7, 0.0) == pytest.approx(0.0)

    def test_pure_noise_is_coin(self):
        assert two_party_error(101, 0.5) == pytest.approx(0.5)

    def test_decreases_with_m_odd(self):
        errors = [two_party_error(m, 0.25) for m in (1, 3, 9, 27, 81)]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_exponential_decay_rate(self):
        # error(m) ~ exp(-m * D) for some D > 0: tripling m should cube
        # the error up to polynomial factors.
        e1 = two_party_error(51, 0.3)
        e3 = two_party_error(153, 0.3)
        assert e3 < e1**2

    def test_validation(self):
        with pytest.raises(ValueError):
            two_party_error(0, 0.2)
        with pytest.raises(ValueError):
            two_party_error(5, 0.7)

    @pytest.mark.parametrize(
        "m,delta", [(101, 0.1), (201, 0.1), (51, 0.3), (40, 0.3), (7, 0.45)]
    )
    def test_matches_exact_rational_sum(self, m, delta):
        # The error keeps its relative precision deep in the tail (at
        # m = 101, delta = 0.1 it is 1.15e-24).
        wrong = Fraction(delta)
        right = 1 - wrong
        exact = sum(
            (Fraction(1, 2) if 2 * k == m else 1)
            * math.comb(m, k) * wrong**k * right ** (m - k)
            for k in range(m + 1)
            if 2 * k >= m
        )
        assert two_party_error(m, delta) == pytest.approx(
            float(exact), rel=1e-9, abs=0.0
        )

    def test_matches_simulation(self, rng):
        m, delta = 15, 0.3
        estimate = simulate_two_party(m, delta, trials=100_000, rng=rng)
        assert estimate == pytest.approx(two_party_error(m, delta), abs=0.005)


class TestMessagesNeeded:
    def test_achieves_target(self):
        for delta in (0.1, 0.3, 0.45):
            for target in (0.1, 0.01, 1e-4):
                m = messages_needed(target, delta)
                assert two_party_error(m, delta) <= target

    def test_near_minimal(self):
        # Two fewer (odd-step) messages miss the target.
        for delta in (0.1, 0.3, 0.45):
            for target in (0.1, 1e-3, 1e-6, 1e-12, 1e-16):
                m = messages_needed(target, delta)
                assert m % 2 == 1
                assert two_party_error(m, delta) <= target
                if m > 1:
                    assert two_party_error(m - 2, delta) > target

    def test_minimal_odd_m_at_one_in_1e6(self):
        # Exact rational arithmetic: 131 is the minimal odd m at delta = 0.3.
        assert messages_needed(1e-6, 0.3) == 131

    def test_deep_targets_resolve_the_noise(self):
        # 1/n^2 at n = 1e8 needs far more copies at delta = 0.3 than at 0.1.
        assert messages_needed(1e-16, 0.1) == 67
        assert messages_needed(1e-16, 0.3) == 389

    def test_noiseless_needs_one(self):
        assert messages_needed(0.01, 0.0) == 1

    def test_grows_with_noise(self):
        assert messages_needed(0.01, 0.4) > messages_needed(0.01, 0.1)

    def test_logarithmic_in_inverse_error(self):
        """m ~ log(1/x): the origin of the w.h.p. log factor."""
        m4 = messages_needed(1e-4, 0.3)
        m8 = messages_needed(1e-8, 0.3)
        assert m8 == pytest.approx(2 * m4, rel=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            messages_needed(0.6, 0.2)
        with pytest.raises(ValueError):
            messages_needed(0.01, 0.5)


class TestWhpRoundLowerBound:
    def test_logarithmic_in_n(self):
        b1 = whp_round_lower_bound(2**10, 1, 0.3)
        b2 = whp_round_lower_bound(2**20, 1, 0.3)
        assert b2 == pytest.approx(2 * b1, rel=0.25)

    def test_linear_speedup_in_h(self):
        base = whp_round_lower_bound(1024, 1, 0.3)
        assert whp_round_lower_bound(1024, 16, 0.3) == pytest.approx(base / 16)

    def test_sf_horizon_respects_it(self):
        """SF's actual round horizon dominates the two-party bound."""
        from repro.model.config import PopulationConfig
        from repro.protocols import FastSourceFilter
        from repro.types import SourceCounts

        for n, h in ((1024, 1), (1024, 1024), (4096, 64)):
            config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=h)
            engine = FastSourceFilter(config, 0.3)
            assert engine.schedule.total_rounds >= whp_round_lower_bound(
                n, h, 0.3
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            whp_round_lower_bound(1, 1, 0.2)
