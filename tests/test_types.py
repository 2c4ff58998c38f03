"""Tests for repro.types: SourceCounts, Role, generator coercion."""

import numpy as np
import pytest

from repro.types import (
    Role,
    SourceCounts,
    coerce_rng,
    coerce_seed,
    seed_of,
)


class TestSourceCounts:
    def test_total(self):
        assert SourceCounts(s0=2, s1=5).total == 7

    def test_bias_is_absolute_difference(self):
        assert SourceCounts(s0=2, s1=5).bias == 3
        assert SourceCounts(s0=5, s1=2).bias == 3

    def test_correct_opinion_majority_one(self):
        assert SourceCounts(s0=1, s1=3).correct_opinion == 1

    def test_correct_opinion_majority_zero(self):
        assert SourceCounts(s0=3, s1=1).correct_opinion == 0

    def test_zero_bias_has_no_correct_opinion(self):
        with pytest.raises(ValueError):
            SourceCounts(s0=2, s1=2).correct_opinion

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SourceCounts(s0=-1, s1=2)

    def test_frozen(self):
        counts = SourceCounts(s0=0, s1=1)
        with pytest.raises(Exception):
            counts.s0 = 5

    def test_single_source(self):
        counts = SourceCounts(s0=0, s1=1)
        assert counts.bias == 1
        assert counts.total == 1


class TestRole:
    def test_values_are_distinct(self):
        assert len({Role.NON_SOURCE, Role.SOURCE_0, Role.SOURCE_1}) == 3

    def test_non_source_is_zero(self):
        assert int(Role.NON_SOURCE) == 0


class TestCoerceRng:
    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert coerce_rng(gen) is gen

    def test_int_seed_is_deterministic(self):
        a = coerce_rng(7).integers(0, 1000, size=5)
        b = coerce_rng(7).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(3)
        gen = coerce_rng(seq)
        assert isinstance(gen, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(coerce_rng(None), np.random.Generator)

    def test_different_seeds_differ(self):
        a = coerce_rng(1).integers(0, 2**32)
        b = coerce_rng(2).integers(0, 2**32)
        assert a != b


class TestSeedOf:
    def test_int_is_its_own_seed(self):
        assert seed_of(42) == 42

    def test_generator_and_none_have_no_seed(self):
        assert seed_of(np.random.default_rng(1)) is None
        assert seed_of(None) is None
        assert seed_of(np.random.SeedSequence(2)) is None


class TestCoerceSeed:
    def test_seed_passes_through(self):
        assert coerce_seed(17) == 17
        assert coerce_seed(None) is None

    def test_int_rng_is_the_seed(self):
        assert coerce_seed(None, rng=23) == 23

    def test_both_spellings_rejected(self):
        with pytest.raises(ValueError):
            coerce_seed(5, rng=7)

    def test_seed_sequence_is_deterministic(self):
        a = coerce_seed(None, rng=np.random.SeedSequence(3))
        b = coerce_seed(None, rng=np.random.SeedSequence(3))
        assert a == b and isinstance(a, int)

    def test_generator_draws_a_seed(self):
        value = coerce_seed(None, rng=np.random.default_rng(0))
        assert isinstance(value, int) and 0 <= value < 2**63
