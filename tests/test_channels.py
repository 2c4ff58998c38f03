"""Tests for repro.noise.channels helpers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NoiseMatrixError
from repro.noise import (
    NoiseMatrix,
    apply_noise,
    observation_distribution,
    uniform_level,
    uniform_observation,
)


class TestApplyNoise:
    def test_with_matrix(self, rng):
        noise = NoiseMatrix.uniform(0.2, 2)
        out = apply_noise(np.zeros(1000, dtype=int), noise, rng)
        assert 0.1 < np.mean(out) < 0.3

    def test_with_float_delta(self, rng):
        out = apply_noise(np.zeros(1000, dtype=int), 0.2, rng)
        assert 0.1 < np.mean(out) < 0.3

    def test_with_float_and_size(self, rng):
        out = apply_noise(np.zeros(2000, dtype=int), 0.1, rng, size=4)
        counts = np.bincount(out, minlength=4)
        assert counts[0] > counts[1]
        assert counts.sum() == 2000

    def test_zero_noise(self, rng):
        msgs = rng.integers(0, 2, size=100)
        assert np.array_equal(apply_noise(msgs, 0.0, rng), msgs)


class TestObservationDistribution:
    def test_matches_manual_computation(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        counts = np.array([75, 25])  # 25% display 1
        q = observation_distribution(counts, noise)
        assert q[1] == pytest.approx(0.25 * 0.8 + 0.75 * 0.2)
        assert q.sum() == pytest.approx(1.0)

    def test_rejects_zero_population(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        with pytest.raises(ValueError):
            observation_distribution(np.array([0, 0]), noise)

    def test_four_letter(self):
        noise = NoiseMatrix.uniform(0.1, 4)
        counts = np.array([10, 0, 0, 0])
        q = observation_distribution(counts, noise)
        assert q[0] == pytest.approx(0.7)
        assert q[1] == pytest.approx(0.1)

    def test_agrees_with_empirical_sampling(self, rng):
        """The identity that makes vectorized engines exact."""
        noise = NoiseMatrix.uniform(0.15, 2)
        display = np.array([0] * 60 + [1] * 40)
        q = observation_distribution(np.array([60, 40]), noise)
        samples = display[rng.integers(0, 100, size=200_000)]
        observed = noise.corrupt(samples, rng)
        assert np.mean(observed) == pytest.approx(q[1], abs=0.005)


class TestUniformObservation:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_equals_the_uniform_matrix_law(self, size):
        rng = np.random.default_rng(size)
        n = 10**8
        for delta in np.linspace(0.0, 1.0 / size, 11):
            matrix = NoiseMatrix.uniform(float(delta), size)
            for _ in range(50):
                fractions = rng.multinomial(n, rng.dirichlet(np.ones(size))) / n
                np.testing.assert_allclose(
                    uniform_observation(fractions, float(delta), size),
                    matrix.observation_probabilities(fractions),
                    rtol=0.0,
                    atol=1e-15,
                )

    def test_scalar_and_elementwise(self):
        assert uniform_observation(0.0, 0.2, 2) == pytest.approx(0.2)
        assert uniform_observation(1.0, 0.2, 2) == pytest.approx(0.8)
        assert uniform_observation(0.25, 0.0, 2) == 0.25
        assert uniform_observation(0.1, 0.5, 2) == 0.5
        out = uniform_observation(np.array([0.0, 0.5, 1.0]), 0.1, 4)
        assert out.tolist() == [0.1 + x * 0.6 for x in (0.0, 0.5, 1.0)]


class TestUniformLevel:
    def test_float_and_matrix(self):
        assert uniform_level(0.2, 2) == 0.2
        assert uniform_level(NoiseMatrix.uniform(0.1, 4), 4) == 0.1

    def test_bounds(self):
        assert uniform_level(0.5, 2) == 0.5
        assert uniform_level(0.25, 4) == 0.25
        with pytest.raises(ConfigurationError, match=r"\[0, 0.25\]"):
            uniform_level(0.3, 4)
        with pytest.raises(ConfigurationError):
            uniform_level(-0.1, 2)

    def test_wrong_alphabet(self):
        with pytest.raises(ConfigurationError, match="alphabet"):
            uniform_level(NoiseMatrix.uniform(0.1, 4), 2)

    def test_non_uniform_matrix(self):
        skewed = NoiseMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
        with pytest.raises(NoiseMatrixError):
            uniform_level(skewed, 2)
