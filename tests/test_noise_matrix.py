"""Tests for repro.noise.matrix.NoiseMatrix."""

import numpy as np
import pytest

from repro.exceptions import NoiseMatrixError
from repro.noise import NoiseMatrix


class TestConstructors:
    def test_uniform_shape_and_values(self):
        noise = NoiseMatrix.uniform(0.1, 3)
        assert noise.size == 3
        assert noise.matrix[0, 0] == pytest.approx(0.8)
        assert noise.matrix[0, 1] == pytest.approx(0.1)

    def test_uniform_delta_bounds(self):
        with pytest.raises(NoiseMatrixError):
            NoiseMatrix.uniform(0.6, 2)
        with pytest.raises(NoiseMatrixError):
            NoiseMatrix.uniform(-0.1, 2)

    def test_uniform_max_delta_is_flat(self):
        noise = NoiseMatrix.uniform(0.5, 2)
        assert np.allclose(noise.matrix, 0.5)

    def test_binary_symmetric(self):
        noise = NoiseMatrix.binary_symmetric(0.25)
        assert noise.size == 2
        assert noise.matrix[0, 1] == pytest.approx(0.25)

    def test_identity(self):
        noise = NoiseMatrix.identity(4)
        assert np.array_equal(noise.matrix, np.eye(4))
        assert noise.is_uniform(0.0)

    def test_alphabet_too_small(self):
        with pytest.raises(NoiseMatrixError):
            NoiseMatrix.uniform(0.1, 1)

    def test_random_upper_bounded_is_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            noise = NoiseMatrix.random_upper_bounded(0.2, 4, rng)
            assert noise.is_upper_bounded(0.2)

    def test_random_upper_bounded_rejects_bad_delta(self):
        with pytest.raises(NoiseMatrixError):
            NoiseMatrix.random_upper_bounded(0.3, 4)  # 0.3 >= 1/4

    def test_rejects_non_stochastic(self):
        with pytest.raises(NoiseMatrixError):
            NoiseMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_matrix_is_read_only(self):
        noise = NoiseMatrix.uniform(0.1, 2)
        with pytest.raises(ValueError):
            noise.matrix[0, 0] = 0.5


class TestClassification:
    def test_uniform_delta_property(self):
        assert NoiseMatrix.uniform(0.2, 2).uniform_delta == pytest.approx(0.2)

    def test_uniform_delta_raises_for_non_uniform(self):
        matrix = np.array([[0.9, 0.1], [0.05, 0.95]])
        with pytest.raises(NoiseMatrixError):
            NoiseMatrix(matrix).uniform_delta

    def test_upper_delta_of_uniform(self):
        assert NoiseMatrix.uniform(0.15, 4).upper_delta == pytest.approx(0.15)

    def test_upper_delta_none_for_flat(self):
        flat = NoiseMatrix(np.full((2, 2), 0.5))
        assert flat.upper_delta is None

    def test_is_lower_bounded(self):
        assert NoiseMatrix.uniform(0.2, 2).is_lower_bounded(0.2)
        assert not NoiseMatrix.identity(2).is_lower_bounded(0.1)


class TestCorrupt:
    def test_shape_preserved(self, rng):
        noise = NoiseMatrix.uniform(0.2, 2)
        msgs = rng.integers(0, 2, size=(10, 7))
        out = noise.corrupt(msgs, rng)
        assert out.shape == (10, 7)

    def test_empty_input(self, rng):
        noise = NoiseMatrix.uniform(0.2, 2)
        out = noise.corrupt(np.empty(0, dtype=int), rng)
        assert out.size == 0

    def test_symbols_stay_in_alphabet(self, rng):
        noise = NoiseMatrix.uniform(0.2, 4)
        out = noise.corrupt(rng.integers(0, 4, size=1000), rng)
        assert out.min() >= 0 and out.max() < 4

    def test_out_of_alphabet_rejected(self, rng):
        noise = NoiseMatrix.uniform(0.2, 2)
        with pytest.raises(NoiseMatrixError):
            noise.corrupt(np.array([0, 1, 2]), rng)

    def test_identity_channel_is_noiseless(self, rng):
        noise = NoiseMatrix.identity(3)
        msgs = rng.integers(0, 3, size=500)
        assert np.array_equal(noise.corrupt(msgs, rng), msgs)

    def test_flip_rate_matches_delta(self, rng):
        delta = 0.2
        noise = NoiseMatrix.uniform(delta, 2)
        msgs = np.zeros(200_000, dtype=int)
        out = noise.corrupt(msgs, rng)
        assert np.mean(out) == pytest.approx(delta, abs=0.005)

    def test_four_letter_marginals(self, rng):
        delta = 0.1
        noise = NoiseMatrix.uniform(delta, 4)
        msgs = np.full(200_000, 2, dtype=int)
        out = noise.corrupt(msgs, rng)
        counts = np.bincount(out, minlength=4) / msgs.size
        assert counts[2] == pytest.approx(0.7, abs=0.01)
        for sigma in (0, 1, 3):
            assert counts[sigma] == pytest.approx(delta, abs=0.01)

    def test_deterministic_given_seed(self):
        noise = NoiseMatrix.uniform(0.3, 2)
        msgs = np.arange(100) % 2
        a = noise.corrupt(msgs, np.random.default_rng(5))
        b = noise.corrupt(msgs, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestObservationProbabilities:
    def test_uniform_display(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        out = noise.observation_probabilities(np.array([0.5, 0.5]))
        assert np.allclose(out, [0.5, 0.5])

    def test_all_display_one(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        out = noise.observation_probabilities(np.array([0.0, 1.0]))
        assert out[1] == pytest.approx(0.8)
        assert out[0] == pytest.approx(0.2)

    def test_rejects_bad_shapes(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        with pytest.raises(NoiseMatrixError):
            noise.observation_probabilities(np.array([0.5, 0.25, 0.25]))

    def test_rejects_non_probability(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        with pytest.raises(NoiseMatrixError):
            noise.observation_probabilities(np.array([0.7, 0.7]))

    def test_output_sums_to_one(self):
        noise = NoiseMatrix.uniform(0.1, 4)
        out = noise.observation_probabilities(np.array([0.1, 0.2, 0.3, 0.4]))
        assert out.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "display",
        [[np.nan, 1.0], [np.inf, 0.0], [0.5, 0.5 - 2e-5], [0.5, 0.5 + 2e-5]],
    )
    def test_rejects_what_isclose_rejects(self, display):
        # The sum check keeps np.isclose's tolerance, 1e-9 + 1e-5.
        noise = NoiseMatrix.uniform(0.2, 2)
        assert not np.isclose(np.sum(display), 1.0, atol=1e-9)
        with pytest.raises(NoiseMatrixError):
            noise.observation_probabilities(np.array(display))

    def test_accepts_what_isclose_accepts(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        display = np.array([0.5, 0.5 + 9e-6])
        assert np.isclose(display.sum(), 1.0, atol=1e-9)
        out = noise.observation_probabilities(display)
        assert out.sum() == pytest.approx(1.0)


class TestComposeAndEquality:
    def test_compose_is_matrix_product(self):
        a = NoiseMatrix.uniform(0.1, 2)
        b = NoiseMatrix.uniform(0.2, 2)
        composed = a.compose(b)
        assert np.allclose(composed.matrix, a.matrix @ b.matrix)

    def test_compose_size_mismatch(self):
        with pytest.raises(NoiseMatrixError):
            NoiseMatrix.uniform(0.1, 2).compose(NoiseMatrix.uniform(0.1, 3))

    def test_compose_with_identity(self):
        a = NoiseMatrix.uniform(0.2, 3)
        assert a.compose(NoiseMatrix.identity(3)) == a

    def test_equality_and_hash(self):
        a = NoiseMatrix.uniform(0.2, 2)
        b = NoiseMatrix.uniform(0.2, 2)
        assert a == b and hash(a) == hash(b)

    def test_inequality(self):
        assert NoiseMatrix.uniform(0.2, 2) != NoiseMatrix.uniform(0.3, 2)
        assert NoiseMatrix.uniform(0.2, 2) != "not a matrix"


class TestCorruptValidateFlag:
    """``validate=False`` must change only the cost, never the stream."""

    @pytest.mark.parametrize("size", [2, 4])
    def test_same_stream_same_output(self, size):
        noise = NoiseMatrix.uniform(0.2 / (size / 2), size)
        messages = np.random.default_rng(3).integers(0, size, size=2000)
        checked = noise.corrupt(messages, np.random.default_rng(5))
        unchecked = noise.corrupt(messages, np.random.default_rng(5), validate=False)
        assert np.array_equal(checked, unchecked)

    def test_out_of_alphabet_rejected_only_when_validating(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        bad = np.array([0, 1, 2])
        with pytest.raises(NoiseMatrixError):
            noise.corrupt(bad, np.random.default_rng(0))
        # validate=False trusts the caller's contract: no range scan, so
        # no error (the binary path treats any nonzero symbol as 1).
        out = noise.corrupt(bad, np.random.default_rng(0), validate=False)
        assert out.shape == bad.shape


class TestCorruptWithUniforms:
    @pytest.mark.parametrize("size", [2, 4])
    def test_matches_corrupt_stream(self, size):
        """corrupt() == one random() block + corrupt_with_uniforms()."""
        noise = NoiseMatrix.uniform(0.2 / (size / 2), size)
        messages = np.random.default_rng(3).integers(0, size, size=1500)
        direct = noise.corrupt(messages, np.random.default_rng(5))
        uniforms = np.random.default_rng(5).random(messages.size)
        split = noise.corrupt_with_uniforms(messages, uniforms)
        assert np.array_equal(direct, split)

    def test_output_dtype(self):
        noise = NoiseMatrix.uniform(0.2, 2)
        messages = np.zeros((4, 5), dtype=np.int64)
        out = noise.corrupt_with_uniforms(
            messages, np.random.default_rng(0).random(20), dtype=np.int8
        )
        assert out.dtype == np.int8
        assert out.shape == (4, 5)

    def test_marginals_match_matrix(self):
        noise = NoiseMatrix.uniform(0.1, 4)
        rng = np.random.default_rng(11)
        messages = np.full(200_000, 2)
        out = noise.corrupt_with_uniforms(messages, rng.random(messages.size))
        freq = np.bincount(out, minlength=4) / messages.size
        assert np.allclose(freq, noise.matrix[2], atol=0.01)
