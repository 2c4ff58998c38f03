"""Functional helpers for applying noise to message arrays.

These are thin conveniences over :class:`~repro.noise.matrix.NoiseMatrix`
used where a one-off call reads better than constructing an object, plus
the exchangeability identity the vectorized engines rely on and its
closed form under a delta-uniform channel.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..exceptions import ConfigurationError
from ..types import RngLike
from .matrix import NoiseMatrix

__all__ = [
    "apply_noise",
    "observation_distribution",
    "uniform_level",
    "uniform_observation",
]


def apply_noise(
    messages: np.ndarray,
    noise: Union[NoiseMatrix, float],
    rng: RngLike = None,
    size: int = 2,
) -> np.ndarray:
    """Corrupt ``messages`` through ``noise``.

    ``noise`` may be a :class:`NoiseMatrix` or a float, in which case the
    ``delta``-uniform matrix over an alphabet of ``size`` letters is used.
    """
    if not isinstance(noise, NoiseMatrix):
        noise = NoiseMatrix.uniform(float(noise), size)
    return noise.corrupt(messages, rng)


def observation_distribution(
    display_counts: np.ndarray, noise: NoiseMatrix
) -> np.ndarray:
    """Distribution of a single noisy PULL observation.

    Given ``display_counts[sigma]`` = number of agents currently displaying
    ``sigma`` (summing to ``n``), an agent sampling one agent uniformly at
    random with replacement and receiving its message through ``noise``
    observes symbol ``sigma'`` with probability ``(counts/n) @ N``.

    This identity is what makes the vectorized engines *exact*: given the
    global display counts, the ``h`` observations of each agent are i.i.d.
    draws from this distribution, independent across agents.
    """
    counts = np.asarray(display_counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("display counts must sum to a positive population size")
    return noise.observation_probabilities(counts / total)


def uniform_observation(fraction, delta: float, size: int):
    """P(one noisy sample shows ``sigma``) when a ``fraction`` of the
    sampled pool displays ``sigma``, under the delta-uniform channel over
    ``size`` letters: ``delta + fraction * (1 - size*delta)``, the closed
    form of :func:`observation_distribution`.  Scalar or elementwise."""
    return delta + fraction * (1.0 - size * delta)


def uniform_level(noise: Union[NoiseMatrix, float], size: int) -> float:
    """The level ``delta`` in ``[0, 1/size]`` of ``noise``, a float or a
    uniform :class:`NoiseMatrix` over ``size`` letters; a
    :class:`~repro.exceptions.ConfigurationError` otherwise (a
    :class:`~repro.exceptions.NoiseMatrixError` if not uniform)."""
    if isinstance(noise, NoiseMatrix):
        if noise.size != size:
            raise ConfigurationError(
                f"noise matrix has alphabet size {noise.size}, expected "
                f"|Sigma| = {size}"
            )
        delta = noise.uniform_delta
    else:
        delta = float(noise)
    if not 0.0 <= delta <= 1.0 / size:
        raise ConfigurationError(
            f"uniform delta must lie in [0, {1.0 / size:g}], got {delta}"
        )
    return delta
