"""Noise misspecification: the Theorem-8 reduction against the wrong N.

The Section-4 reduction lets agents simulate a uniform channel on top of
an arbitrary delta-upper-bounded physical channel ``N`` by
post-processing through ``P = N^-1 @ T`` (Proposition 16).  That
construction *assumes the agents know N*.  This module models the
realistic failure: protocols size their budgets and build ``P`` from an
assumed ``N_hat`` while the engine corrupts with the true ``N``, so the
effective channel becomes ``N @ P`` — close to uniform only insofar as
``N`` is close to ``N_hat``.

Near the singular limit ``delta -> 1/d`` the computed ``P`` can fall
slightly outside the stochastic simplex (Proposition 16 only guarantees
stochasticity for the *true* inverse): :func:`project_to_stochastic`
clips and renormalizes, and the allowed projection shift is an explicit
margin scaled by Lemma 13 / Corollary 14's ``norm(N^-1) <=
(d-1)/(1-d*delta)`` bound — a shift beyond the margin means the input
was not a conditioning artifact but a genuinely invalid matrix, and
raises :class:`~repro.exceptions.NoiseMatrixError`.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError, NoiseMatrixError
from ..linalg import invert_noise_matrix
from ..linalg.inversion import inverse_norm_bound
from ..linalg.stochastic import infinity_norm
from ..noise import NoiseMatrix
from ..noise.reduction import reduction_delta
from ..types import RngLike
from .base import FaultModel

__all__ = [
    "project_to_stochastic",
    "MisspecifiedReduction",
    "misspecified_reduction",
    "NoiseMisspecification",
]

#: Per-entry floating-point dust attributable to one inverse-times-matrix
#: product; multiplied by the Corollary-14 conditioning bound to obtain
#: the default projection margin.
_DUST = 1e-12


def default_projection_margin(size: int, delta: float) -> float:
    """Largest projection shift excusable as conditioning dust.

    Entries of ``P = N^-1 @ T`` carry rounding error proportional to
    ``norm(N^-1)`` (Corollary 14 bounds it by ``(d-1)/(1-d*delta)``),
    so the margin grows as ``delta -> 1/d`` exactly when the legitimate
    dust does.
    """
    return size * inverse_norm_bound(size, delta) * _DUST


def project_to_stochastic(
    matrix: np.ndarray, margin: float
) -> Tuple[np.ndarray, float]:
    """Project a near-stochastic matrix onto the stochastic simplex.

    Clips negative entries to zero and renormalizes each row; returns
    ``(projected, shift)`` where ``shift`` is the infinity-norm of the
    correction actually applied.  Raises
    :class:`~repro.exceptions.NoiseMatrixError` when the shift exceeds
    ``margin`` — the matrix was not merely dusted by floating point.
    """
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise NoiseMatrixError(f"expected a square matrix, got shape {array.shape}")
    clipped = np.clip(array, 0.0, None)
    sums = clipped.sum(axis=1, keepdims=True)
    if np.any(sums <= 0.0):
        raise NoiseMatrixError(
            "a row clipped to zero mass; the matrix is nowhere near stochastic"
        )
    projected = clipped / sums
    shift = infinity_norm(projected - array)
    if shift > margin:
        raise NoiseMatrixError(
            f"projection shifted the matrix by {shift:.3g} in the "
            f"infinity norm, beyond the conditioning margin {margin:.3g}; "
            "the input is not a floating-point perturbation of a "
            "stochastic matrix"
        )
    return projected, float(shift)


@dataclasses.dataclass(frozen=True)
class MisspecifiedReduction:
    """The Theorem-8 package built from the *wrong* channel estimate.

    Attributes
    ----------
    assumed:
        ``N_hat`` — the channel the agents designed against.
    true:
        ``N`` — the channel observations actually traverse.
    delta:
        The upper-bound certificate used for the reduction (from
        ``N_hat``).
    artificial:
        ``P = project(N_hat^-1 @ T)`` — the agents' post-processing
        channel, stochastic by construction.
    effective:
        ``N @ P`` — the channel the dynamics actually see.  Uniform with
        level ``delta_prime`` iff ``N == N_hat``.
    delta_prime:
        ``f(delta)``, the uniform level the agents *believe* they got.
    deviation:
        ``norm_inf(N - N_hat)`` — the misspecification magnitude the
        EXT3 frontier is plotted against.
    effective_deviation:
        ``norm_inf(N @ P - T)`` — how far the realized channel sits from
        the intended uniform one.  Bounded by ``deviation`` since ``P``
        is stochastic (``norm_inf(A @ P) <= norm_inf(A)``).
    projection_shift:
        Infinity-norm of the stochastic projection applied to ``P``
        (zero away from the near-singular regime).
    """

    assumed: NoiseMatrix
    true: NoiseMatrix
    delta: float
    artificial: NoiseMatrix
    effective: NoiseMatrix
    delta_prime: float
    deviation: float
    effective_deviation: float
    projection_shift: float


def misspecified_reduction(
    true: NoiseMatrix,
    assumed: NoiseMatrix,
    delta: Optional[float] = None,
    margin: Optional[float] = None,
) -> MisspecifiedReduction:
    """Build the reduction an agent running on ``assumed`` experiences
    under the ``true`` channel.

    ``delta`` defaults to ``assumed.upper_delta`` (the tightest
    certificate); ``margin`` defaults to
    :func:`default_projection_margin`, the Lemma-13-scaled dust
    allowance for the stochastic projection of ``P``.
    """
    if true.size != assumed.size:
        raise NoiseMatrixError(
            f"true ({true.size}x{true.size}) and assumed "
            f"({assumed.size}x{assumed.size}) channels disagree on the alphabet"
        )
    if delta is None:
        delta = assumed.upper_delta
        if delta is None:
            raise NoiseMatrixError(
                "assumed matrix is not delta-upper-bounded for any delta < 1/d"
            )
    d = assumed.size
    delta_prime = reduction_delta(delta, d)
    target = NoiseMatrix.uniform(delta_prime, d)
    inverse = invert_noise_matrix(assumed.matrix, delta)
    raw = inverse @ target.matrix
    if margin is None:
        margin = default_projection_margin(d, delta)
    projected, shift = project_to_stochastic(raw, margin)
    artificial = NoiseMatrix(projected)
    effective = true.compose(artificial)
    deviation = infinity_norm(true.matrix - assumed.matrix)
    effective_deviation = infinity_norm(effective.matrix - target.matrix)
    return MisspecifiedReduction(
        assumed=assumed,
        true=true,
        delta=float(delta),
        artificial=artificial,
        effective=effective,
        delta_prime=delta_prime,
        deviation=float(deviation),
        effective_deviation=float(effective_deviation),
        projection_shift=shift,
    )


class NoiseMisspecification(FaultModel):
    """Channel-seam fault: the engine corrupts with the *true* channel.

    Construct the engine and protocol with the assumed channel (their
    budgets and artificial matrices derive from it); this fault swaps in
    ``true`` at corruption time.  ``true`` may be a
    :class:`~repro.noise.NoiseMatrix` or a schedule exposing
    ``matrix_at(round_index)``.

    For the fast SF/SSF and count engines the dynamics are parameterized
    by a uniform level, so :meth:`effective_uniform_delta` reports the
    true channel's uniform level — available only when the true channel
    is uniform, the ``uniform-channel`` trait those engines admit (for
    any other channel, run the reduction first and pass
    ``misspecified_reduction(...).effective``).
    """

    def __init__(self, true: Union[NoiseMatrix, object]) -> None:
        self.true = true
        self._matrix_at = getattr(true, "matrix_at", None)
        self.true_uniform_delta: Optional[float] = None
        if isinstance(true, NoiseMatrix):
            try:
                self.true_uniform_delta = true.uniform_delta
            except NoiseMatrixError:
                self.true_uniform_delta = None

    @classmethod
    def uniform(cls, true_delta: float, size: int = 2) -> "NoiseMisspecification":
        """Uniform true channel at level ``true_delta``."""
        return cls(NoiseMatrix.uniform(true_delta, size))

    @classmethod
    def from_reduction(
        cls, reduction: MisspecifiedReduction
    ) -> "NoiseMisspecification":
        """Fault whose true channel is the reduction's realized ``N @ P``.

        Use with engines/protocols configured for the *intended* uniform
        level ``reduction.delta_prime``: the dynamics then experience
        exactly the misspecified composition.
        """
        return cls(reduction.effective)

    @property
    def traits(self) -> FrozenSet[str]:
        uniform = self.true_uniform_delta is not None
        return frozenset({"uniform-channel" if uniform else "channel"})

    def check_alphabet(self, alphabet_size: int) -> None:
        size = getattr(self.true, "size", None)
        if size is not None and size != alphabet_size:
            raise ConfigurationError(
                f"true channel size {size} does not match the protocol "
                f"alphabet {alphabet_size}"
            )

    def reset(self, population, alphabet_size: int, rng: RngLike = None) -> None:
        super().reset(population, alphabet_size, rng)
        self.check_alphabet(alphabet_size)

    def channel(self, round_index: int, channel):
        if self._matrix_at is not None:
            return self._matrix_at(round_index)
        return self.true

    def effective_uniform_delta(self, assumed_delta: float) -> float:
        if self.true_uniform_delta is None:
            raise ConfigurationError(
                "fast engines need a uniform true channel; run "
                "misspecified_reduction() and pass its effective matrix, "
                "or use an index-level engine"
            )
        return self.true_uniform_delta

