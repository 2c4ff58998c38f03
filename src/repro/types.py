"""Shared type aliases and small value objects used across the library.

The paper works with binary opinions ``{0, 1}``, source agents that carry a
fixed *preference*, and message alphabets that may be larger than the
opinion set (the SSF protocol uses ``{0,1}^2``, encoded here as the
integers ``{0, 1, 2, 3}``).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Union

try:  # Python >= 3.8 always has typing.Protocol
    from typing import Protocol
except ImportError:  # pragma: no cover - typing_extensions fallback
    Protocol = object

import numpy as np

from .results import register_record

#: Either a fully-fledged numpy generator, an integer seed, or ``None``
#: (fresh OS entropy).  Every stochastic entry point accepts this.
RngLike = Union[np.random.Generator, np.random.SeedSequence, int, None]

#: An opinion is a plain ``0`` or ``1``.
Opinion = int


class Role(enum.IntEnum):
    """Role of an agent in the population.

    Sources know the correct opinion (their *preference*) and know that they
    are sources; this knowledge cannot be corrupted by the self-stabilization
    adversary (Section 1.3 of the paper).
    """

    NON_SOURCE = 0
    SOURCE_0 = 1
    SOURCE_1 = 2


@register_record
@dataclasses.dataclass(frozen=True)
class SourceCounts:
    """Number of sources preferring each opinion.

    The *bias* is ``s = |s1 - s0|``; the paper requires ``s >= 1`` and
    ``s0, s1 <= n/4``.  The preference held by the strict majority of
    sources is the *correct opinion*.
    """

    s0: int
    s1: int

    def __post_init__(self) -> None:
        if self.s0 < 0 or self.s1 < 0:
            raise ValueError("source counts must be non-negative")

    @property
    def total(self) -> int:
        """Total number of source agents, ``s0 + s1``."""
        return self.s0 + self.s1

    @property
    def bias(self) -> int:
        """The bias ``s = |s1 - s0|``."""
        return abs(self.s1 - self.s0)

    @property
    def correct_opinion(self) -> Opinion:
        """The opinion supported by the strict majority of sources."""
        if self.s1 == self.s0:
            raise ValueError("bias is zero: no correct opinion is defined")
        return 1 if self.s1 > self.s0 else 0


def coerce_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce any :data:`RngLike` value into a ``numpy.random.Generator``.

    The single RNG-coercion point of the library: every stochastic entry
    point — engine ``run(rng=...)``, protocol ``reset``, experiment
    ``run(..., rng=...)`` — routes through here.  Passing an existing
    generator returns it unchanged, so state is shared with the caller;
    integers and ``SeedSequence`` objects produce fresh, independent
    generators; ``None`` seeds from OS entropy.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(rng)


def seed_of(rng: RngLike) -> Optional[int]:
    """The literal master seed behind an :data:`RngLike`, when there is one.

    Integer inputs are their own seed; live generators, seed sequences
    and ``None`` carry no recoverable single seed and map to ``None``.
    Used to stamp the ``seed`` field of :class:`repro.results.RunReport`
    objects without perturbing any stream.
    """
    if isinstance(rng, (bool, np.bool_)):
        return None
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return None


def coerce_seed(seed: Optional[int] = None, rng: RngLike = None) -> Optional[int]:
    """Resolve the ``(seed=, rng=)`` call-family split into one master seed.

    Trial runners and experiments historically demanded a bare
    ``seed: int`` while engines accept any ``rng``-like.  This helper
    lets every such entry point accept both spellings:

    * ``rng`` omitted — ``seed`` passes through unchanged;
    * ``rng`` an int — it *is* the master seed;
    * ``rng`` a ``SeedSequence`` — a seed is derived from its state
      (deterministic, does not mutate the sequence);
    * ``rng`` a live ``Generator`` — a seed is drawn from it (advances
      the generator, as any consumer of shared state must).

    Passing both a non-default ``seed`` and an ``rng`` is ambiguous and
    raises ``ValueError``.
    """
    if rng is None:
        return seed
    if seed is not None and seed != 0:
        raise ValueError(
            "pass either seed= or rng=, not both: they are alternative "
            "spellings of the same master-seed input"
        )
    derived = seed_of(rng)
    if derived is not None:
        return derived
    if isinstance(rng, np.random.SeedSequence):
        return int(rng.generate_state(1, dtype=np.uint64)[0] >> 1)
    return int(coerce_rng(rng).integers(0, 2**63 - 1))


def merge_rng_seed(rng: RngLike, seed: Optional[int]) -> RngLike:
    """Fold the canonical ``seed=`` spelling into the ``rng`` argument.

    Engines accept both ``rng`` (any :data:`RngLike`) and ``seed`` (an
    integer master seed) per the canonical run contract
    (:class:`EngineRunner`).  Exactly one may be given; passing both is
    ambiguous and raises ``ValueError``.
    """
    if seed is None:
        return rng
    if rng is not None:
        raise ValueError(
            "pass either rng= or seed=, not both: they are alternative "
            "spellings of the same master-seed input"
        )
    return seed


class EngineRunner(Protocol):
    """The canonical engine run contract (structural type).

    Every engine handle returned by :func:`repro.engines.create_engine`
    — and every backend the registry wraps — accepts this keyword
    family:

    * ``max_rounds`` — round horizon; ``None`` means the engine's own
      default (typically the paper schedule's fixed horizon).  Engines
      whose horizon is structurally fixed raise
      :class:`~repro.exceptions.UnsupportedFeatureError` on a non-None
      override instead of silently ignoring it.
    * ``rng`` / ``seed`` — alternative spellings of the master seed
      (:func:`coerce_seed`); ``rng`` also accepts a live generator.
    * ``telemetry`` — an optional :class:`repro.telemetry.Telemetry`
      recorder; recording is RNG-neutral, results are unchanged.

    The return value is a :class:`repro.results.RunReport` (or a list of
    them for batched replicas) exposing at least ``converged``,
    ``rounds`` and ``seed``.
    """

    def run(
        self,
        max_rounds: Optional[int] = None,
        *,
        rng: RngLike = None,
        seed: Optional[int] = None,
        telemetry=None,
    ) -> object:
        """Execute one run and return its report."""
        ...

