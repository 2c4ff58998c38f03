"""Differential conformance between engine generations.

The repo ships several implementations of the Section-1.3 dynamics: the
reference :class:`~repro.model.PullEngine`, the replica-axis
:class:`~repro.model.BatchedPullEngine`, the fast SF/SSF engines and the
asynchronous variants.  Two notions of equivalence apply:

* **bit-identical** — the batched engine consumes exactly the same
  random draws as serial runs on ``spawn_generators(seed, R)``, so
  whole trajectories must match exactly.
  :func:`assert_engines_equivalent` checks this.
* **distributional** — the fast engines use exchangeability shortcuts
  (binomial/multinomial draws instead of per-agent samples), so only the
  laws agree; those pairs are checked with the statistical assertions in
  :mod:`repro.verify.statistical` (see :mod:`repro.verify.runner`).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..model.engine import SimulationResult
from ..rng import spawn_generators

__all__ = [
    "ConformanceError",
    "assert_results_identical",
    "assert_engines_equivalent",
]


class ConformanceError(ConfigurationError, AssertionError):
    """Two engines that must agree bit-for-bit diverged."""


def _field_mismatch(name: str, a: object, b: object, context: str) -> str:
    prefix = f"{context}: " if context else ""
    return f"{prefix}field {name!r} diverged: serial={a!r} batched={b!r}"


def assert_results_identical(
    serial: SimulationResult,
    batched: SimulationResult,
    *,
    context: str = "",
    compare_trace: bool = True,
) -> None:
    """Assert two :class:`SimulationResult` objects are bit-identical.

    Compares convergence flags, round counts and the final opinion
    vectors exactly; traces too when both were recorded.
    """
    if bool(serial.converged) != bool(batched.converged):
        raise ConformanceError(
            _field_mismatch(
                "converged", serial.converged, batched.converged, context
            )
        )
    if serial.consensus_round != batched.consensus_round:
        raise ConformanceError(
            _field_mismatch(
                "consensus_round",
                serial.consensus_round,
                batched.consensus_round,
                context,
            )
        )
    if serial.rounds_executed != batched.rounds_executed:
        raise ConformanceError(
            _field_mismatch(
                "rounds_executed",
                serial.rounds_executed,
                batched.rounds_executed,
                context,
            )
        )
    if not np.array_equal(serial.final_opinions, batched.final_opinions):
        diff = int(
            np.count_nonzero(
                np.asarray(serial.final_opinions)
                != np.asarray(batched.final_opinions)
            )
        )
        prefix = f"{context}: " if context else ""
        raise ConformanceError(
            f"{prefix}final_opinions diverged on {diff} of "
            f"{len(serial.final_opinions)} agents"
        )
    if compare_trace and serial.trace is not None and batched.trace is not None:
        if not np.array_equal(serial.trace, batched.trace):
            prefix = f"{context}: " if context else ""
            raise ConformanceError(
                f"{prefix}per-round traces diverged "
                f"(lengths {len(serial.trace)} vs {len(batched.trace)})"
            )


def assert_engines_equivalent(
    serial_run: Callable[[np.random.Generator], SimulationResult],
    batched_run: Callable[[int, int], Sequence[SimulationResult]],
    *,
    replicas: int,
    seed: int,
    context: str = "",
    compare_trace: bool = True,
) -> List[SimulationResult]:
    """Assert a batched engine reproduces serial runs bit-for-bit.

    ``serial_run(generator)`` must execute one trajectory with the given
    generator and return its :class:`SimulationResult`; ``batched_run(seed,
    replicas)`` must execute ``replicas`` trajectories, replica ``r`` on
    ``spawn_generators(seed, replicas)[r]``, and return their results in
    replica order.  Every replica is compared field-by-field against the
    serial run with the matching spawned generator.

    Returns the serial results so callers can layer further checks.
    """
    if replicas <= 0:
        raise ConfigurationError(
            f"replicas must be positive, got {replicas}"
        )
    batched_results = list(batched_run(seed, replicas))
    if len(batched_results) != replicas:
        raise ConformanceError(
            f"{context + ': ' if context else ''}batched run returned "
            f"{len(batched_results)} results for {replicas} replicas"
        )
    serial_results: List[SimulationResult] = []
    for index, generator in enumerate(spawn_generators(seed, replicas)):
        serial = serial_run(generator)
        serial_results.append(serial)
        label = f"{context + ', ' if context else ''}replica {index}"
        assert_results_identical(
            serial,
            batched_results[index],
            context=label,
            compare_trace=compare_trace,
        )
    return serial_results
