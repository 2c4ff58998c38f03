"""Cooperative transport by "crazy ants" as a noisy PULL(n) instance.

The paper's motivating scenario (Sections 1.1, 3): a group of
P. longicornis ants carries a food load; each carrier senses the *sum of
forces* exerted by all carriers through the object — a noisy observation
of the population's average tendency, i.e. a noisy PULL(n) sample.  A few
informed ants (the sources) know the nest direction.  The question the
paper answers positively: can the informed minority steer the whole group
*quickly*?  With h = n, SF converges in O(log n) decision epochs.

We substitute the unavailable empirical ant data with the synthetic model
the paper itself describes: direction is binarized (towards / away from
the nest), each carrier's pull is its displayed message mapped to ±1, and
the load's velocity each epoch is the mean pull plus sensing noise.  The
protocol dynamics *is* the SF run; the trajectory is derived from the
per-epoch display statistics, preserving exactly the code path the paper
reasons about (see DESIGN.md, Substitutions).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..model.config import PopulationConfig
from ..protocols.sf_fast import FastSourceFilter
from ..results import RunReport
from ..types import RngLike, SourceCounts, coerce_rng


@dataclasses.dataclass
class TransportResult(RunReport):
    """Outcome of one cooperative-transport simulation.

    Attributes
    ----------
    aligned:
        Whether the final group consensus points towards the nest.
    epochs_to_alignment:
        Decision epochs (phases/sub-phases) until every carrier pulled
        nest-wards, or None when alignment failed.
    positions:
        Load position over time (one entry per round), starting at 0;
        positive = towards the nest.
    velocities:
        Per-round mean pull of the group (before sensing noise).
    """

    _success_attr = "aligned"

    aligned: bool
    epochs_to_alignment: int
    positions: np.ndarray
    velocities: np.ndarray

    def _rounds_value(self) -> int:
        return len(self.velocities)


class CooperativeTransport:
    """Simulate a carrying group steered by informed ants via SF.

    Parameters
    ----------
    num_carriers:
        Group size ``n``.
    num_informed:
        Informed ants (sources); all prefer the nest direction (1).
    delta:
        Force-sensing noise level (uniform binary channel).
    step_size:
        Load displacement per round per unit of net pull.
    """

    def __init__(
        self,
        num_carriers: int,
        num_informed: int = 1,
        delta: float = 0.2,
        step_size: float = 1.0,
    ) -> None:
        if num_informed < 1:
            raise ValueError("at least one informed ant is required")
        self.config = PopulationConfig(
            n=num_carriers,
            sources=SourceCounts(s0=0, s1=num_informed),
            h=num_carriers,  # each ant senses the whole group through the load
        )
        self.delta = delta
        self.step_size = step_size

    def run(self, rng: RngLike = None) -> TransportResult:
        """Run one transport episode and derive the load trajectory."""
        generator = coerce_rng(rng)
        protocol = FastSourceFilter(self.config, self.delta)
        result = protocol.run(generator)
        n, s1 = self.config.n, self.config.s1

        # Phase 0: non-sources pull direction 0 (away), sources pull 1.
        # Phase 1: non-sources pull 1, sources still pull 1.
        pulls = [(s1 - (n - s1)) / n, 1.0]
        # Each boosting stage: the group pulls the opinion mix it began with.
        fractions = [float(np.mean(result.weak_opinions == 1))]
        fractions.extend(result.boost_trace[:-1])
        pulls.extend(2.0 * frac - 1.0 for frac in fractions)
        rounds = [stage.rounds for stage in protocol.schedule.stages()]

        velocity_arr = np.repeat(pulls, rounds) * self.step_size
        positions = np.concatenate([[0.0], np.cumsum(velocity_arr)])

        epochs_to_alignment = None
        for index, frac in enumerate(result.boost_trace):
            if frac == 1.0:
                epochs_to_alignment = 2 + index + 1  # two listening phases first
                break
        return TransportResult(
            aligned=result.converged,
            epochs_to_alignment=epochs_to_alignment,
            positions=positions,
            velocities=velocity_arr,
        )

    @property
    def total_rounds(self) -> int:
        """Round horizon of the underlying SF schedule."""
        protocol = FastSourceFilter(self.config, self.delta)
        return protocol.schedule.total_rounds
