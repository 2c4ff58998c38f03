"""EXT2 — fault tolerance: observation loss and population churn."""

from __future__ import annotations

import numpy as np

from ..analysis import EngineTrial, time_average
from ..model import Population, PopulationConfig, PullEngine
from ..noise import NoiseMatrix
from ..protocols import (
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SSFSchedule,
    SelfStabilizingSourceFilterProtocol,
)
from ..types import SourceCounts
from .base import CheckResult, Experiment, ExperimentOutcome
from .registry import register


def _seed_record(sequence: np.random.SeedSequence) -> dict:
    """JSON-serializable (entropy, spawn_key) pair identifying a stream."""
    return {
        "entropy": int(sequence.entropy),
        "spawn_key": [int(k) for k in sequence.spawn_key],
    }


def _seq_seed(sequence: np.random.SeedSequence) -> int:
    """Integer seed for APIs that take one (full 64-bit range)."""
    return int(sequence.generate_state(1, np.uint64)[0])


@register
class FaultTolerance(Experiment):
    """Losses and turnover: where the protocols bend and where they hold."""

    experiment_id = "EXT2"
    title = "fault tolerance: observation loss and population churn"
    claim = (
        "The Eq. (19) slack absorbs substantial observation loss; under "
        "population churn, full consensus is impossible but SSF settles "
        "at the predictable quasi-consensus floor "
        "wrong ~ churn_per_round * epoch_rounds / 2."
    )

    def _execute(self, scale: str = "full", seed: int = 0) -> ExperimentOutcome:
        self._validate_scale(scale)
        rows = []

        # (a) Observation loss on SF and SSF.
        n = 512 if scale == "full" else 256
        trials = 10 if scale == "full" else 5
        losses = [0.0, 0.3, 0.6] if scale == "full" else [0.0, 0.4]
        config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)
        loss_ok = True
        # Hierarchical seed streams: one root per section, one spawned
        # child per (grid point, protocol).  Spawn indexing is prefix-
        # stable, so extending a grid appends new streams without
        # shifting existing ones; raw `seed + int(loss * 100)`
        # arithmetic collided across sections and correlated points.
        loss_root, churn_root = np.random.SeedSequence(seed).spawn(2)
        loss_seeds = loss_root.spawn(2 * len(losses))
        loss_seed_records = []
        for index, loss in enumerate(losses):
            sf_seq, ssf_seq = loss_seeds[2 * index : 2 * index + 2]
            sf_stats = self._trials(
                EngineTrial(FastSourceFilter(config, 0.2, sample_loss=loss)),
                trials,
                seed=_seq_seed(sf_seq),
            )
            ssf_stats = self._trials(
                EngineTrial(
                    FastSelfStabilizingSourceFilter(config, 0.1, sample_loss=loss)
                ),
                trials,
                seed=_seq_seed(ssf_seq),
            )
            loss_seed_records.append(
                {
                    "fault": f"loss={loss}",
                    "sf_seed": _seed_record(sf_seq),
                    "ssf_seed": _seed_record(ssf_seq),
                }
            )
            loss_ok &= (
                sf_stats.success_rate >= 0.9 and ssf_stats.success_rate >= 0.9
            )
            rows.append(
                {
                    "fault": f"loss={loss}",
                    "sf_success": sf_stats.success_rate,
                    "ssf_success": ssf_stats.success_rate,
                    "quasi_consensus_floor": None,
                    "measured_tail_accuracy": None,
                }
            )

        # (b) Churn on agent-level SSF: compare the measured tail accuracy
        # against the predicted quasi-consensus floor.
        churn_n, churn_h = (64, 32)
        churn_config = PopulationConfig(
            n=churn_n, sources=SourceCounts(0, 2), h=churn_h
        )
        schedule = SSFSchedule.from_config(churn_config, 0.05)
        churn_grid = [0.05, 0.2] if scale == "full" else [0.1]
        churn_ok = True
        # One independent (population, run) seed pair per churn scenario,
        # spawned from this section's root: raw `seed + 1` arithmetic
        # reused the *same* streams for every grid point, correlating
        # scenarios.
        churn_seeds = churn_root.spawn(2 * len(churn_grid))
        # Reproduction aid: a SeedSequence is fully determined by
        # (entropy, spawn_key), so recording both lets any single churn
        # row be rerun in isolation — rebuild each stream with
        # ``np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))``
        # without replaying the whole grid.
        churn_seed_records = []
        for scenario, replacements_per_round in enumerate(churn_grid):
            churn_rate = replacements_per_round / churn_n
            population = Population(
                churn_config,
                rng=np.random.default_rng(churn_seeds[2 * scenario]),
            )
            protocol = SelfStabilizingSourceFilterProtocol(schedule)
            engine = PullEngine(population, NoiseMatrix.uniform(0.05, 4))
            result = engine.run(
                protocol,
                max_rounds=10 * schedule.epoch_rounds,
                rng=np.random.default_rng(churn_seeds[2 * scenario + 1]),
                churn_rate=churn_rate,
                record_trace=True,
            )
            tail = [
                r.fraction_correct for r in result.trace
            ][-3 * schedule.epoch_rounds :]
            measured = time_average(tail)
            expected_wrong = (
                replacements_per_round * schedule.epoch_rounds * 0.5
            )
            floor = max(1.0 - 2.0 * expected_wrong / churn_n, 0.0)
            churn_ok &= measured >= floor
            churn_seed_records.append(
                {
                    "fault": f"churn={replacements_per_round}/round",
                    "churn_rate": churn_rate,
                    "population_seed": _seed_record(churn_seeds[2 * scenario]),
                    "run_seed": _seed_record(churn_seeds[2 * scenario + 1]),
                }
            )
            rows.append(
                {
                    "fault": f"churn={replacements_per_round}/round",
                    "sf_success": None,
                    "ssf_success": None,
                    "quasi_consensus_floor": round(floor, 3),
                    "measured_tail_accuracy": round(measured, 3),
                }
            )

        checks = [
            CheckResult(
                "both protocols absorb heavy observation loss", loss_ok
            ),
            CheckResult(
                "churned SSF stays above the predicted quasi-consensus floor",
                churn_ok,
            ),
        ]
        return self._outcome(
            rows,
            checks,
            notes=(
                f"loss rows: n={n}, h=n; churn rows: n={churn_n}, "
                f"h={churn_h}, delta=0.05, agent-level SSF"
            ),
            metadata={
                "master_seed": seed,
                "loss_seeds": loss_seed_records,
                "churn_seeds": churn_seed_records,
            },
        )
