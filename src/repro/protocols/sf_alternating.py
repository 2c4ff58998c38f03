"""The alternating-display SF variant (Remark, Section 2.1).

The paper remarks that instead of displaying a long block of 0s (Phase 0)
followed by a long block of 1s (Phase 1), a "perhaps more natural"
protocol would have each non-source agent flip one fair coin for its
first-round message and then deterministically alternate 0,1,0,1,...
while counting, in every listening round, observed 1s in rounds where it
displays 0 and observed 0s in rounds where it displays 1.  The paper
conjectures this works equally well but analyses the block version for
simplicity.  We implement the variant and let the ablation benchmark
(`benchmarks/bench_sf_variants.py`) test the conjecture empirically.

Because displays now mix 0s and 1s within every round, each listening
round has (in expectation) half the population showing each symbol, and
the per-pair step distribution differs slightly from block-SF's.  The
engine below is the fast SF kernel with its own listening stage: the
displays change every round, so it draws one per-round binomial instead
of one per phase; boosting and ``run`` are SF's.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..model.config import PopulationConfig
from ..noise import NoiseMatrix
from ..types import RngLike, coerce_rng
from .parameters import SFSchedule
from .sf_fast import FastSourceFilter, Observer
from .ssf import majority_with_ties


class FastAlternatingSourceFilter(FastSourceFilter):
    """Vectorized alternating-display Source Filter.

    The listening stage lasts ``2 * ceil(m/h)`` rounds like SF's two
    phases.  Each non-source agent i flips a coin b_i, displays
    ``b_i XOR (t mod 2)`` in listening round t, and accumulates:

    * Counter1 — observed 1s in rounds where it displayed 0,
    * Counter0 — observed 0s in rounds where it displayed 1,

    then forms the weak opinion ``1{Counter1 > Counter0}`` and enters the
    identical Majority Boosting phase (inherited from
    :class:`~repro.protocols.FastSourceFilter`, as is ``run``).  Sources
    display their preference throughout the listening stage, split their
    counting rounds evenly (even rounds count 1s, odd rounds count 0s)
    so their comparison stays symmetric.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: SFSchedule = None,
        constant: float = None,
    ) -> None:
        super().__init__(config, noise, schedule=schedule, constant=constant)

    def draw_weak_opinions(
        self,
        rng: RngLike = None,
        *,
        observe: Optional[Observer] = None,
    ) -> np.ndarray:
        """Simulate the listening stage round by round (displays change
        every round, so the per-phase binomial shortcut does not apply;
        the per-round one does)."""
        generator = coerce_rng(rng)
        observe = observe or self._observe_uniform
        cfg, h = self.config, self.config.h
        num_sources = cfg.num_sources
        # coins[i] = first-round display of non-source i.
        coins = generator.integers(0, 2, size=cfg.n - num_sources).astype(np.int8)
        displays = np.zeros(cfg.n, dtype=np.int8)
        displays[cfg.s0 : num_sources] = 1
        counting_ones = np.empty(cfg.n, dtype=bool)
        counter1 = np.zeros(cfg.n, dtype=np.int64)
        counter0 = np.zeros(cfg.n, dtype=np.int64)
        for t in range(2 * self.schedule.phase_rounds):
            parity = t % 2
            displays[num_sources:] = coins ^ parity
            observed_ones = generator.binomial(h, observe(displays, t, 1), size=cfg.n)
            # Non-sources displaying 0 count 1s; so do sources on even t.
            counting_ones[:num_sources] = parity == 0
            counting_ones[num_sources:] = displays[num_sources:] == 0
            counter1 += np.where(counting_ones, observed_ones, 0)
            counter0 += np.where(counting_ones, 0, h - observed_ones)
        return majority_with_ties(counter1, counter0, generator)
