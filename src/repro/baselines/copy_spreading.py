"""Classic copy-based rumor spreading, broken by noisy tags.

The textbook PULL spreading rule [16]: informed agents display an
"informed" tag plus the rumor bit; an uninformed agent that samples an
informed one copies the bit and becomes informed itself.  Over the 2-bit
alphabet this uses the same encoding as SSF (symbol ``2*tag + bit``).

Under noise the tag itself gets corrupted: most tagged messages an agent
sees actually come from *uninformed* agents whose tag flipped (there are
``n - o(n)`` of them versus few informed ones), so copied bits are close
to uniform and the rumor that spreads is garbage.  This is precisely the
failure mode motivating the paper's source-filtering idea (Section 1.2's
"designated bit" discussion), and experiment E9 measures it: accuracy
collapses towards 1/2 as ``delta`` grows, while SF stays correct.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..model.config import PopulationConfig
from ..noise import uniform_observation
from ..types import RngLike, coerce_rng
from .base import ConsensusMonitor, DynamicsResult


class ClassicCopySpreading:
    """Copy-from-informed spreading over the noisy 4-letter PULL channel."""

    def __init__(self, config: PopulationConfig, delta: float) -> None:
        if not 0.0 <= delta <= 0.25:
            raise ValueError(f"delta must lie in [0, 0.25], got {delta}")
        self.config = config
        self.delta = delta

    def _observation_distribution(
        self, informed: np.ndarray, bits: np.ndarray
    ) -> np.ndarray:
        """Symbol distribution of one noisy observation.

        Sources and informed agents display ``2 + bit``; uninformed agents
        display symbol 0 (tag 0, bit 0).
        """
        n = self.config.n
        counts = np.zeros(4, dtype=float)
        informed_bits = bits[informed]
        counts[3] = int(np.sum(informed_bits == 1))
        counts[2] = int(np.sum(informed_bits == 0))
        counts[0] = n - int(informed.sum())
        return uniform_observation(counts / n, self.delta, 4)

    def run(
        self,
        max_rounds: int,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        patience: int = 0,
        record_trace: bool = False,
    ) -> DynamicsResult:
        """Simulate up to ``max_rounds`` rounds."""
        generator = coerce_rng(rng)
        cfg = self.config
        n, s0, s1, h = cfg.n, cfg.s0, cfg.s1, cfg.h
        correct = cfg.correct_opinion

        informed = np.zeros(n, dtype=bool)
        informed[: s0 + s1] = True
        bits = np.zeros(n, dtype=np.int8)
        bits[s0 : s0 + s1] = 1
        zealot = informed.copy()  # sources never re-copy

        monitor = ConsensusMonitor()
        trace: List[float] = []
        t = 0
        for t in range(max_rounds):
            q = self._observation_distribution(informed, bits)
            tallies = generator.multinomial(h, q, size=n)
            tagged_1 = tallies[:, 3]
            tagged_0 = tallies[:, 2]
            tagged = tagged_0 + tagged_1
            can_copy = (~informed) & (tagged > 0)
            if can_copy.any():
                # Copy the bit of a uniformly chosen tagged observation.
                probs = tagged_1[can_copy] / tagged[can_copy]
                adopted = (generator.random(int(can_copy.sum())) < probs).astype(
                    np.int8
                )
                bits[can_copy] = adopted
                informed[can_copy] = True
            free = ~zealot
            unanimous = bool(informed[free].all() and np.all(bits[free] == correct))
            monitor.update(t, unanimous)
            if record_trace:
                trace.append(float(np.mean(informed & (bits == correct))))
            if stop_on_consensus and monitor.stable_for(t, patience):
                break

        converged = bool(np.all(bits[~zealot] == correct) and informed[~zealot].all())
        strict = converged and (s0 == 0 if correct == 1 else s1 == 0)
        return DynamicsResult(
            converged=converged,
            strict_converged=strict,
            consensus_round=monitor.consensus_start if converged else None,
            rounds_executed=t + 1,
            final_opinions=bits.copy(),
            trace=trace,
        )
