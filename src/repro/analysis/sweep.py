"""The n-sweep behind ``repro-spreading sweep`` and ``POST /sweep``."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..model.config import PopulationConfig
from ..telemetry import Telemetry
from ..types import SourceCounts
from .resilience import ResilienceConfig
from .trials import EngineTrial, repeat_trials, run_length


def scaling_sweep(
    engine: str,
    protocol: str,
    s0: int,
    s1: int,
    h: Optional[int],
    delta: float,
    seed: Optional[int],
    trials: int,
    min_exp: int,
    max_exp: int,
    *,
    workers: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> List[Dict[str, object]]:
    """``trials`` runs of ``protocol`` at each ``n = 2^min_exp..2^max_exp``.

    One row per ``n``: ``n``, ``success_rate``, ``median_rounds`` and the
    protocol's theory bounds, ``lower_bound`` (Theorem 3, over SF's
    binary or SSF's four-symbol alphabet) and ``upper_bound`` (Theorem 4
    for SF, Theorem 5 for SSF).  Every ``n`` runs on the same ``seed``,
    through the engine registry, and checkpoints under the scope
    ``sweep/n=<n>``; ``h=None`` samples the whole population.
    """
    # Deferred: repro.theory imports repro.analysis.
    from ..engines import create_engine
    from ..theory import (
        lower_bound_rounds,
        sf_upper_bound_rounds,
        ssf_upper_bound_rounds,
    )

    if protocol == "ssf":
        upper_bound, alphabet_size = ssf_upper_bound_rounds, 4
    else:
        upper_bound, alphabet_size = sf_upper_bound_rounds, 2
    rows = []
    for exponent in range(min_exp, max_exp + 1):
        n = 2**exponent
        config = PopulationConfig(
            n=n, sources=SourceCounts(s0=s0, s1=s1), h=n if h is None else h
        )
        stats = repeat_trials(
            EngineTrial(create_engine(engine, protocol, config, delta)),
            trials,
            seed=seed,
            measure=run_length,
            workers=workers,
            telemetry=telemetry,
            resilience=resilience,
            checkpoint_scope=f"sweep/n={n}",
        )
        rows.append(
            {
                "n": n,
                "success_rate": stats.success_rate,
                "median_rounds": stats.median,
                "lower_bound": lower_bound_rounds(
                    n, config.h, max(abs(s1 - s0), 1), delta,
                    alphabet_size=alphabet_size,
                ),
                "upper_bound": upper_bound(config, delta),
            }
        )
    return rows
