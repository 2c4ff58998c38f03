"""The paper's protocols: Source Filter (SF) and Self-stabilizing SF (SSF).

Each protocol ships in two distributionally identical implementations:

* an *agent-level* class implementing
  :class:`~repro.model.engine.PullProtocol` — the literal Algorithm 1 / 2,
  runnable on the exact engine with any noise matrix (via the Section 4
  reduction);
* a *fast* engine that exploits exchangeability (per-phase observation
  tallies are Binomial/Multinomial given the global display counts) to
  simulate entire phases in O(n) regardless of the round count.
"""

from .parameters import (
    SFSchedule,
    SFStage,
    SSFSchedule,
    sf_sample_budget,
    ssf_sample_budget,
)
from .sf import SourceFilterProtocol
from .sf_batched import BatchedSourceFilter
from .sf_count import CountSourceFilter
from .sf_fast import FastSourceFilter, SFRunResult
from .sf_alternating import FastAlternatingSourceFilter
from .ssf import SelfStabilizingSourceFilterProtocol
from .ssf_count import CountSelfStabilizingSourceFilter
from .ssf_fast import FastSelfStabilizingSourceFilter, SSFRunResult
from .ssf_async import AsyncSelfStabilizingSourceFilter
from .multibit import (
    MultiBitResult,
    MultiBitSourceFilter,
    decode_bits,
    encode_value,
)
from .kary import FastKAryPluralityFilter, KAryConfig, KAryRunResult
from .kary_agent import KAryPluralityProtocol, binary_population_for

__all__ = [
    "AsyncSelfStabilizingSourceFilter",
    "BatchedSourceFilter",
    "FastAlternatingSourceFilter",
    "FastKAryPluralityFilter",
    "KAryConfig",
    "KAryPluralityProtocol",
    "KAryRunResult",
    "binary_population_for",
    "CountSelfStabilizingSourceFilter",
    "CountSourceFilter",
    "FastSelfStabilizingSourceFilter",
    "FastSourceFilter",
    "MultiBitResult",
    "MultiBitSourceFilter",
    "SFRunResult",
    "SFSchedule",
    "SFStage",
    "SSFRunResult",
    "SSFSchedule",
    "SelfStabilizingSourceFilterProtocol",
    "SourceFilterProtocol",
    "decode_bits",
    "encode_value",
    "sf_sample_budget",
    "ssf_sample_budget",
]
