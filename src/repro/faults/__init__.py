"""Model-layer fault injection (Byzantine displays, crashes, wrong noise).

Distinct from :mod:`repro.analysis.resilience` (execution-layer chaos —
worker crashes, timeouts — with bit-identical statistics): the faults
here change the *simulated model itself* and are the subject of the
EXT3 robustness-frontier experiment.  See ``docs/resilience.md`` for
the taxonomy.
"""

from .base import (
    FAULT_TRAITS,
    ComposedFaultModel,
    FaultModel,
    IdentityFaultModel,
    validate_probability,
    validate_sample_loss,
)
from .display import ByzantineDisplayFault, CountView, CrashFault, StuckAtFault
from .metrics import RecoveryTracker, emit_recovery_batch
from .misspecification import (
    MisspecifiedReduction,
    NoiseMisspecification,
    default_projection_margin,
    misspecified_reduction,
    project_to_stochastic,
)

__all__ = [
    "FAULT_TRAITS",
    "FaultModel",
    "IdentityFaultModel",
    "ComposedFaultModel",
    "validate_probability",
    "validate_sample_loss",
    "ByzantineDisplayFault",
    "CountView",
    "CrashFault",
    "StuckAtFault",
    "RecoveryTracker",
    "emit_recovery_batch",
    "MisspecifiedReduction",
    "NoiseMisspecification",
    "default_projection_margin",
    "misspecified_reduction",
    "project_to_stochastic",
]
