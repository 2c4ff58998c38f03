"""repro.verify — conformance, differential testing, statistical assertions.

The correctness layer of the repo, in the spirit of ``numpy.testing``:

* :mod:`repro.verify.conformance` — bit-identity checks between engine
  generations (reference vs batched).
* :mod:`repro.verify.statistical` — exact-binomial / Hoeffding
  assertions with explicit confidence levels and a false-positive
  budget, replacing hand-rolled ``> 0.9``-style checks.
* :mod:`repro.verify.golden` — golden-trace fixtures pinning the exact
  RNG-consumption order of every engine.
* :mod:`repro.verify.runner` — the conformance matrix behind
  ``repro-spreading verify``.
* :mod:`repro.verify.strategies` — shared Hypothesis strategies
  (imported explicitly; requires the test-only ``hypothesis`` package).
"""

from .conformance import (
    ConformanceError,
    assert_engines_equivalent,
    assert_results_identical,
)
from .golden import (
    GOLDEN_SCENARIOS,
    GoldenScenario,
    compare_goldens,
    compute_golden_records,
    default_goldens_dir,
    trajectory_digest,
    write_goldens,
)
from .runner import CheckOutcome, VerifyReport, run_verify
from .statistical import (
    GLOBAL_BUDGET,
    FalsePositiveBudget,
    StatisticalAssertionError,
    assert_binomial_plausible,
    assert_mean_within,
    assert_proportions_close,
    assert_rounds_within,
    assert_success_probability,
    binomial_cdf,
    binomial_sf,
    hoeffding_radius,
)

__all__ = [
    "CheckOutcome",
    "ConformanceError",
    "FalsePositiveBudget",
    "GLOBAL_BUDGET",
    "GOLDEN_SCENARIOS",
    "GoldenScenario",
    "StatisticalAssertionError",
    "VerifyReport",
    "assert_binomial_plausible",
    "assert_engines_equivalent",
    "assert_mean_within",
    "assert_proportions_close",
    "assert_results_identical",
    "assert_rounds_within",
    "assert_success_probability",
    "binomial_cdf",
    "binomial_sf",
    "compare_goldens",
    "compute_golden_records",
    "default_goldens_dir",
    "hoeffding_radius",
    "run_verify",
    "trajectory_digest",
    "write_goldens",
]
