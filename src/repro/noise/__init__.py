"""Noise channels and the artificial-noise reduction (Section 4).

The central object is :class:`NoiseMatrix`, a validated stochastic matrix
over a finite message alphabet together with vectorized corruption
sampling.  :mod:`repro.noise.reduction` implements Definition 7's function
``f``, Proposition 16's artificial noise matrix ``P = N^-1 T`` and
Theorem 8's simulation argument.
"""

from .matrix import NoiseMatrix
from .reduction import (
    NoiseReduction,
    artificial_noise_matrix,
    noise_reduction,
    reduction_delta,
)
from .channels import (
    apply_noise,
    observation_distribution,
    uniform_level,
    uniform_observation,
)
from .estimation import ChannelEstimate, estimate_noise_matrix, probes_needed
from .dynamic import (
    NoiseSchedule,
    constant_schedule,
    drifting_uniform_schedule,
)
from .heterogeneous import HeterogeneousBinaryNoise

__all__ = [
    "HeterogeneousBinaryNoise",
    "NoiseSchedule",
    "constant_schedule",
    "drifting_uniform_schedule",
    "ChannelEstimate",
    "estimate_noise_matrix",
    "probes_needed",
    "NoiseMatrix",
    "NoiseReduction",
    "apply_noise",
    "artificial_noise_matrix",
    "noise_reduction",
    "observation_distribution",
    "reduction_delta",
    "uniform_level",
    "uniform_observation",
]
