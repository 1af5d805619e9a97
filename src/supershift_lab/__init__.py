"""Rotated-contour propagator lab for superoscillations and supershifts."""

from .contour_quad import GrowthWitness
from .errors import (
    DomainMarginError,
    EvaluationOverflow,
    HorizonExceeded,
    PanelExhausted,
    PrecisionExhausted,
    SupershiftError,
)
from .evolve import (
    WaveField,
    continuous_dependence_check,
    initial_limit_check,
    schrodinger_residual_field,
    supershift_experiment,
    wavefield,
    wavefunction,
)
from .greens import (
    Electric,
    Free,
    GreensKernel,
    Harmonic,
    PoschlTeller,
    Quadratic,
    audit_kernel,
    make_kernel,
)
from .initial_data import (
    HolomorphicSignal,
    combine_signals,
    default_weight,
    disk_samples,
    plane_wave,
    superosc_signal,
    weighted_sup_distance,
)

__version__ = "0.1.0"
