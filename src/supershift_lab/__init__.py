"""Rotated-contour propagator lab for superoscillations and supershifts."""

from .contour_quad import (
    GrowthWitness,
    QuadratureResult,
    rotated_integral,
    truncation_radius,
)
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
    KernelAuditReport,
    PoschlTeller,
    Potential,
    Quadratic,
    audit_kernel,
    greens_value,
    make_kernel,
    pde_residual,
)
from .initial_data import (
    HolomorphicSignal,
    combine_signals,
    constant_signal,
    default_weight,
    disk_samples,
    plane_wave,
    superosc_signal,
    weighted_sup_distance,
)
from .ode_coeff import QuadraticCoeffs
from .special_fn import erfcx, pole_set_distance

__version__ = "0.1.0"
