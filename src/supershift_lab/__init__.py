"""Rotated-contour propagator lab for superoscillations and supershifts."""

from .contour_quad import (
    GrowthWitness,
    QuadratureResult,
    epsilon_regularized_integral,
    rotated_integral,
    truncated_integral,
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
    analyticity_probe,
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
    superosc_coefficients,
    superosc_frequencies,
    superosc_signal,
    superosc_value,
    superosc_value_float64,
    weighted_sup_distance,
)
from .ode_coeff import (
    QuadraticCoeffs,
    solve_electric,
    solve_harmonic,
    wronskian_drift,
)
from .special_fn import (
    assoc_legendre_tanh,
    erf_complex,
    erfcx,
    legendre_sum_residual,
    pole_set_distance,
    pt_kernel_term,
    pt_kernel_term_derivatives,
)

__version__ = "0.1.0"
