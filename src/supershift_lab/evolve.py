"""Propagator-based evolution of holomorphic initial data.

The wave value at (t, x) is the rotated-contour integral of
G(t, x, z) F(z): with the kernel split G = e^{i a (z-x)^2} gtilde, the
quadrature gets the Gaussian rate a(t), phase center x, and the
combined growth witness of gtilde * F, whose frequency w is the kernel's
plus the datum's.  The contour passes through the real stationary point
x - w / (2a) of the whole phase.  On top of the point evaluator sit
grid batching, finite-difference residual fields, initial-value and
continuous-dependence checks, and supershift experiments.

No time stepping happens anywhere: every value is an independent
quadrature, so grids are embarrassingly parallel and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .contour_quad import GrowthWitness, QuadratureResult, rotated_integral
from .errors import EvaluationOverflow, PrecisionExhausted, SupershiftError
from .greens import GreensKernel
from .initial_data import (
    HolomorphicSignal,
    plane_wave,
    signal_stack,
    superosc_signal,
    weighted_sup_distance,
)


def _integrand(kernel: GreensKernel, t: float, x: float, f: HolomorphicSignal):
    """gtilde * f with the product of the kernel's witness and the datum's:
    amplitudes multiply, rates and frequencies add.  Its singular set is
    the kernel's (``kernel.poles``).  For a signal stack the one gtilde
    value per node multiplies every row."""
    gt = kernel.gtilde
    ev = lambda z: gt(t, x, np.asarray(z, dtype=complex)) * f.eval(z)
    gw, fw = kernel.growth(t, x), f.growth
    witness = GrowthWitness(
        gw.amplitude * fw.amplitude, gw.rate + fw.rate, "modulus", gw.freq + fw.freq
    )
    return HolomorphicSignal(eval=ev, growth=witness, label="integrand", poles=kernel.poles)


def wavefunction_result(
    kernel: GreensKernel,
    f: HolomorphicSignal,
    t: float,
    x: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Propagator integral with full quadrature diagnostics.

    The contour passes through x - w / (2a), w the frequency of the
    integrand's witness: along that line the phase is stationary and the
    integrand a Gaussian times a bounded factor, so no cancellation is
    left for the panel sums.  Where the poles of a sech^2 well refuse that
    line, ``kernel.contour_center`` moves it back toward x.  The line turns
    with the sign of a; at a focal time, a = 0, the point fails.  So does
    a point next to a caustic, a zero of alpha, where the kernel's error
    from its coefficients (``kernel.coeff_error``), which the estimate
    does not count, can exceed its share of tol: tol/2, as the panel sums.
    """
    kernel.check_time(t)
    rel = kernel.coeff_error(t, x) if kernel.coeff_error else 0.0
    if not rel <= 0.5 * tol:
        raise PrecisionExhausted(f"t={t:g} is at a caustic of the kernel: its coefficient "
                                 f"error over |alpha| reaches {rel:.1e}, above tol/2")
    a = kernel.a(t)
    if a == 0.0:
        raise EvaluationOverflow(f"a(t) = 0: t={t:g} is a focal time of the kernel")
    integrand = _integrand(kernel, t, x, f)
    center = kernel.contour_center(x, x - integrand.growth.freq / (2.0 * a))
    angle = math.copysign(kernel.sector_angle, a)
    return rotated_integral(integrand, a=a, y1=x, center=center, angle=angle, tol=tol)


def wavefunction(
    kernel: GreensKernel,
    f: HolomorphicSignal,
    t: float,
    x: float,
    tol: float = 1e-10,
) -> complex:
    """Wave value Psi(t, x) for initial condition f."""
    return wavefunction_result(kernel, f, t, x, tol).value


@dataclass
class WaveField:
    """Grid of wave values with per-point quadrature error estimates.

    radius, nodes and rounds are the per-point ``QuadratureResult``
    fields (truncation radius, integrand nodes, refinement rounds); a
    failed point reads nan, -1 and -1.  For a signal stack, values and
    quad_errors hold one plane per signal along a leading axis; the other
    fields are shared.
    """

    ts: np.ndarray
    xs: np.ndarray
    values: np.ndarray
    quad_errors: np.ndarray
    potential: str
    initial: str
    tol: float
    radius: np.ndarray
    nodes: np.ndarray
    rounds: np.ndarray
    failures: list = field(default_factory=list)


def wavefield(
    kernel: GreensKernel,
    f: HolomorphicSignal,
    ts: Sequence[float],
    xs: Sequence[float],
    tol: float = 1e-10,
) -> WaveField:
    """Evaluate the wave on a rectangular grid.

    Every point is an independent quadrature writing its own cell; a
    point that raises a ``SupershiftError`` is recorded in ``failures``
    as ``(t, x, reason)`` instead of aborting the grid, with its value and
    error estimate taken from the exception when it carries them (nan and
    inf otherwise).  A signal stack (``signal_stack``) gets one value and
    estimate plane per signal from one contour per point.
    """
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    shape = (len(ts), len(xs))
    # the leading axis of a stack's values, () for a lone signal
    lead = np.shape(f(np.empty(0, dtype=complex)))[:-1]
    values = np.empty(lead + shape, dtype=complex)
    errors = np.empty(lead + shape)
    radius = np.full(shape, np.nan)
    nodes = np.full(shape, -1)
    rounds = np.full(shape, -1)
    failures: list = []
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            try:
                r = wavefunction_result(kernel, f, float(t), float(x), tol)
                values[..., i, j] = r.value
                errors[..., i, j] = r.err_estimate
                radius[i, j] = r.truncation_radius
                nodes[i, j] = r.nodes
                rounds[i, j] = r.rounds
            except SupershiftError as exc:
                value = getattr(exc, "value", None)
                err = getattr(exc, "err_estimate", None)
                values[..., i, j] = value if value is not None else np.nan
                errors[..., i, j] = err if err is not None else np.inf
                failures.append((float(t), float(x), f"{type(exc).__name__}: {exc}"))

    return WaveField(
        ts=ts,
        xs=xs,
        values=values,
        quad_errors=errors,
        potential=kernel.potential.label(),
        initial=f.label,
        tol=tol,
        failures=failures,
        radius=radius,
        nodes=nodes,
        rounds=rounds,
    )


def _max_gap(values: np.ndarray, ref: np.ndarray, ok: np.ndarray) -> float:
    """max |values - ref| over the cells where ok holds (nan if none); hypot
    rounds like Python's complex abs, numpy's array abs can differ by an ulp."""
    d = values[ok] - ref[ok]
    return float(np.hypot(d.real, d.imag).max()) if d.size else np.nan


def schrodinger_residual_field(field: WaveField, kernel: GreensKernel) -> float:
    """max interior relative residual |i dPsi/dt + d2Psi/dx2 - V Psi|.

    Central differences on the field's own (uniform) grid at steps h and
    2h, Richardson-extrapolated as in ``greens.pde_residual``, at the
    points at least two steps from the border; relative to |Psi| floored
    at 1e-12 of the field's largest modulus.  The stencil's O(h^2) error
    cancels, so the value measures the field, not the grid.
    """
    ts, xs, v = field.ts, field.xs, field.values
    if len(ts) < 5 or len(xs) < 5:
        raise ValueError("residual field needs at least a 5x5 grid")
    ht = np.diff(ts)
    hx = np.diff(xs)
    if not (np.allclose(ht, ht[0], rtol=1e-9) and np.allclose(hx, hx[0], rtol=1e-9)):
        raise ValueError("residual field requires uniform grid spacing")
    ht, hx = ht[0], hx[0]
    mid = v[2:-2, 2:-2]
    dt1 = (v[3:-1, 2:-2] - v[1:-3, 2:-2]) / (2.0 * ht)
    dt2 = (v[4:, 2:-2] - v[:-4, 2:-2]) / (4.0 * ht)
    dxx1 = (v[2:-2, 3:-1] - 2.0 * mid + v[2:-2, 1:-3]) / (hx * hx)
    dxx2 = (v[2:-2, 4:] - 2.0 * mid + v[2:-2, :-4]) / (4.0 * hx * hx)
    dt = (4.0 * dt1 - dt2) / 3.0
    dxx = (4.0 * dxx1 - dxx2) / 3.0
    pot = np.array([[kernel.potential.value(t, x) for x in xs[2:-2]] for t in ts[2:-2]])
    res = np.abs(1j * dt + dxx - pot * mid)
    floor = max(1e-12 * np.max(np.abs(v)), 1e-300)
    return float(np.max(res / np.maximum(np.abs(mid), floor)))


@dataclass
class InitialLimitReport:
    t_values: list
    errors: list
    decreasing: bool
    final_error: float
    passed: bool
    failures: list = field(default_factory=list)


def initial_limit_check(
    kernel: GreensKernel,
    f: HolomorphicSignal,
    xs: Sequence[float],
    t_seq: Sequence[float],
    tol: float = 1e-8,
    threshold: float = 1e-2,
) -> InitialLimitReport:
    """Track max_x |Psi(t, x) - f(x)| along a time sequence decreasing to 0.

    The times are one ``wavefield``: a failed point goes to ``failures``
    as ``(t, x, reason)`` and out of its time's error (nan if no x is
    left); any failure fails the check.
    """
    t_seq = sorted(t_seq, reverse=True)
    fld = wavefield(kernel, f, t_seq, xs, tol)
    fx = np.asarray(f(np.asarray(xs, dtype=float) + 0j), dtype=complex)
    errs = [_max_gap(row, fx, ok) for row, ok in zip(fld.values, fld.nodes >= 0)]
    decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    return InitialLimitReport(
        t_values=list(t_seq),
        errors=errs,
        decreasing=decreasing,
        final_error=errs[-1],
        passed=not fld.failures and decreasing and errs[-1] <= threshold,
        failures=fld.failures,
    )


def _field_distances(kernel, target, signals, t_grid, x_grid, tol):
    """d_n = max |Psi(t, x; f_n) - Psi(t, x; target)| for each (n, f_n).

    One ``wavefield`` of ``signal_stack([target, f_1, ...])``: at a point
    the target and every f_n share one contour, under their common
    witness, and one kernel value per node.  The max runs over the cells
    that evaluated (nan if none).  A failed point is returned as
    ``(n, t, x, reason)`` for every n.
    """
    signals = list(signals)
    if not signals:
        return [], []
    stack = signal_stack([target] + [fn for _, fn in signals])
    fld = wavefield(kernel, stack, t_grid, x_grid, tol)
    ref, ok = fld.values[0], fld.nodes >= 0
    dists = [_max_gap(values, ref, ok) for values in fld.values[1:]]
    return dists, [(n, *bad) for n, _ in signals for bad in fld.failures]


@dataclass
class SupershiftReport:
    n_values: list
    distances: list
    kappa: complex
    potential: str
    t_grid: list
    x_grid: list
    strictly_decreasing: bool
    failures: list = field(default_factory=list)


def supershift_experiment(
    kernel: GreensKernel,
    n_values: Sequence[int],
    kappa: complex,
    t_grid: Sequence[float],
    x_grid: Sequence[float],
    tol: float = 1e-8,
) -> SupershiftReport:
    """Distance of the evolved combination to the evolved plane wave.

    d_n = max over the grid of |Psi(t, x; F_n) - Psi(t, x; e^{i kappa .})|
    where F_n combines plane waves at unit-bounded frequencies; it enters
    the integrand in its product form, the base from real cos, sin, cosh
    and sinh passes (see ``superosc_signal``).  The
    target and the F_n run as one signal stack under their common witness
    (for real kappa the F_n's own), each converged to tol on the stack's
    panels (``_field_distances``).  A failed point goes to ``failures`` as
    ``(n, t, x, reason)`` for every order and out of d_n (nan if none is
    left); any failure makes ``strictly_decreasing`` False.
    """
    distances, failures = _field_distances(
        kernel,
        plane_wave(kappa),
        ((n, superosc_signal(n, kappa)) for n in n_values),
        t_grid,
        x_grid,
        tol,
    )
    dec = not failures and all(
        distances[i + 1] < distances[i] for i in range(len(distances) - 1)
    )
    return SupershiftReport(
        n_values=list(n_values),
        distances=distances,
        kappa=complex(kappa),
        potential=kernel.potential.label(),
        t_grid=list(t_grid),
        x_grid=list(x_grid),
        strictly_decreasing=dec,
        failures=failures,
    )


@dataclass
class ContinuousDependenceReport:
    n_values: list
    metrics: list
    field_distances: list
    ratios: list
    stable_within: float
    passed: bool
    failures: list = field(default_factory=list)


def continuous_dependence_check(
    kernel: GreensKernel,
    target: HolomorphicSignal,
    approximants: Sequence[HolomorphicSignal],
    n_values: Sequence[int],
    c_weight: float,
    metric_samples,
    t_grid: Sequence[float],
    x_grid: Sequence[float],
    tol: float = 1e-8,
) -> ContinuousDependenceReport:
    """Pair the initial-data metric with the evolved-field distance.

    For each approximant the report records the weighted-sup metric and
    the sup grid distance of the wave fields; the evolution is continuous
    in the initial data when the distances are bounded by a stable
    multiple of the metrics: the check passes when the finite ratios
    d/m agree within a factor 3.  The target and the approximants are
    evaluated as one signal stack under their common witness
    (``_field_distances``).  A failed point goes to ``failures`` as
    ``(n, t, x, reason)`` for every n and out of the distances (nan if
    none is left); any failure fails the check.
    """
    metrics = [weighted_sup_distance(fn, target, c_weight, metric_samples) for fn in approximants]
    dists, failures = _field_distances(
        kernel, target, zip(n_values, approximants, strict=True), t_grid, x_grid, tol
    )
    ratios = [
        d / m if m > 0 else (0.0 if d == 0 else np.inf)
        for d, m in zip(dists, metrics)
    ]
    finite = [r for r in ratios if 0 < r < np.inf]
    stable = (max(finite) / min(finite)) if len(finite) >= 2 else 1.0
    return ContinuousDependenceReport(
        n_values=list(n_values),
        metrics=metrics,
        field_distances=dists,
        ratios=ratios,
        stable_within=stable,
        passed=bool(not failures and stable <= 3.0),
        failures=failures,
    )
