"""Green's kernels for the four supported potentials.

Each kernel is stored in the split form G = e^{i a(t) (z - x)^2} * gtilde,
with a(t) > 0 blowing up as t -> 0+ and gtilde exponentially bounded in z.
That split is what the rotated-contour evaluation of the propagator
integral needs: the quadratic factor turns into a Gaussian along the
rotated line and dominates gtilde's linear-exponential growth.

Kernels:

* free particle            a = 1/(4t),   gtilde = 1/(2 sqrt(i pi t))
* uniform electric field   a = 1/(4t),   gtilde = phase(alpha, beta) / (2 sqrt(i pi t))
* harmonic oscillator      a = beta/(4 alpha), gtilde from the coefficient pair
* sech^2 well (Poschl-Teller l)  a = 1/(4t), gtilde = free part + bound-state sum

All evaluators accept numpy arrays in z and are pure; construction may
solve coefficient ODEs but the returned kernel is immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial
from typing import Callable

import numpy as np

from .errors import DomainMarginError, HorizonExceeded
from .ode_coeff import ElectricCoeffs, HarmonicCoeffs, solve_electric, solve_harmonic
from .special_fn import (
    ROOT_I,
    assoc_legendre_tanh,
    erfcx,
    pole_set_distance,
    pt_weighted_term,
)

INV_SQRT_IPI = 1.0 / (np.sqrt(np.pi) * ROOT_I)
_ODE_TOL = 1e-13  # coefficient solves of the field and oscillator kernels
_POLE_MARGIN = 0.1  # least distance of a sech^2-well contour from the cosh zeros


class Potential:
    """Base tag for the supported potential family."""

    def label(self) -> str:
        raise NotImplementedError

    def value(self, t: float, x: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Free(Potential):
    def label(self) -> str:
        return "free"

    def value(self, t: float, x: float) -> float:
        return 0.0


@dataclass(frozen=True)
class Electric(Potential):
    """V(t, x) = lam(t) * x with continuous lam."""

    lam: Callable[[float], float]
    lam_label: str = "lam"

    def label(self) -> str:
        return f"electric({self.lam_label})"

    def value(self, t: float, x: float) -> float:
        return float(self.lam(t)) * x


@dataclass(frozen=True)
class Harmonic(Potential):
    """V(t, x) = lam(t) * x^2 with continuous lam."""

    lam: Callable[[float], float]
    lam_label: str = "lam"

    def label(self) -> str:
        return f"harmonic({self.lam_label})"

    def value(self, t: float, x: float) -> float:
        return float(self.lam(t)) * x * x


@dataclass(frozen=True)
class PoschlTeller(Potential):
    """V(x) = -l(l+1)/cosh^2(x), the reflectionless well of depth index l."""

    l: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("well index l must be a positive integer")

    def label(self) -> str:
        return f"poschl_teller(l={self.l})"

    def value(self, t: float, x: float) -> float:
        return -self.l * (self.l + 1) / np.cosh(x) ** 2


@dataclass(frozen=True)
class GreensKernel:
    """Immutable evaluator bundle realizing G = e^{i a (z-x)^2} gtilde.

    horizon         largest time usable for evolution (a(t) > 0 there)
    formula_horizon largest time where the kernel formula itself is valid
    growth          (t, x) -> (A0, B0) modulus witness |gtilde| <= A0 e^{B0 |z|}
    growth_imag     same but for the |Im z| exponent (all four potentials
                    admit one)
    """

    potential: Potential
    a: Callable[[float], float]
    gtilde: Callable[[float, float, np.ndarray], np.ndarray]
    horizon: float
    formula_horizon: float
    sector_angle: float
    pole_margin: float
    growth: Callable[[float, float], tuple[float, float]]
    growth_imag: Callable[[float, float], tuple[float, float]]
    coeffs: ElectricCoeffs | HarmonicCoeffs | None = None

    def check_time(self, t: float, *, evolution: bool = True):
        limit = self.horizon if evolution else self.formula_horizon
        if not 0.0 < t < limit:
            raise HorizonExceeded(
                f"t={t} outside (0, {limit}) for {self.potential.label()}"
            )

    def check_contour(self, shift: float):
        """Validate that the sector swept from the real axis to the line
        through ``shift`` keeps the excluded poles at the margin.

        The first pole +-i pi/2 enters the shifted double sector once
        |shift| tan(angle) reaches pi/2; crossing it would silently add a
        residue to the contour integral, so the clearance
        (pi/2) cos(angle) - |shift| sin(angle) must stay >= pole_margin.
        """
        if self.pole_margin <= 0.0:
            return
        clearance = (np.pi / 2) * np.cos(self.sector_angle) - abs(shift) * np.sin(
            self.sector_angle
        )
        if clearance < self.pole_margin:
            where = (f"comes within {clearance:.3f} of the pole set" if clearance >= 0.0
                     else f"has the pole set {-clearance:.3f} inside its swept sector")
            raise DomainMarginError(
                f"contour through {shift:g} at angle {self.sector_angle:.3f} "
                f"{where} (margin {self.pole_margin})"
            )


def greens_value(kernel: GreensKernel, t: float, x: float, z):
    """Full kernel value e^{i a(t) (z - x)^2} * gtilde(t, x, z)."""
    kernel.check_time(t, evolution=False)
    z = np.asarray(z, dtype=complex)
    val = np.exp(1j * kernel.a(t) * (z - x) ** 2) * kernel.gtilde(t, x, z)
    return complex(val) if val.ndim == 0 else val


def _free_kernel(angle: float) -> GreensKernel:
    def a(t):
        return 1.0 / (4.0 * t)

    def gtilde(t, x, z):
        z = np.asarray(z, dtype=complex)
        return np.full(z.shape, 1.0 / (2.0 * np.sqrt(np.pi * t) * ROOT_I))

    def growth(t, x):
        return 1.0 / (2.0 * np.sqrt(np.pi * t)), 0.0

    return GreensKernel(
        potential=Free(),
        a=a,
        gtilde=gtilde,
        horizon=np.inf,
        formula_horizon=np.inf,
        sector_angle=angle,
        pole_margin=0.0,
        growth=growth,
        growth_imag=growth,
    )


def _electric_kernel(potential: Electric, t_max: float, angle: float) -> GreensKernel:
    coeffs = solve_electric(potential.lam, t_max, tol=_ODE_TOL)

    def a(t):
        return 1.0 / (4.0 * t)

    def gtilde(t, x, z):
        z = np.asarray(z, dtype=complex)
        al, ap, be = coeffs.state(t)
        phase = be + x * (t * ap) + z * al
        return np.exp(1j * phase) / (2.0 * np.sqrt(np.pi * t) * ROOT_I)

    def growth(t, x):
        return 1.0 / (2.0 * np.sqrt(np.pi * t)), abs(coeffs.alpha(t))

    return GreensKernel(
        potential=potential,
        a=a,
        gtilde=gtilde,
        horizon=t_max,
        formula_horizon=t_max,
        sector_angle=angle,
        pole_margin=0.0,
        growth=growth,
        growth_imag=growth,
        coeffs=coeffs,
    )


def _harmonic_kernel(potential: Harmonic, t_max: float, angle: float) -> GreensKernel:
    coeffs = solve_harmonic(potential.lam, t_max, tol=_ODE_TOL)
    # evolution needs a = beta/(4 alpha) > 0: stop at the first zero of
    # either coefficient; the kernel formula itself only needs alpha > 0
    horizon = min(coeffs.horizon, coeffs.beta_horizon, t_max)
    formula_horizon = min(coeffs.horizon, t_max)

    def a(t):
        al, _, be, _ = coeffs.state(t)
        return be / (4.0 * al)

    def gtilde(t, x, z):
        z = np.asarray(z, dtype=complex)
        al, ap, be, _ = coeffs.state(t)
        expo = ((be - ap) * x * x + 2.0 * x * z * (1.0 - be)) / (4j * al)
        return np.exp(expo) / (2.0 * np.sqrt(np.pi * al) * ROOT_I)

    def growth(t, x):
        al, _, be, _ = coeffs.state(t)
        return 1.0 / (2.0 * np.sqrt(np.pi * al)), abs(x) * abs(1.0 - be) / (
            2.0 * al
        )

    return GreensKernel(
        potential=potential,
        a=a,
        gtilde=gtilde,
        horizon=horizon,
        formula_horizon=formula_horizon,
        sector_angle=angle,
        pole_margin=0.0,
        growth=growth,
        growth_imag=growth,
        coeffs=coeffs,
    )


def _pt_qbound_constants(l: int, angle: float):
    """Witness constants for the Legendre factors on the sector.

    For each order m the bound |Q_l^m(z)| <= A e^{B |z|} uses B = m + 1
    and A maximized over sector samples (the factors decay like
    e^{-m |Re z|}, so this is comfortably valid); sampled on rays at the
    sector edge and the real axis out to |z| = 12.
    """
    rr = np.linspace(0.0, 12.0, 241)
    samples = [rr.astype(complex), -rr.astype(complex)]
    for sgn in (1.0, -1.0):
        ray = rr * np.exp(1j * sgn * angle)
        samples += [ray, -ray]
    pts = np.concatenate(samples)
    consts = {}
    for m in range(1, l + 1):
        b = m + 1.0
        q = assoc_legendre_tanh(l, m, pts, pole_margin=_POLE_MARGIN)
        consts[m] = (float(np.max(np.abs(q) * np.exp(-b * np.abs(pts)))), b)
    return consts


def _pt_kernel(potential: PoschlTeller, angle: float) -> GreensKernel:
    l = potential.l
    if angle > np.pi / 3:
        raise ValueError("sech^2-well kernels keep the sector angle <= pi/3")
    qconsts = _pt_qbound_constants(l, angle)

    def a(t):
        return 1.0 / (4.0 * t)

    def gtilde(t, x, z):
        free = 1.0 / (2.0 * np.sqrt(np.pi * t) * ROOT_I)
        return free + np.asarray(pt_weighted_term(l, t, x, z, pole_margin=_POLE_MARGIN))

    def growth(t, x):
        a0 = 1.0 / (2.0 * np.sqrt(np.pi * t))
        b0 = 0.0
        for m in range(1, l + 1):
            am, bm = qconsts[m]
            lam_neg = float(erfcx(-m * np.sqrt(t) / np.sqrt(2.0)).real)
            a0 += (
                m
                * factorial(l - m)
                / factorial(l + m)
                * am
                * am
                * np.exp((m + bm) * abs(x))
                * lam_neg
            )
            b0 = max(b0, m + bm)
        return a0, b0

    def growth_imag(t, x):
        # Q decays like e^{-m |Re z|} while the kernel term grows like
        # e^{m |Re(z-x)|}: their product is bounded in Re z, so the
        # imag-exponent witness has rate 0 with an x-dependent amplitude
        a0, _ = growth(t, x)
        return a0, 0.0

    return GreensKernel(
        potential=potential,
        a=a,
        gtilde=gtilde,
        horizon=np.inf,
        formula_horizon=np.inf,
        sector_angle=angle,
        pole_margin=_POLE_MARGIN,
        growth=growth,
        growth_imag=growth_imag,
    )


def make_kernel(
    potential: Potential,
    *,
    t_max: float = 10.0,
    angle: float | None = None,
) -> GreensKernel:
    """Construct the kernel bundle for one potential.

    t_max bounds the coefficient solves for the field and oscillator
    potentials.  The sech^2 well defaults to a pi/8 sector so
    shifted contours through every |x| <= 3.5 keep clear of the cosh
    zeros; the others use pi/4.
    """
    if isinstance(potential, PoschlTeller):
        return _pt_kernel(potential, np.pi / 8 if angle is None else angle)
    angle = np.pi / 4 if angle is None else angle
    if isinstance(potential, Free):
        return _free_kernel(angle)
    if isinstance(potential, Electric):
        return _electric_kernel(potential, t_max, angle)
    if isinstance(potential, Harmonic):
        return _harmonic_kernel(potential, t_max, angle)
    raise TypeError(f"unsupported potential {potential!r}")


def pde_residual(
    kernel: GreensKernel,
    t: float,
    x: float,
    z: complex,
    refine: bool = False,
) -> float:
    """Relative Schrodinger residual |i dG/dt + d2G/dx2 - V G| / max(|G|, 1e-12).

    Central differences in t and x at fixed z, steps 1e-4 (the t step at
    most t/4); the result is dominated
    by the O(h^2) stencil error when the kernel is exact.  ``refine``
    adds a half-step evaluation and Richardson-extrapolates both
    derivatives, which pays off where the kernel phase rotates fast
    (small t or large |z - x|).
    """

    def stencil(ht, hx):
        g = lambda tt, xx: greens_value(kernel, tt, xx, z)
        g0 = g(t, x)
        dt = (g(t + ht, x) - g(t - ht, x)) / (2.0 * ht)
        dxx = (g(t, x + hx) - 2.0 * g0 + g(t, x - hx)) / (hx * hx)
        return g0, dt, dxx

    h_t, h_x = min(1e-4, 0.25 * t), 1e-4
    g0, dt, dxx = stencil(h_t, h_x)
    if refine:
        _, dt2, dxx2 = stencil(0.5 * h_t, 0.5 * h_x)
        dt = (4.0 * dt2 - dt) / 3.0
        dxx = (4.0 * dxx2 - dxx) / 3.0
    v = kernel.potential.value(t, x)
    res = abs(1j * dt + dxx - v * g0)
    return float(res / max(abs(g0), 1e-12))


@dataclass
class AuditCheck:
    name: str
    max_violation: float
    witness_point: tuple
    passed: bool


@dataclass
class KernelAuditReport:
    potential: str
    checks: list[AuditCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        def scalar(v):
            if isinstance(v, complex):
                return str(v)
            return float(v)

        return {
            "potential": self.potential,
            "checks": [
                {
                    "name": c.name,
                    "max_violation": float(c.max_violation),
                    "witness_point": [scalar(v) for v in c.witness_point],
                    "pass": bool(c.passed),
                }
                for c in self.checks
            ],
            "pass": bool(self.passed),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


_AUDIT_T = (0.05, 0.2, 0.5)
_AUDIT_X = (-1.5, 0.0, 0.8)


def _sector_samples(kernel: GreensKernel) -> np.ndarray:
    angs = np.array([0.0, 0.35, 0.7, 1.0]) * kernel.sector_angle
    pts = []
    for r in (0.5, 1.5, 3.0, 6.0):
        for s in (1.0, -1.0):
            pts.append(r * np.exp(1j * s * angs))
            pts.append(-r * np.exp(1j * s * angs))
    z = np.unique(np.concatenate(pts))
    if kernel.pole_margin > 0.0:
        z = z[pole_set_distance(z) > kernel.pole_margin + 0.05]
    return z


def audit_kernel(kernel: GreensKernel) -> KernelAuditReport:
    """Numerical audit of the kernel contract on sampled points.

    Checks, in order: the Schrodinger equation residual; positivity and
    blow-up of a(t) toward t = 0; the growth witness on sector samples;
    the small-time limit gtilde/sqrt(a) -> 1/sqrt(i pi); and exponential
    envelopes for the finite-difference derivatives of gtilde (fitted on
    half the samples, verified on the other half).  Envelope fitting is a
    sampled stand-in for the locally-integrable bound the derivation
    assumes; it certifies the sampled points only.  Samples: t in
    _AUDIT_T (capped at 0.6 of the horizon), x in _AUDIT_X, z on sector
    rays of radius 0.5 to 6.
    """
    report = KernelAuditReport(potential=kernel.potential.label())
    zs = _sector_samples(kernel)
    t_hi = min(kernel.horizon * 0.6, max(_AUDIT_T))
    ts = tuple(min(t, t_hi) for t in _AUDIT_T)

    # (1) PDE residual; moderate |z| and t bounded away from 0 keep the
    # finite-difference stencil inside its resolution budget
    worst, wpt = 0.0, ()
    z_pde = zs[np.abs(zs) <= 2.0]
    for t in ts:
        t = max(t, 0.15)
        if t >= kernel.formula_horizon:
            continue
        for x in _AUDIT_X:
            for z in z_pde[:: max(1, len(z_pde) // 8)]:
                r = pde_residual(kernel, t, x, complex(z), refine=True)
                if r > worst:
                    worst, wpt = r, (t, x, complex(z))
    report.checks.append(
        AuditCheck("pde_residual", worst, wpt, worst <= 1e-3)
    )

    # (2) a(t) > 0 and a -> inf toward 0+
    t_log = np.geomspace(1e-6, t_hi, 25)
    a_vals = np.array([kernel.a(t) for t in t_log])
    ok = bool(np.all(a_vals > 0.0) and np.all(np.diff(a_vals) < 0.0))
    ok = ok and a_vals[0] > 100.0 * a_vals[-1]
    report.checks.append(
        AuditCheck("gaussian_rate_blowup", 0.0 if ok else 1.0, (float(t_log[0]),), ok)
    )

    # (3) growth witness
    worst, wpt = 0.0, ()
    for t in ts:
        for x in _AUDIT_X:
            a0, b0 = kernel.growth(t, x)
            ratio = np.abs(kernel.gtilde(t, x, zs)) * np.exp(-b0 * np.abs(zs)) / a0
            i = int(np.argmax(ratio))
            if ratio[i] > worst:
                worst, wpt = float(ratio[i]), (t, x, complex(zs[i]))
    report.checks.append(
        AuditCheck("growth_witness", worst, wpt, worst <= 1.0 + 1e-6)
    )

    # (4) small-time limit of gtilde/sqrt(a)
    t0 = 1e-4
    z_small = zs[np.abs(zs) <= 3.0]
    worst, wpt = 0.0, ()
    for x in _AUDIT_X:
        dev = np.abs(
            kernel.gtilde(t0, x, z_small) / np.sqrt(kernel.a(t0)) - INV_SQRT_IPI
        )
        i = int(np.argmax(dev))
        if dev[i] > worst:
            worst, wpt = float(dev[i]), (t0, x, complex(z_small[i]))
    report.checks.append(
        AuditCheck("small_time_limit", worst, wpt, worst <= 1e-3)
    )

    # (5) derivative envelopes (sampled in place of integrable bounds):
    # per (t, x), fit A1 e^{B1 |z|} over all radii except one interior
    # radius per ray, then verify the held-out interpolation points
    h = 1e-5
    worst, wpt = 0.0, ()
    r_all = np.abs(zs)
    order = np.argsort(np.round(np.angle(zs), 6) + 1e-9 * r_all)
    held = np.zeros(len(zs), dtype=bool)
    angles = np.round(np.angle(zs[order]), 6)
    for ang in np.unique(angles):
        ray = order[angles == ang]
        if len(ray) >= 3:
            ray_sorted = ray[np.argsort(r_all[ray])]
            held[ray_sorted[len(ray_sorted) // 2]] = True
    fit_idx = np.where(~held)[0]
    chk_idx = np.where(held)[0]
    for t in ts:
        for x in _AUDIT_X:
            _, b0 = kernel.growth(t, x)
            b_grid = np.linspace(0.0, b0 + 3.0, 31)
            dx = (kernel.gtilde(t, x + h, zs) - kernel.gtilde(t, x - h, zs)) / (2 * h)
            dxx = (
                kernel.gtilde(t, x + h, zs)
                - 2 * kernel.gtilde(t, x, zs)
                + kernel.gtilde(t, x - h, zs)
            ) / (h * h)
            dt = (kernel.gtilde(t + h, x, zs) - kernel.gtilde(t - h, x, zs)) / (2 * h)
            for deriv in (dx, dxx, dt):
                mags = np.abs(deriv)
                amps = np.array(
                    [np.max(mags[fit_idx] * np.exp(-b * r_all[fit_idx])) for b in b_grid]
                )
                far = np.log(np.maximum(amps, 1e-300)) + b_grid * r_all.max()
                b1 = float(b_grid[int(np.argmin(far))])
                a1 = float(np.max(mags[fit_idx] * np.exp(-b1 * r_all[fit_idx])))
                ratio = mags[chk_idx] / np.maximum(
                    a1 * np.exp(b1 * r_all[chk_idx]), 1e-300
                )
                i = int(np.argmax(ratio))
                if ratio[i] > worst:
                    worst, wpt = float(ratio[i]), (t, x, complex(zs[chk_idx][i]))
    report.checks.append(
        AuditCheck("derivative_envelopes", worst, wpt, worst <= 2.0)
    )
    return report
