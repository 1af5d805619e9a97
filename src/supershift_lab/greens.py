"""Green's kernels for the four supported potentials.

Each kernel is stored in the split form G = e^{i a(t) (z - x)^2} * gtilde,
with a(t) -> +inf as t -> 0+ and gtilde exponentially bounded in z.  That
split is what the rotated-contour evaluation of the propagator integral
needs: along the line turned by an angle of the sign of a(t) the quadratic
factor is a Gaussian that dominates gtilde's linear-exponential growth.

Kernels:

* free particle            a = 1/(4t),   gtilde = 1/(2 sqrt(i pi t))
* quadratic V = lam2(t) x^2 + lam1(t) x: the uniform field (lam2 = 0), the
  oscillator (lam1 = 0) and the driven oscillator.  G = e^{i S}/(2
  sqrt(i pi alpha)) with S the classical action (``ode_coeff``):
  a = beta/(4 alpha),
  gtilde = e^{i [(alpha' - beta) x^2 + 2 (beta - 1) x z]/(4 alpha)
           + i (p x + q z + r)} / (2 sqrt(i pi alpha))
* sech^2 well (Poschl-Teller l)  a = 1/(4t), gtilde = free part + bound-state sum

The method needs only an estimate of gtilde, not its closed form: each
kernel states it as one modulus ``GrowthWitness`` per (t, x) (amplitude,
rate and linear frequency), the type every initial datum carries.  All
evaluators accept numpy arrays in z and are pure; construction may solve
coefficient ODEs but the returned kernel is immutable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyval

from .contour_quad import GrowthWitness, _sorted_distinct
from .errors import DomainMarginError, EvaluationOverflow, HorizonExceeded
# solve_electric, solve_harmonic, erfcx and assoc_legendre_tanh are not
# called here; bench/tracer.py patches them under these names
from .ode_coeff import (  # noqa: F401
    _zero,
    solve_electric,
    solve_harmonic,
    solve_quadratic,
)
from .special_fn import (  # noqa: F401
    ROOT_I,
    _POLE_MARGIN,
    _pt_orders,
    assoc_legendre_tanh,
    erfcx,
    pole_set_distance,
    pt_weighted_term,
)

INV_SQRT_IPI = 1.0 / (np.sqrt(np.pi) * ROOT_I)
# contour half-angles of the sech^2 well and of the other kernels (make_kernel)
_PT_SECTOR_ANGLE = np.pi / 8
_SECTOR_ANGLE = np.pi / 4


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
class Quadratic(Potential):
    """V(t, x) = lam2(t) * x^2 + lam1(t) * x with continuous lam2, lam1."""

    lam2: Callable[[float], float]
    lam1: Callable[[float], float]
    name: str

    def label(self) -> str:
        return self.name

    def value(self, t: float, x: float) -> float:
        return (float(self.lam2(t)) * x + float(self.lam1(t))) * x


class Electric(Quadratic):
    """V(t, x) = lam(t) * x: the uniform field."""

    def __init__(self, lam: Callable[[float], float], lam_label: str = "lam"):
        super().__init__(_zero, lam, f"electric({lam_label})")


class Harmonic(Quadratic):
    """V(t, x) = lam(t) * x^2: the oscillator."""

    def __init__(self, lam: Callable[[float], float], lam_label: str = "lam"):
        super().__init__(lam, _zero, f"harmonic({lam_label})")


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

    horizon         largest time where the kernel formula is valid: the first
                    zero of alpha for the quadratic kernels, where a(t) =
                    beta/(4 alpha) changes sign at the zeros of beta
    sector_angle    contour half-angle, fixed per potential (``make_kernel``),
                    signed like a(t); the witnesses hold on the sectors
                    ``contour_center`` admits
    pole_margin     least distance of a contour from the cosh zeros, the
                    sech^2 well's singular set (``pole_set_distance``); 0 for
                    the entire kernels, which have none
    growth          (t, x) -> the modulus ``GrowthWitness`` of gtilde:
                    |gtilde| <= A e^{B |z| - w Im z} with w the kernel's
                    linear frequency (gtilde is e^{i w z} times a bounded
                    factor)
    growth_imag     (t, x) -> (A0, B0) with |gtilde| <= A0 e^{B0 |Im z|}
                    (all four potentials admit one)
    """

    potential: Potential
    a: Callable[[float], float]
    gtilde: Callable[[float, float, np.ndarray], np.ndarray]
    horizon: float
    sector_angle: float
    pole_margin: float
    growth: Callable[[float, float], GrowthWitness]
    growth_imag: Callable[[float, float], tuple[float, float]]

    def check_time(self, t: float):
        if not 0.0 < t < self.horizon:
            raise HorizonExceeded(
                f"t={t} outside (0, {self.horizon}) for {self.potential.label()}"
            )

    def contour_center(self, x: float, stationary: float) -> float:
        """The real point the contour for target x passes through.

        The first pole +-i pi/2 enters the double sector swept from the
        real axis to the line through s once |s| tan(angle) reaches pi/2;
        crossing it would silently add a residue to the contour integral,
        so the clearance (pi/2) cos(angle) - |s| sin(angle) must stay >=
        pole_margin, that is |s| <= ``_center_limit``.  The center is
        ``stationary`` when it is admitted, else the admitted point
        nearest it on the segment back to x (the line through x is
        admitted wherever it was).  Raises DomainMarginError when no point
        of the segment is admitted.
        """
        if self.pole_margin <= 0.0:
            return stationary
        limit = _center_limit(self.sector_angle, self.pole_margin)
        clipped = min(max(stationary, -limit), limit)
        if min(x, stationary) <= clipped <= max(x, stationary):
            return clipped
        clearance = (np.pi / 2) * np.cos(self.sector_angle) - abs(stationary) * np.sin(
            self.sector_angle
        )
        where = (f"comes within {clearance:.3f} of the pole set" if clearance >= 0.0
                 else f"has the pole set {-clearance:.3f} inside its swept sector")
        raise DomainMarginError(
            f"contour through {stationary:g} at angle {self.sector_angle:.3f} "
            f"{where} (margin {self.pole_margin})"
        )


def _center_limit(angle: float, margin: float) -> float:
    """Largest |shift| whose contour at ``angle`` keeps the poles +-i pi/2
    (and their copies) at ``margin``."""
    return ((math.pi / 2) * math.cos(angle) - margin) / math.sin(angle)


def greens_value(kernel: GreensKernel, t: float, x: float, z):
    """Full kernel value e^{i a(t) (z - x)^2} * gtilde(t, x, z)."""
    kernel.check_time(t)
    z = np.asarray(z, dtype=complex)
    val = np.exp(1j * kernel.a(t) * (z - x) ** 2) * kernel.gtilde(t, x, z)
    return complex(val) if val.ndim == 0 else val


def _free_kernel() -> GreensKernel:
    def a(t):
        return 1.0 / (4.0 * t)

    def gtilde(t, x, z):
        z = np.asarray(z, dtype=complex)
        return np.full(z.shape, 1.0 / (2.0 * np.sqrt(np.pi * t) * ROOT_I))

    def growth_imag(t, x):
        return 1.0 / (2.0 * np.sqrt(np.pi * t)), 0.0

    return GreensKernel(
        potential=Free(),
        a=a,
        gtilde=gtilde,
        horizon=np.inf,
        sector_angle=_SECTOR_ANGLE,
        pole_margin=0.0,
        growth=lambda t, x: GrowthWitness(*growth_imag(t, x)),
        growth_imag=growth_imag,
    )


def _quadratic_kernel(potential: Quadratic, t_max: float) -> GreensKernel:
    coeffs = solve_quadratic(potential.lam2, potential.lam1, t_max)

    def a(t):
        al, _, be = coeffs.state(t)[:3]
        return be / (4.0 * al)

    def gtilde(t, x, z):
        z = np.asarray(z, dtype=complex)
        al, ap, be = coeffs.state(t)[:3]
        p, _, r = coeffs.phase(t)
        phase = (ap - be) * x * x / (4.0 * al) + p * x + r
        return np.exp(1j * (phase + freq(t, x) * z)) / (2.0 * np.sqrt(np.pi * al) * ROOT_I)

    def freq(t, x):
        al, _, be, _, xi = coeffs.state(t)[:5]
        return (x * (be - 1.0) + xi) / (2.0 * al)

    # the phase is real: gtilde is e^{i w z} times a factor of modulus
    # 1 / (2 sqrt(pi alpha)), so the modulus witness is exact with rate 0
    def growth(t, x):
        amp = 1.0 / (2.0 * np.sqrt(np.pi * coeffs.alpha(t)))
        return GrowthWitness(amp, 0.0, "modulus", freq(t, x))

    def growth_imag(t, x):
        g = growth(t, x)
        return g.amplitude, abs(g.freq)

    return GreensKernel(
        potential=potential,
        a=a,
        gtilde=gtilde,
        horizon=min(coeffs.horizon, t_max),
        sector_angle=_SECTOR_ANGLE,
        pole_margin=0.0,
        growth=growth,
        growth_imag=growth_imag,
    )


def _pt_sech_bound(angle: float) -> float:
    """Bound S on |2 / (1 + e^{-2 zeta z})| (zeta = sign Re z) and on
    |tanh z| over D = {|Im z| <= (|Re z| + s_max) tan(angle)}, the union of
    the double sectors of every contour ``contour_center`` admits (s_max
    the largest admitted |center|).

    With z = X + iY the first is e^{|X|} / |cosh z|, and |tanh z| =
    |1 - q| / |1 + q| <= 2 / |1 + q| (q = e^{-2 zeta z}, |q| <= 1) is at
    most the same.  On D, e^{-2|X|} |cosh z|^2 = e^{-2|X|} (sinh^2 X +
    cos^2 Y) >= L(X) = e^{-2|X|} (sinh^2 X + [Y_m < pi/2] cos^2 Y_m),
    Y_m = (|X| + s_max) tan(angle).  Past X_c, where Y_m reaches pi/2,
    L = ((1 - e^{-2X}) / 2)^2 increases; on [0, X_c] the slope of L is at
    most 9/4 + tan(angle), so its grid minimum less that slope times half
    the step bounds it.  S = 1 / sqrt(min L).
    """
    tan_a = np.tan(angle)
    s_max = _center_limit(angle, _POLE_MARGIN)
    xs = np.linspace(0.0, (np.pi / 2) / tan_a - s_max, 4097)
    e2 = np.exp(-2.0 * xs)
    lows = 0.25 * (1.0 - e2) ** 2 + e2 * np.cos((xs + s_max) * tan_a) ** 2
    low = lows.min() - (2.25 + tan_a) * 0.5 * (xs[1] - xs[0])
    return 1.0 / np.sqrt(min(low, 0.25 * (1.0 - e2[-1]) ** 2))


def _pt_kernel(potential: PoschlTeller) -> GreensKernel:
    """The sech^2-well kernel with witnesses derived from its closed form.

    gtilde = free part + sum_m c_m Q_l^m(x) Q_l^m(z) R_m(z - x)
    (``pt_weighted_term``).  With p = |Re(z - x)|, each R_m is
    e^{m p} erfcx(xi_1) - e^{-m p} erfcx(xi_2), and |erfcx| <= 1 on the
    closed right half-plane, <= 1 + 2 |e^{xi^2}| left of it.  Where
    Re xi_1 < 0 or Re xi_2 < 0 the e^{xi^2} terms contribute
    2 e^{Im((z-x)^2) / (4t)}, which is at most 2 e^{m^2 t / 2} (at most 2
    for xi_2), and at most 2 e^{m |Im z|} as well.  Q_l^m(z) =
    sech^m(z) P_l^(m)(tanh z) carries e^{-m |Re z|}, which cancels the
    e^{m p} growth to e^{m |x|}:

    * modulus witness, rate 0 and frequency 0 on D (``_pt_sech_bound``):
      |Q_l^m(z)| e^{m |Re z|} <= S^m sum_k |a_k| S^k (a_k the coefficients
      of P_l^(m)), times e^{m|x|} + e^{-m|x|} + 2 e^{m^2 t/2} + 2;
    * imag witness: for |Im z| <= pi/4, Re(1 + e^{-2 zeta z}) >= 1 bounds
      the sech factor by 2 and |tanh z| by 1; beyond, S <= e^{b pi/4} with
      b = (4/pi) log S.  So |Q_l^m(z)| e^{m |Re z|} <= 2^m sum_k |a_k|
      e^{b l |Im z|}, times (e^{m|x|} + e^{-m|x|} + 4) e^{m |Im z|}:
      the rate is l (b + 1) and the amplitude is tight on the real line.

    Its singular set, the cosh zeros (``pole_set_distance``), goes with the
    integrand to the rotated route, which grades its seed toward it.
    """
    l = potential.l
    sech = _pt_sech_bound(_PT_SECTOR_ANGLE)
    coeffs, weights = _pt_orders(l)
    orders = []
    for m in range(1, l + 1):
        poly_c = tuple(float(c) for c in coeffs[m - 1])
        abs_p = np.abs(coeffs[m - 1])
        q_sector = sech**m * float(polyval(sech, abs_p))
        q_strip = 2.0**m * float(abs_p.sum())
        orders.append((m, float(weights[m - 1]), poly_c, q_sector, q_strip))
    rate_imag = l * (4.0 / np.pi * np.log(sech) + 1.0)

    def a(t):
        return 1.0 / (4.0 * t)

    def gtilde(t, x, z):
        free = 1.0 / (2.0 * np.sqrt(np.pi * t) * ROOT_I)
        return free + np.asarray(pt_weighted_term(l, t, x, z))

    def bound_sum(t, x, imag):
        # c_m |Q_l^m(x)| e^{m|x|} = c_m |P_l^(m)(tanh x)| (2 / (1 + r^2))^m,
        # r = e^{-|x|}, so every factor stays in range for any x
        th, r = math.tanh(x), math.exp(-abs(x))
        total = 0.0
        for m, c_m, poly_c, q_sector, q_strip in orders:
            poly = 0.0
            for coef in reversed(poly_c):
                poly = poly * th + coef
            qx = c_m * abs(poly) * (2.0 / (1.0 + r * r)) ** m
            rm = r**m
            if imag:
                total += qx * q_strip * (1.0 + rm * rm + 4.0 * rm)
            else:
                try:
                    hump = 2.0 * math.exp(0.5 * m * m * t) + 2.0
                except OverflowError:
                    raise EvaluationOverflow(f"sech^2 witness overflows at t={t:g}") from None
                total += qx * q_sector * (1.0 + rm * rm + hump * rm)
        return 1.0 / (2.0 * math.sqrt(math.pi * t)) + total

    def growth(t, x):
        return GrowthWitness(bound_sum(t, x, False), 0.0)

    def growth_imag(t, x):
        return bound_sum(t, x, True), rate_imag

    return GreensKernel(
        potential=potential,
        a=a,
        gtilde=gtilde,
        horizon=np.inf,
        sector_angle=_PT_SECTOR_ANGLE,
        pole_margin=_POLE_MARGIN,
        growth=growth,
        growth_imag=growth_imag,
    )


def make_kernel(potential: Potential, *, t_max: float = 10.0) -> GreensKernel:
    """Construct the kernel bundle for one potential.

    t_max bounds the coefficient solve of the quadratic potentials.  The
    contour angle is fixed per potential: pi/8 for the sech^2 well, so
    contours through every |center| <= 3.53 keep clear of the cosh zeros,
    and pi/4, the fastest Gaussian decay, for the others.
    """
    if isinstance(potential, PoschlTeller):
        return _pt_kernel(potential)
    if isinstance(potential, Free):
        return _free_kernel()
    if isinstance(potential, Quadratic):
        return _quadratic_kernel(potential, t_max)
    raise TypeError(f"unsupported potential {potential!r}")


def pde_residual(kernel: GreensKernel, t: float, x: float, z: complex) -> float:
    """Relative Schrodinger residual |i dG/dt + d2G/dx2 - V G| / max(|G|, 1e-12).

    Central differences in t and x at fixed z, steps 1e-4 (the t step at
    most t/4) and their halves, Richardson-extrapolated, so that the
    stencil stays accurate where the kernel phase rotates fast (small t
    or large |z - x|); the result measures the stencil's truncation and
    rounding error when the kernel is exact.
    """

    def stencil(ht, hx):
        g = lambda tt, xx: greens_value(kernel, tt, xx, z)
        g0 = g(t, x)
        dt = (g(t + ht, x) - g(t - ht, x)) / (2.0 * ht)
        dxx = (g(t, x + hx) - 2.0 * g0 + g(t, x - hx)) / (hx * hx)
        return g0, dt, dxx

    h_t, h_x = min(1e-4, 0.25 * t), 1e-4
    g0, dt, dxx = stencil(h_t, h_x)
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

    def to_json(self) -> str:
        def scalar(v):
            return str(v) if isinstance(v, complex) else float(v)

        checks = [
            {
                "name": c.name,
                "max_violation": float(c.max_violation),
                "witness_point": [scalar(v) for v in c.witness_point],
                "pass": bool(c.passed),
            }
            for c in self.checks
        ]
        doc = {"potential": self.potential, "checks": checks, "pass": bool(self.passed)}
        return json.dumps(doc, indent=2)


_AUDIT_T = (0.05, 0.2, 0.5)
_AUDIT_X = (-1.5, 0.0, 0.8)
# radii of the growth-witness samples, past the largest truncation radius
# of the plane-wave benchmark grids (21 at tol 1e-9); the other checks
# keep to radius 6
_AUDIT_RADII = (0.5, 1.5, 3.0, 6.0, 12.0, 24.0, 45.0, 60.0)


def _sector_samples(kernel: GreensKernel, radii=_AUDIT_RADII[:4]) -> np.ndarray:
    angs = np.array([0.0, 0.35, 0.7, 1.0]) * kernel.sector_angle
    pts = []
    for r in radii:
        for s in (1.0, -1.0):
            pts.append(r * np.exp(1j * s * angs))
            pts.append(-r * np.exp(1j * s * angs))
    z = _sorted_distinct(np.concatenate(pts))
    if kernel.pole_margin > 0.0:
        z = z[pole_set_distance(z) > kernel.pole_margin + 0.05]
    return z


def audit_kernel(kernel: GreensKernel) -> KernelAuditReport:
    """Numerical audit of the kernel contract on sampled points.

    Checks, in order: the Schrodinger equation residual; the fall of a(t)
    from its blow-up toward t = 0; the growth witness on sector samples;
    the small-time limit gtilde/sqrt(a) -> 1/sqrt(i pi), followed down
    from t = 1e-4 to 1e-6; and exponential
    envelopes for the finite-difference derivatives of gtilde (fitted on
    half the samples, verified on the other half).  Envelope fitting is a
    sampled stand-in for the locally-integrable bound the derivation
    assumes; it certifies the sampled points only.  Samples: t in
    _AUDIT_T (capped at 0.6 of the horizon), x in _AUDIT_X, z on sector
    rays of radius 0.5 to 6, and to 60 (_AUDIT_RADII) for the growth
    witness |gtilde| <= A e^{B |z| - w Im z}.
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
        t = max(t, min(0.15, t_hi))
        for x in _AUDIT_X:
            for z in z_pde[:: max(1, len(z_pde) // 8)]:
                r = pde_residual(kernel, t, x, complex(z))
                if r > worst:
                    worst, wpt = r, (t, x, complex(z))
    report.checks.append(
        AuditCheck("pde_residual", worst, wpt, worst <= 1e-3)
    )

    # (2) a(t) falls from +inf at 0+ (past a focal time it turns negative)
    t_log = np.geomspace(1e-6, t_hi, 25)
    a_vals = np.array([kernel.a(t) for t in t_log])
    ok = bool(a_vals[0] > 0.0 and np.all(np.diff(a_vals) < 0.0))
    ok = ok and a_vals[0] > 100.0 * a_vals[-1]
    report.checks.append(
        AuditCheck("gaussian_rate_blowup", 0.0 if ok else 1.0, (float(t_log[0]),), ok)
    )

    # (3) growth witness
    worst, wpt = 0.0, ()
    z_far = _sector_samples(kernel, _AUDIT_RADII)
    for t in ts:
        for x in _AUDIT_X:
            g = kernel.growth(t, x)
            ratio = (
                np.abs(kernel.gtilde(t, x, z_far))
                * np.exp(g.freq * z_far.imag - g.rate * np.abs(z_far)) / g.amplitude
            )
            i = int(np.argmax(ratio))
            if ratio[i] > worst:
                worst, wpt = float(ratio[i]), (t, x, complex(z_far[i]))
    report.checks.append(
        AuditCheck("growth_witness", worst, wpt, worst <= 1.0 + 1e-6)
    )

    # (4) small-time limit of gtilde/sqrt(a): the deviation is O(t) with a
    # constant that grows with the potential, so the limit itself is
    # checked: at most 1e-3 at t = 1e-6, and each decade from 1e-4 down at
    # least 5 times lower unless it is at rounding (1e-12)
    z_small = zs[np.abs(zs) <= 3.0]
    devs = []
    for t0 in (1e-4, 1e-5, 1e-6):
        worst, wpt = 0.0, ()
        for x in _AUDIT_X:
            dev = np.abs(
                kernel.gtilde(t0, x, z_small) / np.sqrt(kernel.a(t0)) - INV_SQRT_IPI
            )
            i = int(np.argmax(dev))
            if dev[i] > worst:
                worst, wpt = float(dev[i]), (t0, x, complex(z_small[i]))
        devs.append(worst)
    ok = worst <= 1e-3 and all(
        later <= max(0.2 * earlier, 1e-12) for earlier, later in zip(devs, devs[1:])
    )
    report.checks.append(AuditCheck("small_time_limit", worst, wpt, ok))

    # (5) derivative envelopes (sampled in place of integrable bounds):
    # per (t, x), fit A1 e^{B1 |z|} over all radii except one interior
    # radius per ray, then verify the held-out interpolation points
    h = 1e-5
    worst, wpt = 0.0, ()
    r_all = np.abs(zs)
    held = np.zeros(len(zs), dtype=bool)
    angles = np.round(np.angle(zs), 6)
    for ang in _sorted_distinct(angles):
        ray = np.flatnonzero(angles == ang)
        if len(ray) >= 3:
            held[ray[np.argsort(r_all[ray])[len(ray) // 2]]] = True
    fit_idx = np.where(~held)[0]
    chk_idx = np.where(held)[0]
    for t in ts:
        for x in _AUDIT_X:
            g = kernel.growth(t, x)
            b_grid = np.linspace(0.0, g.rate + abs(g.freq) + 3.0, 31)
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
