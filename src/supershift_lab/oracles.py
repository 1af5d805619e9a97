"""References the lab's numbers are checked against.

Closed-form solutions of i dPsi/dt + d2Psi/dx2 - V Psi = 0 for plane-wave
and Jost data, the expanded superoscillation sum at extended precision,
and closed-form identities of the sech^2-well kernel.  The run path uses
only ``free_plane`` (the ``verify`` command's closed-form check); the rest
serves the tests.  mpmath is imported inside the functions that sum at
extended precision, so importing this module loads none of it.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from . import evolve
from .contour_quad import GrowthWitness
from .errors import EvaluationOverflow, PrecisionExhausted
from .greens import GreensKernel
from .initial_data import HolomorphicSignal, plane_wave
from .special_fn import _EXP_LIMIT, ROOT_I, assoc_legendre_tanh, erfcx

_MAX_DPS = 20000

# |tanh z| <= JOST_TANH_BOUND on every double sector of half-angle pi/8
# (the sech^2 well's contour angle) around a real point |x| <= JOST_X_MAX;
# beyond |Re z| >= 3 the bound coth 3 < 1.01 holds analytically
JOST_TANH_BOUND = 2.0
JOST_X_MAX = 2.5
# (-i)^n for n mod 4
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])


def free_plane(t, x, kappa):
    """Free plane wave e^{i kappa x - i kappa^2 t}."""
    return np.exp(1j * kappa * x - 1j * kappa**2 * t)


def electric_plane(t, x, kappa):
    """Constant unit field V = x: e^{i beta + i x t alpha'} e^{i (k+alpha) x - i (k+alpha)^2 t}
    with alpha = -t/2, t alpha' = -t/2, beta = -t^3/12."""
    al, t_ap, beta = -t / 2, -t / 2, -(t**3) / 12
    return np.exp(1j * (beta + x * t_ap) + 1j * (kappa + al) * x - 1j * (kappa + al) ** 2 * t)


def harmonic_plane(t, x, kappa):
    """Unit oscillator V = x^2:

        (-i)^n |beta|^{-1/2} exp(i [kappa x - (x^2 + kappa^2) alpha] / beta)

    with alpha = sin(2t)/2 and beta = cos(2t), by a Gaussian square
    completion; it reduces to the free form as t -> 0.  beta^{-1/2} is
    continued in t: n counts the zeros of beta passed, the focal times
    pi/4 + k pi/2, each a factor -i.  Past a caustic k pi/2, where the
    kernel tends to a point evaluation, the wave is smooth.
    """
    al, be = np.sin(2 * t) / 2, np.cos(2 * t)
    n = np.floor(2 * t / np.pi + 0.5).astype(int) % 4
    phase = (kappa * x - (x * x + kappa * kappa) * al) / be
    return _MINUS_I_POWERS[n] * np.exp(1j * phase) / np.sqrt(np.abs(be))


def driven_plane(t, x, kappa, e):
    """V = x^2 + E x, the unit oscillator about -s, s = E/2, with the
    energy shifted by -E^2/4 (``harmonic_plane``)."""
    s = e / 2
    return np.exp(1j * e * e * t / 4 - 1j * kappa * s) * harmonic_plane(t, x + s, kappa)


def jost_datum(l: int, kappa, z):
    """Poschl-Teller Jost solution psi_kappa(z) = P_l(tanh z) e^{i kappa z},
    with -psi'' - l(l+1) sech^2(z) psi = kappa^2 psi:

        P_1(w) = w - i kappa,   P_2(w) = 3 w^2 - 3 i kappa w - 1 - kappa^2.
    """
    th = np.tanh(np.asarray(z, dtype=complex))
    if l == 1:
        poly = th - 1j * kappa
    elif l == 2:
        poly = 3.0 * th * th - 3j * kappa * th - 1.0 - kappa * kappa
    else:
        raise ValueError("Jost solutions are given for l = 1, 2 only")
    return poly * np.exp(1j * kappa * z)


def jost_wave(l: int, t, x, kappa):
    """The Jost datum's wave e^{-i kappa^2 t} psi_kappa(x)."""
    return np.exp(-1j * kappa**2 * t) * jost_datum(l, kappa, x)


def jost_signal(l: int, kappa) -> HolomorphicSignal:
    """The Jost datum as a signal for grids with |x| <= JOST_X_MAX.

    Witness: |e^{i kappa z}| <= e^{|kappa| |z|}, and on the sech^2 well's
    swept sectors around such x, |tanh z| <= JOST_TANH_BOUND bounds
    |P_l(tanh z)| term by term.
    """
    b, k = JOST_TANH_BOUND, abs(kappa)
    amp = b + k if l == 1 else 3.0 * b**2 + 3.0 * k * b + 1.0 + k * k
    return HolomorphicSignal(
        eval=lambda z: jost_datum(l, kappa, z),
        growth=GrowthWitness(amp, k),
        label=f"jost:l={l},k={kappa:g}",
    )


def _coeff_dps(n: int, k: complex, extra: int = 35) -> int:
    """Working digits: coefficient mass ((|1+k|+|1-k|)/2)^n plus guard."""
    scale = 0.5 * (abs(1 + k) + abs(1 - k))
    dps = int(np.ceil(n * np.log10(max(scale, 2.0)))) + extra
    if dps > _MAX_DPS:
        raise PrecisionExhausted(
            f"superoscillation order n={n}, k={k} needs ~{dps} digits"
        )
    return dps


def superosc_coefficients(n: int, k: complex) -> list:
    """Extended-precision coefficients C_l; their plain sum is exactly 1."""
    import mpmath as mp

    if n < 1:
        raise ValueError("order n must be >= 1")
    k = complex(k)
    with mp.workdps(_coeff_dps(n, k)):
        km = mp.mpf(k.real) if k.imag == 0.0 else mp.mpc(k.real, k.imag)
        p = (1 + km) / 2
        q = (1 - km) / 2
        return [mp.binomial(n, l) * p ** (n - l) * q**l for l in range(n + 1)]


def superosc_frequencies(n: int) -> np.ndarray:
    """Unit-bounded frequencies 1 - 2l/n; endpoints exactly +-1."""
    return 1.0 - 2.0 * np.arange(n + 1) / n


def superosc_value(n: int, k: complex, z: complex) -> complex:
    """F_n(z; k) summed at extended precision, rounded once at the end.

    The working precision absorbs both the coefficient mass and the
    e^{|Im z|} factor of the exponentials; the residual condition number
    is checked after summation and bumps the precision if the first pass
    was too coarse.
    """
    import mpmath as mp

    z = complex(z)
    dps = _coeff_dps(n, complex(k)) + int(0.44 * abs(z.imag)) + 10
    for attempt in range(3):
        # the coefficients are recomputed at each working precision
        with mp.workdps(dps):
            cs = superosc_coefficients(n, k)
            zm = mp.mpc(z.real, z.imag)
            # e^{i k_l z} by recurrence: e^{iz} (e^{-2iz/n})^l
            e = mp.expj(zm)
            step = mp.expj(-2 * zm / n)
            total = mp.mpf(0)
            mass = mp.mpf(0)
            for c in cs:
                term = c * e
                total += term
                mass += abs(term)
                e = e * step
            if total == 0:
                return 0j
            cond = mass / abs(total)
            needed = mp.log10(cond) + 18
            if dps >= needed:
                return complex(total)
        dps = int(needed) + 25
        if dps > _MAX_DPS:
            break
    raise PrecisionExhausted(
        f"cancellation in F_{n}(z; k={k}) at z={z} exceeds the precision budget"
    )


def superosc_value_float64(n: int, k: float, z: complex) -> complex:
    """Same sum in plain doubles; fails by catastrophic cancellation for
    moderate n (kept as the counterexample the extended path exists for)."""
    ls = np.arange(n + 1)
    c = np.array(
        [comb(n, int(l)) * ((1 + k) / 2) ** (n - l) * ((1 - k) / 2) ** l for l in ls]
    )
    return complex(np.sum(c * np.exp(1j * (1 - 2 * ls / n) * z)))


def supershift_combination_direct(
    kernel: GreensKernel,
    n: int,
    kappa: complex,
    t: float,
    x: float,
    tol: float = 1e-10,
) -> complex:
    """Result-level combination sum_l C_l Psi(t, x; e^{i k_l .}).

    Per-frequency wave values are computed in doubles and combined in
    extended precision, so rounding is amplified by sum|C_l|; useful only
    while n log(k) stays small.  Cross-checks the product form that
    ``supershift_experiment`` integrates (``superosc_signal``: the base
    from real cos, sin, cosh and sinh passes, raised to the n-th power).
    """
    import mpmath as mp

    coeffs = superosc_coefficients(n, kappa)
    vals = [
        evolve.wavefunction(kernel, plane_wave(1.0 - 2.0 * l / n), t, x, tol)
        for l in range(n + 1)
    ]
    with mp.workdps(int(n * np.log10(max(2.0, abs(complex(kappa)))) + 40)):
        total = mp.mpf(0)
        for c, v in zip(coeffs, vals):
            total += c * mp.mpc(v.real, v.imag)
        return complex(total)


def pt_kernel_term(t, z):
    """Two-sided kernel factor of the sech^2-well propagator.

    For t > 0 and complex z returns

        e^{z} L(z/(2 sqrt(it)) - sqrt(it)) - e^{-z} L(z/(2 sqrt(it)) + sqrt(it))

    with L the scaled complementary error function and sqrt(it) on the
    principal branch.  Even in z; behaves like
    4 sinh(z) sqrt(it) / (z sqrt(pi)) as t -> 0+.
    """
    if t <= 0:
        raise ValueError("pt_kernel_term requires t > 0")
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z.real) > _EXP_LIMIT):
        raise EvaluationOverflow("pt_kernel_term: exp(+-z) overflows")
    # the function is even in z; canonicalizing to Re z >= 0 keeps both
    # erfcx arguments out of the regime where their reflection terms are
    # astronomically large and cancel only in exact arithmetic
    z = np.where(z.real < 0.0, -z, z)
    s = np.sqrt(t) * ROOT_I
    u = z / (2.0 * s)
    res = np.exp(z) * erfcx(u - s) - np.exp(-z) * erfcx(u + s)
    return complex(res) if res.ndim == 0 else res


def pt_kernel_term_derivatives(t, z):
    """z- and t-derivatives of pt_kernel_term in closed form.

    Returns the pair (d/dz, d/dt).  Both follow from differentiating the
    defining expression and eliminating the erfcx derivatives:

        d/dz = z R / (2it) - 2 sinh(z) / sqrt(i pi t)
        d/dt = i (1 + z^2/(4 t^2)) R + z sinh(z) / (t sqrt(i pi t))
               + 2 i cosh(z) / sqrt(i pi t)
    """
    z = np.asarray(z, dtype=complex)
    r = pt_kernel_term(t, z)
    root_ipt = np.sqrt(np.pi * t) * ROOT_I
    dz = z * r / (2j * t) - 2.0 * np.sinh(z) / root_ipt
    dt = (
        1j * (1.0 + z * z / (4.0 * t * t)) * r
        + z * np.sinh(z) / (t * root_ipt)
        + 2j * np.cosh(z) / root_ipt
    )
    if np.ndim(dz) == 0:
        return complex(dz), complex(dt)
    return dz, dt


def legendre_sum_residual(l: int, x, z) -> float:
    """Residual of the sinh-weighted product-sum identity.

    |sum_{m=1}^{l} m (l-m)!/(l+m)! Q_l^m(z) sinh(m(z-x)) Q_l^m(x)
     - l(l+1)/4 (tanh z - tanh x)|

    with Q_l^m = assoc_legendre_tanh; identically zero in exact
    arithmetic, so the return value measures evaluation error only.
    """
    x = complex(x)
    z = complex(z)
    lhs = 0.0 + 0.0j
    for m in range(1, l + 1):
        w = m * factorial(l - m) / factorial(l + m)
        lhs += (
            w
            * assoc_legendre_tanh(l, m, z)
            * np.sinh(m * (z - x))
            * assoc_legendre_tanh(l, m, x)
        )
    rhs = l * (l + 1) / 4.0 * (np.tanh(z) - np.tanh(x))
    return abs(lhs - rhs)
