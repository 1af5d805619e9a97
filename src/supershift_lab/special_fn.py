"""Complex error-function machinery and sech-well propagator factors.

Provides the scaled complementary error function and complex erf, the
two-sided exponential kernel term used by the reflectionless sech^2-well
propagator, and associated Legendre factors evaluated on tanh.  All
functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import special

from .errors import DomainMarginError, EvaluationOverflow

SQRT_PI = float(np.sqrt(np.pi))
ROOT_I = complex(np.cos(np.pi / 4), np.sin(np.pi / 4))  # principal sqrt(i)

# log of the largest double; exponents beyond this overflow
_EXP_LIMIT = 709.0


def _finite(out, what: str):
    """Return a ufunc result (a Python complex for scalars), or raise if not finite."""
    if not (np.isfinite(out).all() if out.ndim else cmath.isfinite(out)):
        raise EvaluationOverflow(f"{what} evaluation produced a non-finite value")
    return out if out.ndim else complex(out)


def erfcx(z):
    """Scaled complementary error function e^{z^2} erfc(z) for complex z.

    scipy's Faddeeva-based erfcx never forms e^{z^2} and erfc separately,
    so no spurious overflow occurs where the result is representable.
    Raises EvaluationOverflow where it is not (Re(z^2) beyond ~709 with
    Re z < 0).
    """
    return _finite(special.erfcx(np.asarray(z, dtype=complex)), "erfcx")


def erf_complex(z):
    """Error function on the complex plane (scipy's Faddeeva-based erf).

    Raises EvaluationOverflow where |erf z| leaves the double range.
    """
    return _finite(special.erf(np.asarray(z, dtype=complex)), "erf")


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


def pt_weighted_term(l: int, m: int, t: float, x: float, z, *, pole_margin: float = 0.1):
    """Overflow-free product  Q_l^m(z) * R(m^2 t, m(z - x)).

    R alone grows like e^{m |Re(z-x)|} and overflows doubles on wide
    integration windows, while the Legendre factor decays like
    e^{-m |Re z|}; combining the exponents keeps the product, which is
    bounded by ~e^{m |x|} / |z|, representable everywhere.  Uses the
    evenness of the kernel term and the expansion
    sech^m(z) = 2^m e^{-m s z} (1 + e^{-2 s z})^{-m} on the decaying side
    s = sign(Re z).
    """
    if t <= 0:
        raise ValueError("pt_weighted_term requires t > 0")
    z = np.asarray(z, dtype=complex)
    if np.any(pole_set_distance(z) <= pole_margin):
        raise DomainMarginError(
            f"argument within margin {pole_margin} of a cosh zero"
        )
    # canonical side for the kernel term (evenness) and the sech expansion
    eta = np.where((z - x).real >= 0.0, 1.0, -1.0)
    zeta = np.where(z.real >= 0.0, 1.0, -1.0)
    w = m * eta * (z - x)
    s = m * (np.sqrt(t) * ROOT_I)
    u = w / (2.0 * s)
    lam1 = erfcx(u - s)
    lam2 = erfcx(u + s)
    e1 = w - m * zeta * z
    e2 = -w - m * zeta * z
    if np.any(e1.real > _EXP_LIMIT):
        raise EvaluationOverflow("pt_weighted_term: residual exponent overflows")
    acc = polyval(np.tanh(z), _legendre_deriv_coeffs(l, m))
    sech_rest = (2.0 / (1.0 + np.exp(-2.0 * zeta * z))) ** m
    res = (
        (-1.0) ** m
        * acc
        * sech_rest
        * (np.exp(e1) * lam1 - np.exp(np.maximum(e2.real, -745.0) + 1j * e2.imag) * lam2)
    )
    return complex(res) if res.ndim == 0 else res


@lru_cache(maxsize=None)
def _legendre_poly_coeffs(l: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the degree-l Legendre polynomial, exact."""
    if l == 0:
        return (Fraction(1),)
    if l == 1:
        return (Fraction(0), Fraction(1))
    pm2 = _legendre_poly_coeffs(l - 2)
    pm1 = _legendre_poly_coeffs(l - 1)
    out = [Fraction(0)] * (l + 1)
    for i, c in enumerate(pm1):
        out[i + 1] += Fraction(2 * l - 1, l) * c
    for i, c in enumerate(pm2):
        out[i] -= Fraction(l - 1, l) * c
    return tuple(out)


@lru_cache(maxsize=None)
def _legendre_deriv_coeffs(l: int, m: int) -> tuple[float, ...]:
    """m-th derivative of the Legendre polynomial, ascending coefficients."""
    coeffs = list(_legendre_poly_coeffs(l))
    for _ in range(m):
        coeffs = [k * c for k, c in enumerate(coeffs)][1:]
        if not coeffs:
            coeffs = [Fraction(0)]
    return tuple(float(c) for c in coeffs)


def pole_set_distance(z):
    """Distance from z to the cosh zero set {i pi (k + 1/2), k integer}."""
    z = np.asarray(z, dtype=complex)
    k = np.round(z.imag / np.pi - 0.5)
    dist = np.inf * np.ones(z.shape)
    for kk in (k - 1, k, k + 1):
        p = np.pi * (kk + 0.5)
        dist = np.minimum(dist, np.hypot(z.real, z.imag - p))
    return float(dist) if dist.ndim == 0 else dist


def assoc_legendre_tanh(l: int, m: int, z, *, pole_margin: float = 0.1):
    """Associated Legendre factor on the tanh line: P_l^m(tanh z).

    Uses the sech^m * (polynomial in tanh) form, which continues
    analytically off the real axis without square-root branch issues.
    Adopts the Condon-Shortley phase, so l = m = 1 gives -sech(z).

    Raises DomainMarginError when z is within pole_margin of a zero of
    cosh (the poles i pi (Z + 1/2)).
    """
    if not (1 <= m <= l):
        raise ValueError("assoc_legendre_tanh requires 1 <= m <= l")
    z = np.asarray(z, dtype=complex)
    if np.any(pole_set_distance(z) <= pole_margin):
        raise DomainMarginError(
            f"argument within margin {pole_margin} of a cosh zero"
        )
    acc = polyval(np.tanh(z), _legendre_deriv_coeffs(l, m))
    res = (-1.0) ** m * np.cosh(z) ** (-m) * acc
    return complex(res) if res.ndim == 0 else res


def legendre_sum_residual(l: int, x, z, *, pole_margin: float = 0.1) -> float:
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
            * assoc_legendre_tanh(l, m, z, pole_margin=pole_margin)
            * np.sinh(m * (z - x))
            * assoc_legendre_tanh(l, m, x, pole_margin=pole_margin)
        )
    rhs = l * (l + 1) / 4.0 * (np.tanh(z) - np.tanh(x))
    return abs(lhs - rhs)
