"""Complex error-function machinery and sech-well propagator factors.

Provides the scaled complementary error function, the bound-state sum
of the reflectionless sech^2-well propagator, and associated Legendre
factors evaluated on tanh.  All functions accept scalars or numpy arrays
and are pure.

The scaled error function rests on one numpy kernel, Weideman's rational
approximation of the Faddeeva function (J. A. C. Weideman, "Computation
of the complex error function", SIAM J. Numer. Anal. 31 (1994)
1497-1518), with N = 40 terms.  Its degree-39 polynomial is evaluated in
the Paterson-Stockmeyer form (M. S. Paterson and L. J. Stockmeyer, SIAM
J. Comput. 2 (1973) 60-66): five blocks of degree 7 from one real
matrix product with the powers Z^0 ... Z^7, then Horner in Z^8, about 20
array operations per call instead of 78.  On the right half-plane its
relative error against 40-digit mpmath is at most 7.5e-16 on 400 random
points with Re z <= 8, |Im z| <= 8, 2.9e-16 on 300 with |z| from 25 to
1e6, and 1.1e-15 on a log-polar sweep with |z| from 1e-3 to 1e6 (plain
Horner: 6.8e-16, 2.9e-16 and 1.1e-15; scipy's Faddeeva package: 1.3e-14,
5.9e-15 and 8.3e-15 on the same kinds of points).  It runs in blocks of
_BLOCK points, which bounds its largest temporary, the power table.

The sech^2-well sum ``pt_weighted_term`` takes both exponential factors of
every order from the one e^{-2 zeta z} that its sech and tanh need, so its
only exponentials over the nodes are that one and the erfcx passes.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DomainMarginError, EvaluationOverflow

SQRT_PI = float(np.sqrt(np.pi))
ROOT_I = complex(np.cos(np.pi / 4), np.sin(np.pi / 4))  # principal sqrt(i)
_POLE_MARGIN = 0.1  # least distance of a sech^2-well contour from the cosh zeros

# log of the largest double; exponents beyond this overflow
_EXP_LIMIT = 709.0
# a term below e^{-42} ~ 6e-19 of another is under half an ulp of their sum
_DROP_NATS = 42.0


def _weideman_coeffs(n: int, scale: float) -> np.ndarray:
    """Coefficients of Weideman's degree n-1 polynomial p, highest power first.

    p interpolates the Fourier data of the Faddeeva function in the
    variable Z = (L + iz)/(L - iz); its coefficients are one FFT of
    e^{-t^2}(L^2 + t^2) sampled at t = L tan(theta/2).
    """
    m = 2 * n
    t = scale * np.tan(np.arange(1 - m, m) * (np.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    return np.fft.fft(np.fft.fftshift(f)).real[n:0:-1] / (2 * m)


_WEIDEMAN_N = 40
_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
# 2p in blocks of 8 ascending powers: row j holds the coefficients of
# Z^{8j}, ..., Z^{8j+7}
_P2_BLOCKS = (2.0 * _weideman_coeffs(_WEIDEMAN_N, _L)[::-1]).reshape(-1, 8)
_P2_BLOCKS.flags.writeable = False
_RSQRT_PI = np.complex128(1.0 / SQRT_PI)
# points per pass, which bounds the power table (8 rows: 256 KiB) and the
# Horner temporaries.  At 8,192 points the comparator's 4,096-point calls
# make a 512 KiB table, and in processes whose heap glibc then trims after
# every call a crossrep-eps operation took 263k-316k minor page faults
# (0.82-0.93 s) instead of ~2k (0.57-0.65 s).  2,048 points stayed at ~2k
# in every heap layout tried, and run as fast where nothing is trimmed
# (scan in CHANGES.md)
_BLOCK = 2048
# below this, e^{x^2} erfc(x) of a real x neither overflows (x > 0) nor
# leaves erfc in subnormal range
_REAL_DIRECT_MAX = 26.0


def _finite(out, what: str):
    """Return a ufunc result (a Python complex for scalars), or raise if not finite."""
    if not (np.isfinite(out).all() if out.ndim else cmath.isfinite(out)):
        raise EvaluationOverflow(f"{what} evaluation produced a non-finite value")
    return out if out.ndim else complex(out)


def _erfcx_right(xi, out):
    """erfcx on the closed right half-plane, Weideman's form of w(i xi):

        erfcx(xi) = 2 p(Z) / (L + xi)^2 + 1 / (sqrt(pi) (L + xi)),
        Z = (L - xi) / (L + xi),

    for a 1-d block xi, written into out.  p has degree 39; it is
    evaluated in the Paterson-Stockmeyer form, 2p(Z) = sum_j B_j(Z) Z^{8j}
    with B_j of degree 7: one real matrix product of the coefficient
    table with the powers Z^0 ... Z^7 (viewed as floats, so the real
    coefficients act on real and imaginary parts alike) gives the five
    B_j, and Horner runs in Z^8 over them.  Every product goes to a
    separate buffer: numpy's in-place complex multiply takes a different
    loop on short arrays and can round differently, which would make an
    element depend on the length of the array it came in.
    """
    r = np.reciprocal(xi + _L)
    pw = np.empty((8, len(xi)), dtype=complex)
    pw[0] = 1.0
    z = np.multiply(r, 2.0 * _L, out=pw[1])
    z -= 1.0
    np.multiply(z, z, out=pw[2])
    np.multiply(pw[2], z, out=pw[3])
    np.multiply(pw[2], pw[2], out=pw[4])
    np.multiply(pw[4], z, out=pw[5])
    np.multiply(pw[4], pw[2], out=pw[6])
    np.multiply(pw[4], pw[3], out=pw[7])
    blocks = (_P2_BLOCKS @ pw.view(float)).view(complex)
    # the power rows are free now: Z^8 and the Horner buffer reuse two
    z8 = np.multiply(pw[4], pw[4], out=pw[0])
    p, q = blocks[-1], pw[1]
    for b in blocks[-2::-1]:
        np.multiply(p, z8, out=q)
        np.add(q, b, out=p)
    np.multiply(p, r, out=q)
    q += _RSQRT_PI
    np.multiply(q, r, out=out)


def _erfcx_real(x: float) -> complex:
    """erfcx of a real x < _REAL_DIRECT_MAX as e^{x^2} erfc(x), to a few ulps.

    The rounding of x*x would cost a relative error of up to x^2 eps
    (7e-14 at |x| = 26); Dekker's split gives that rounding error e
    exactly, and e^{x^2} = e^{fl(x^2)} (1 + e).
    """
    s = x * x
    try:
        v = math.exp(s) * math.erfc(x)
    except OverflowError:
        v = math.inf
    if v == math.inf:
        raise EvaluationOverflow("erfcx evaluation produced a non-finite value")
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    lo = x - hi
    return complex(v + v * (((hi * hi - s) + 2.0 * hi * lo) + lo * lo))


def erfcx(z):
    """Scaled complementary error function e^{z^2} erfc(z) for complex z.

    On the closed right half-plane it is the Faddeeva function w(iz),
    from Weideman's 40-term rational approximation (``_erfcx_right``) in
    blocks of _BLOCK points; the left half-plane uses the reflection
    erfcx(z) = 2 e^{z^2} - erfcx(-z), whose error is ~|z|^2 eps where
    that term dominates (the conditioning of e^{z^2}).  A real scalar
    below 26 takes e^{x^2} erfc(x) from the math module instead, within
    4.5e-16 relative of 40-digit mpmath.

    Raises EvaluationOverflow where the result leaves the double range
    (Re(z^2) beyond ~709 with Re z < 0).
    """
    if isinstance(z, float) and z < _REAL_DIRECT_MAX:
        # a numpy float64 would make every step of the real path a numpy
        # scalar operation, twice the cost of the whole call
        return _erfcx_real(float(z))
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        xi = flat[start : start + _BLOCK]
        block = out[start : start + _BLOCK]
        left = xi.real < 0.0
        if not left.any():
            _erfcx_right(xi, block)
            continue
        _erfcx_right(np.negative(xi, out=xi.copy(), where=left), block)
        xl = xi[left]
        with np.errstate(over="ignore", invalid="ignore"):
            block[left] = 2.0 * np.exp(xl * xl) - block[left]
    return _finite(out.reshape(z.shape), "erfcx")


def pt_weighted_term(l: int, t: float, x: float, z):
    """Bound-state sum of the sech^2-well kernel, all orders in one pass:

        sum_{m=1}^{l} c_m Q_l^m(x) Q_l^m(z) R(m^2 t, m(z - x)),
        c_m = m (l-m)! / (2 (l+m)!),

    with Q_l^m = assoc_legendre_tanh and R = ``oracles.pt_kernel_term``;
    the orders run along a leading axis.  R alone grows like
    e^{m |Re(z-x)|} and overflows doubles on wide integration windows,
    while Q_l^m(z) decays like e^{-m |Re z|}; combining the exponents
    keeps each product, which is bounded by ~e^{m |x|} / |z|,
    representable everywhere.  Uses the evenness of R and
    sech^m(z) = e^{-m zeta z} (2 / (1 + e^{-2 zeta z}))^m on the decaying
    side zeta = sign(Re z); tanh z comes from the same e^{-2 zeta z}.

    With w = m(z - x) taken on the side Re w >= 0 (w = m eta (z - x)),
    s = m sqrt(it) and u = w / (2s), order m contributes its polynomial
    factor times e^{e1} erfcx(u - s) - e^{e2} erfcx(u + s), where
    e1 = w - m zeta z and e2 = -w - m zeta z.  u = eta (z - x) / (2 sqrt(it))
    is the same for every order.  Where eta = zeta, e1 = -m zeta x and
    e2 = -m zeta (2z - x); elsewhere the two swap.  So e^{e1} and e^{e2} are
    always the pair

        e^{-m zeta x}   and   q^m e^{m zeta x} = (q e^{zeta x})^m,
        q = e^{-2 zeta z},

    a real constant per order and side and a power of the q that sech and
    tanh already use: no exponential of an order's exponent is formed, and
    no exponent is the difference of two numbers of size m |z|.  The
    reflected term e^{e2} erfcx(u + s) is evaluated only where it can
    change the result.  Where Re(u + s) >= 0, |erfcx(u + s)| <= 1 (the
    Faddeeva function is bounded by 1 on the closed upper half-plane), so
    wherever also Re e2 < Re e1 + log|erfcx(u - s)| - 42 the term is below
    e^{-42} of the kept one: under half an ulp.
    """
    if t <= 0:
        raise ValueError("pt_weighted_term requires t > 0")
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.reshape(-1)
    # the pole distance is at least |Re z|: only nodes inside that band can
    # fail; the real x is pi/2 from the nearest poles, beyond the margin
    near = np.abs(z.real) <= _POLE_MARGIN
    if near.any() and np.any(pole_set_distance(z[near]) <= _POLE_MARGIN):
        raise DomainMarginError(
            f"argument within margin {_POLE_MARGIN} of a cosh zero"
        )
    coeffs, weights = _pt_orders(l)
    m = np.arange(1.0, l + 1.0)[:, None]
    # c_m Q_l^m(x) without the Condon-Shortley sign, which cancels against
    # the one of Q_l^m(z); folded into the tanh-polynomial coefficients
    # Horner on Python floats; tanh, cosh and the power stay numpy's, whose
    # vector loops can differ from the math module's in the last bit
    th = float(np.tanh(x))
    qx = []
    for row in coeffs.tolist():
        acc = row[-1]
        for c in row[-2::-1]:
            acc = c + acc * th
        qx.append(acc)
    qx = np.array(qx) * np.cosh(x) ** -m[:, 0]
    # canonical sides, flipped in place: d = +-(z - x) with Re d >= 0 (R is
    # even) and az = zeta z
    d = z - x
    d_left = d.real < 0.0
    np.negative(d, out=d, where=d_left)
    left = z.real < 0.0
    az = np.negative(z, out=z.copy(), where=left)
    agree = d_left == left
    # Re e1 <= m |x| everywhere, so only a far x can overflow; there Re e1
    # is formed from its two terms where the sides disagree, and the check
    # refuses the nodes whose rounded exponent passes the limit
    if l * abs(x) > _EXP_LIMIT:
        e1 = np.where(agree, m * np.where(d_left, x, -x), m * d.real - m * az.real)
        if np.any(e1 > _EXP_LIMIT):
            raise EvaluationOverflow("pt_weighted_term: residual exponent overflows")
    q = np.exp(-2.0 * az)
    sech_rest = 2.0 / (1.0 + q)
    tanh_z = (1.0 - q) * (0.5 * sech_rest)
    np.negative(tanh_z, out=tanh_z, where=left)
    # Horner in tanh z, one row per order (polyval's steps without its
    # argument handling)
    scaled = coeffs * (weights * qx)[:, None]
    poly = scaled[:, -1:]
    for k in range(l - 2, -1, -1):
        poly = poly * tanh_z + scaled[:, k : k + 1]
    root = math.sqrt(t) * ROOT_I
    u = d / (2.0 * root)
    s = m * root
    lam1 = erfcx(u - s)
    # e^{-m zeta x} per order (rows) and side (columns zeta = +1, -1); an
    # entry that overflows is one the exponent check above refused
    with np.errstate(over="ignore"):
        const = np.exp(m * np.array([-x, x]))
    e_const = np.where(left, const[:, 1:], const[:, :1])
    # (q e^{zeta x})^m, by repeated products; e^{|x|} alone overflows only
    # for |x| > 709, where the product is formed by one exponential instead
    e_pow = np.empty((l, len(z)), dtype=complex)
    if abs(x) < _EXP_LIMIT:
        np.multiply(q, np.where(left, math.exp(-x), math.exp(x)), out=e_pow[0])
    else:
        np.exp(np.where(left, -x, x) - 2.0 * az, out=e_pow[0])
    for k in range(1, l):
        np.multiply(e_pow[k - 1], e_pow[0], out=e_pow[k])
    terms = np.where(agree, e_const, e_pow) * lam1
    # Re e2 - Re e1 = -2 Re w = -2 m Re d; the negated comparison keeps
    # log 0 = -inf
    with np.errstate(divide="ignore"):
        log_lam1 = np.log(np.abs(lam1))
    keep = (u.real + s.real < 0.0) | ~(log_lam1 + (2.0 * m) * d.real > _DROP_NATS)
    if keep.all():
        terms -= np.where(agree, e_pow, e_const) * erfcx(u + s)
    elif keep.any():
        e2 = np.where(agree, e_pow, e_const)[keep]
        lam2 = erfcx(np.broadcast_to(u, keep.shape)[keep] + np.broadcast_to(s, keep.shape)[keep])
        terms[keep] -= e2 * lam2
    # sum over orders of acc_m sech_rest^m, by Horner in sech_rest
    acc = poly * terms
    res = acc[-1]
    for k in range(l - 2, -1, -1):
        res = acc[k] + sech_rest * res
    res = (sech_rest * res).reshape(shape)
    return complex(res) if res.ndim == 0 else res


@lru_cache(maxsize=None)
def _legendre_deriv_coeffs(l: int, m: int) -> tuple[float, ...]:
    """Ascending coefficients of the m-th derivative of the Legendre
    polynomial P_l(x) = 2^-l sum_k (-1)^k C(l, k) C(2l - 2k, l) x^(l - 2k),
    in integers, each rounded once by its division by 2^l."""
    out = [0] * (l - m + 1)
    for k in range((l - m) // 2 + 1):
        j = l - 2 * k
        out[j - m] = (-1) ** k * math.comb(l, k) * math.comb(2 * (l - k), l) * math.perm(j, m)
    return tuple(c / 2**l for c in out)


@lru_cache(maxsize=None)
def _pt_orders(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-order tables for pt_weighted_term, orders m = 1..l along axis 0.

    Row m-1 of the first array holds the ascending coefficients of the
    m-th derivative of the Legendre polynomial P_l, zero padded to degree
    l - 1; the second holds c_m = m (l-m)! / (2 (l+m)!).
    """
    coeffs = np.zeros((l, l))
    for m in range(1, l + 1):
        row = _legendre_deriv_coeffs(l, m)
        coeffs[m - 1, : len(row)] = row
    weights = np.array([m * factorial(l - m) / (2.0 * factorial(l + m)) for m in range(1, l + 1)])
    coeffs.flags.writeable = weights.flags.writeable = False
    return coeffs, weights


def pole_set_distance(z):
    """Distance from z to the cosh zero set {i pi (k + 1/2), k integer}."""
    if type(z) is complex:  # one seed panel of the rotated route
        return math.hypot(z.real, abs(z.imag % math.pi - math.pi / 2))
    z = np.asarray(z, dtype=complex)
    # r = Im z mod pi lies in [0, pi); the nearest zeros sit |r - pi/2| away in Im
    dist = np.hypot(z.real, np.abs(np.mod(z.imag, np.pi) - np.pi / 2))
    return float(dist) if dist.ndim == 0 else dist


def assoc_legendre_tanh(l: int, m: int, z):
    """Associated Legendre factor on the tanh line: P_l^m(tanh z).

    Uses the sech^m * (polynomial in tanh) form, which continues
    analytically off the real axis without square-root branch issues.
    Adopts the Condon-Shortley phase, so l = m = 1 gives -sech(z).

    Raises DomainMarginError when z is within ``_POLE_MARGIN`` of a zero
    of cosh (the poles i pi (Z + 1/2)).
    """
    if not (1 <= m <= l):
        raise ValueError("assoc_legendre_tanh requires 1 <= m <= l")
    z = np.asarray(z, dtype=complex)
    if np.any(pole_set_distance(z) <= _POLE_MARGIN):
        raise DomainMarginError(
            f"argument within margin {_POLE_MARGIN} of a cosh zero"
        )
    acc = polyval(np.tanh(z), _legendre_deriv_coeffs(l, m))
    res = (-1.0) ** m * np.cosh(z) ** (-m) * acc
    return complex(res) if res.ndim == 0 else res
