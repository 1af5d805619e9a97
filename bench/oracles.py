"""Closed-form oracles the benchmark checks every output against.

Sign convention (the library's): i dPsi/dt + d2Psi/dx2 - V Psi = 0.

* free plane wave         Psi = e^{i k x - i k^2 t}
* constant unit field     V = x, plane-wave datum e^{i k z}
* oscillator, omega = 1   V = x^2, plane-wave datum, valid for t < pi/4
* Poschl-Teller l = 1, 2  V = -l(l+1) sech^2 x, Jost datum psi_k, so that
                          Psi = e^{-i k^2 t} psi_k(x)
* superoscillations       Psi(t, x; F_n) = sum_l C_l e^{i k_l x - i k_l^2 t}
                          for the free particle, and the product form
                          F_n(z) = (cos(z/n) + i k sin(z/n))^n for the
                          weighted-sup metric

This module depends on numpy and mpmath only, never on the library it
checks.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

# Working digits of the superoscillation oracles: the coefficients reach
# (|k|)^n ~ 1e20 for n = 40, k = 3.1 and cancel to O(1).
ORACLE_DPS = 60

# |tanh z| <= JOST_TANH_BOUND on every double sector of half-angle pi/8
# (the Poschl-Teller contour angle) around a real point |x| <= JOST_X_MAX.
# Sampled maximum 1.93 (selftest.py re-checks it); beyond |Re z| >= 3 the
# bound coth(3) < 1.01 holds analytically.
JOST_TANH_BOUND = 2.0
JOST_X_MAX = 2.5


def free_plane(t, x, kappa):
    return np.exp(1j * kappa * x - 1j * kappa * kappa * t)


def electric_plane(t, x, kappa):
    """Constant unit field: e^{i beta + i x t alpha'} e^{i (k+alpha) x - i (k+alpha)^2 t}
    with alpha = -t/2, t alpha' = -t/2, beta = -t^3/12."""
    al = -t / 2.0
    beta = -(t**3) / 12.0
    t_ap = -t / 2.0
    return np.exp(1j * (beta + x * t_ap) + 1j * (kappa + al) * x - 1j * (kappa + al) ** 2 * t)


def harmonic_plane(t, x, kappa):
    """Unit-frequency oscillator, alpha = sin(2t)/2, beta = alpha' = cos(2t)."""
    al, be, ap = np.sin(2 * t) / 2, np.cos(2 * t), np.cos(2 * t)
    return np.exp(
        1j * ap * x * x / (4 * al) - 1j * al * (kappa - x / (2 * al)) ** 2 / be
    ) / np.sqrt(be)


def jost_poly(l: int, kappa, th):
    """Polynomial factor of the Jost function in tanh z."""
    if l == 1:
        return th - 1j * kappa
    if l == 2:
        return 3.0 * th * th - 3j * kappa * th - 1.0 - kappa * kappa
    raise ValueError("Jost oracles exist for l = 1, 2 only")


def jost(l: int, kappa, z):
    """psi_k(z) = P_l(tanh z) e^{i k z}, with -psi'' + V psi = k^2 psi."""
    z = np.asarray(z, dtype=complex)
    return jost_poly(l, kappa, np.tanh(z)) * np.exp(1j * kappa * z)


def jost_amplitude(l: int, kappa, tanh_bound: float) -> float:
    """sup |P_l(tanh z)| given |tanh z| <= tanh_bound."""
    k = abs(kappa)
    if l == 1:
        return tanh_bound + k
    return 3.0 * tanh_bound**2 + 3.0 * k * tanh_bound + 1.0 + k * k


def pt_jost_wave(l: int, t, x, kappa):
    return np.exp(-1j * kappa * kappa * t) * jost(l, kappa, x)


def pt_potential(l: int, x):
    return -l * (l + 1) / np.cosh(x) ** 2


def superosc_coeffs_mp(n: int, kappa: float) -> list:
    k = mp.mpf(kappa)
    p, q = (1 + k) / 2, (1 - k) / 2
    return [mp.binomial(n, l) * p ** (n - l) * q**l for l in range(n + 1)]


def superosc_free_wave(n: int, kappa: float, ts, xs) -> np.ndarray:
    """Free evolution of F_n on the grid ts x xs, summed at ORACLE_DPS."""
    out = np.empty((len(ts), len(xs)), dtype=complex)
    with mp.workdps(ORACLE_DPS):
        cs = superosc_coeffs_mp(n, kappa)
        ks = [1 - mp.mpf(2 * l) / n for l in range(n + 1)]
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                tm, xm = mp.mpf(float(t)), mp.mpf(float(x))
                out[i, j] = complex(
                    mp.fsum(c * mp.expj(k * xm - k * k * tm) for c, k in zip(cs, ks))
                )
    return out


def supershift_distances(n_values, kappa: float, ts, xs) -> list:
    """d_n = max over the grid of |Psi(F_n) - Psi(e^{i kappa .})|, free particle."""
    target = free_plane(np.asarray(ts)[:, None], np.asarray(xs)[None, :], kappa)
    return [
        float(np.max(np.abs(superosc_free_wave(n, kappa, ts, xs) - target)))
        for n in n_values
    ]


def superosc_metric(n: int, kappa: float, c_weight: float, samples) -> float:
    """max over samples of |F_n(z) - e^{i kappa z}| e^{-c |z|}, product form."""
    worst = mp.mpf(0)
    with mp.workdps(30):
        k = mp.mpf(kappa)
        for s in np.asarray(samples, dtype=complex):
            z = mp.mpc(s.real, s.imag)
            fn = (mp.cos(z / n) + 1j * k * mp.sin(z / n)) ** n
            worst = max(worst, abs(fn - mp.expj(k * z)) * mp.exp(-c_weight * abs(z)))
    return float(worst)
