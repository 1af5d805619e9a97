"""Initial-condition families and the weighted-sup convergence metric.

The superoscillating family

    F_n(z; k) = sum_{l=0}^{n} C_l e^{i k_l z},
    C_l = binom(n, l) ((1+k)/2)^{n-l} ((1-k)/2)^l,   k_l = 1 - 2l/n,

carries only unit-bounded frequencies k_l yet converges to e^{i k z} with
|k| > 1.  By the binomial theorem it is exactly

    F_n(z; k) = (cos(z/n) + i k sin(z/n))^n,

which is how signals evaluate it: in doubles, array in and array out,
with no cancellation.  The coefficients alternate in sign and reach
magnitudes of order k^n, so the expanded sum cancels almost completely
and double precision fails on it beyond n of a few tens;
``superosc_value`` sums it through mpmath at a working precision chosen
from the coefficient mass and serves as the extended-precision oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour_quad import GrowthWitness
from .errors import PrecisionExhausted

_MAX_DPS = 20000


@dataclass(frozen=True)
class HolomorphicSignal:
    """Entire (or sector-holomorphic) initial condition with a growth witness."""

    eval: Callable
    growth: GrowthWitness
    label: str

    def __call__(self, z):
        return self.eval(z)


def plane_wave(kappa: complex, witness_kind: str = "modulus") -> HolomorphicSignal:
    """e^{i kappa z}, with |e^{i kappa z}| = e^{-Re kappa Im z - Im kappa Re z}
    <= e^{|Im kappa| |z| - Re kappa Im z}: witness frequency Re kappa and
    rate |Im kappa|.

    For real kappa the imag-kind witness (rate 0) can be requested for
    real-line integration routes.
    """
    kappa = complex(kappa)
    if witness_kind == "imag" and abs(kappa.imag) > 0:
        raise ValueError("imag-kind witness is only valid for real kappa")
    k = kappa.real if kappa.imag == 0 else kappa

    def ev(z):
        return np.exp(1j * k * np.asarray(z, dtype=complex))

    return HolomorphicSignal(
        eval=ev,
        growth=GrowthWitness(1.0, abs(kappa.imag), witness_kind, kappa.real),
        label=f"plane:k={kappa.real:g}" + (f"{kappa.imag:+g}j" if kappa.imag else ""),
    )


def constant_signal(c: complex = 1.0) -> HolomorphicSignal:
    return HolomorphicSignal(
        eval=lambda z: np.full(np.shape(z), complex(c)),
        growth=GrowthWitness(abs(c), 0.0, "imag"),
        label=f"const:{c}",
    )


def combine_signals(terms: list[tuple[complex, HolomorphicSignal]], label=None):
    """Finite linear combination with the triangle-inequality witness.

    The terms' frequencies w_i differ in general; against one frequency w
    each term is bounded with rate B_i + |w_i - w|, as
    e^{-w_i Im z} = e^{-(w_i - w) Im z} e^{-w Im z}.  The w minimizing the
    largest such rate is the midpoint of max(w_i + B_i) and
    min(w_i - B_i), and the rate is half their distance (max B_i with
    w = 0 when every frequency is 0).
    """
    amp = sum(abs(c) * s.growth.amplitude for c, s in terms)
    hi = max(s.growth.freq + s.growth.rate for _, s in terms)
    lo = min(s.growth.freq - s.growth.rate for _, s in terms)
    kind = "imag" if all(s.growth.kind == "imag" for _, s in terms) else "modulus"

    def ev(z):
        acc = None
        for c, s in terms:
            v = c * s(z)
            acc = v if acc is None else acc + v
        return acc

    return HolomorphicSignal(
        eval=ev,
        growth=GrowthWitness(amp, 0.5 * (hi - lo), kind, 0.5 * (hi + lo)),
        label=label or "+".join(f"{c}*{s.label}" for c, s in terms),
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
    import mpmath as mp  # imported here: only the oracle paths need it

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


def superosc_value(
    n: int, k: complex, z: complex, *, coeffs: list | None = None
) -> complex:
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
        with mp.workdps(dps):
            cs = coeffs if coeffs is not None else superosc_coefficients(n, k)
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
        coeffs = None  # recompute at the higher precision
    raise PrecisionExhausted(
        f"cancellation in F_{n}(z; k={k}) at z={z} exceeds the precision budget"
    )


def superosc_value_float64(n: int, k: float, z: complex) -> complex:
    """Same sum in plain doubles; fails by catastrophic cancellation for
    moderate n (kept as the counterexample the extended path exists for)."""
    ls = np.arange(n + 1)
    from math import comb

    c = np.array(
        [comb(n, int(l)) * ((1 + k) / 2) ** (n - l) * ((1 - k) / 2) ** l for l in ls]
    )
    return complex(np.sum(c * np.exp(1j * (1 - 2 * ls / n) * z)))


def superosc_signal(n: int, k: complex) -> HolomorphicSignal:
    """F_n(.; k) as an integrable signal, in the product form
    (cos w + i k sin w)^n with w = z/n.

    Witness: |F_n(z)| <= e^{max(1,|k|) |z|}.  With r = |z|/n, the bounds
    |cos w| <= cosh r and |sin w| <= sinh r give
    |F_n(z)| <= (cosh r + |k| sinh r)^n; the Taylor coefficients of
    cosh r + |k| sinh r are 1/m! or |k|/m!, each at most max(1,|k|)^m/m!,
    those of e^{max(1,|k|) r}, so cosh r + |k| sinh r <= e^{max(1,|k|) r}
    and the n-th power is at most e^{max(1,|k|) |z|}.
    """
    if n < 1:
        raise ValueError("order n must be >= 1")
    k = complex(k)

    def ev(z):
        w = np.asarray(z, dtype=complex) / n
        return (np.cos(w) + 1j * k * np.sin(w)) ** n

    return HolomorphicSignal(
        eval=ev,
        growth=GrowthWitness(1.0, max(1.0, abs(k)), "modulus"),
        label=f"superosc:n={n},k={k.real:g}",
    )


def weighted_sup_distance(
    f: HolomorphicSignal, g: HolomorphicSignal, c_weight: float, samples
) -> float:
    """max over samples of |f(z) - g(z)| e^{-c |z|}.

    A sampled lower bound for the weighted sup distance the convergence
    statements are phrased in; the sample cloud is part of the
    experiment configuration.
    """
    samples = np.asarray(samples, dtype=complex)
    fv = np.asarray(f(samples), dtype=complex)
    gv = np.asarray(g(samples), dtype=complex)
    return float(np.max(np.abs(fv - gv) * np.exp(-c_weight * np.abs(samples))))


def disk_samples(radius: float, n_ring: int = 8, n_random: int = 40, seed: int = 1234):
    """Deterministic sample cloud: concentric rings plus seeded uniform points."""
    rng = np.random.default_rng(seed)
    pts = [np.array([0.0 + 0.0j])]
    for r in np.linspace(radius / 4, radius, 4):
        ang = np.linspace(0.0, 2 * np.pi, n_ring, endpoint=False)
        pts.append(r * np.exp(1j * ang))
    rr = radius * np.sqrt(rng.uniform(0, 1, n_random))
    th = rng.uniform(0, 2 * np.pi, n_random)
    pts.append(rr * np.exp(1j * th))
    return np.concatenate(pts)


def default_weight(kappa: complex) -> float:
    """Weight constant for the convergence metric: 2 (1 + |kappa|)."""
    return 2.0 * (1.0 + abs(complex(kappa)))
