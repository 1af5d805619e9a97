"""Initial-condition families and the weighted-sup convergence metric.

The superoscillating family

    F_n(z; k) = sum_{l=0}^{n} C_l e^{i k_l z},
    C_l = binom(n, l) ((1+k)/2)^{n-l} ((1-k)/2)^l,   k_l = 1 - 2l/n,

carries only unit-bounded frequencies k_l yet converges to e^{i k z} with
|k| > 1.  By the binomial theorem it is exactly

    F_n(z; k) = (cos(z/n) + i k sin(z/n))^n,

which is how signals evaluate it: in doubles, array in and array out,
with no cancellation.  The base comes from real arrays, one pass each of
cos, sin, cosh and sinh over x = Re z/n and y = Im z/n, with no complex
transcendental; raised to the n-th power, its relative error stays
within 6e-16 n + 3e-14 of a 50-digit reference for n up to 10240.

The coefficients alternate in sign and reach magnitudes of order k^n,
so the expanded sum cancels almost completely and double precision
fails on it beyond n of a few tens;
``oracles.superosc_value`` sums it through mpmath at a working precision
chosen from the coefficient mass and serves as the extended-precision
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour_quad import GrowthWitness


@dataclass(frozen=True)
class HolomorphicSignal:
    """Entire (or sector-holomorphic) initial condition with a growth witness.

    poles gives a point's distance to the integrand's singular set (None:
    none), which the rotated route's seed panels keep clear of.  Only the
    integrand that ``evolve`` builds sets it, from the kernel
    (``GreensKernel.poles``): a datum's own field is never read, and
    ``signal_stack`` and ``combine_signals`` drop it.
    """

    eval: Callable
    growth: GrowthWitness
    label: str
    poles: Callable | None = None

    def __call__(self, z):
        return self.eval(z)


def plane_wave(kappa: complex) -> HolomorphicSignal:
    """e^{i kappa z}, with |e^{i kappa z}| = e^{-Re kappa Im z - Im kappa Re z}
    <= e^{|Im kappa| |z| - Re kappa Im z}: witness frequency Re kappa and
    rate |Im kappa|.
    """
    kappa = complex(kappa)
    k = kappa.real if kappa.imag == 0 else kappa

    def ev(z):
        return np.exp(1j * k * np.asarray(z, dtype=complex))

    return HolomorphicSignal(
        eval=ev,
        growth=GrowthWitness(1.0, abs(kappa.imag), "modulus", kappa.real),
        label=f"plane:k={kappa.real:g}" + (f"{kappa.imag:+g}j" if kappa.imag else ""),
    )


def constant_signal() -> HolomorphicSignal:
    """The constant 1."""
    return HolomorphicSignal(
        eval=lambda z: np.full(np.shape(z), 1.0 + 0j),
        growth=GrowthWitness(1.0, 0.0, "imag"),
        label="const:1.0",
    )


def _common_witness(witnesses, amplitude: float) -> GrowthWitness:
    """One witness of the given amplitude whose envelope bounds each of
    the witnesses' envelopes up to their own amplitudes.

    The frequencies w_i differ in general; against one frequency w each
    is bounded with rate B_i + |w_i - w|, as
    e^{-w_i Im z} = e^{-(w_i - w) Im z} e^{-w Im z}.  The w minimizing the
    largest such rate is the midpoint of max(w_i + B_i) and
    min(w_i - B_i), and the rate is half their distance.  A witness whose
    band w_i -+ B_i is that whole band is kept as it is: the midpoint
    rounds (0.5 ((3 + 0.1) - (3 - 0.1)) is not 0.1), so equal witnesses
    come back bit for bit.  The kind is "imag" only if every witness is.
    """
    hi = max(w.freq + w.rate for w in witnesses)
    lo = min(w.freq - w.rate for w in witnesses)
    wide = [w for w in witnesses if (w.freq + w.rate, w.freq - w.rate) == (hi, lo)]
    rate, freq = (wide[0].rate, wide[0].freq) if wide else (0.5 * (hi - lo), 0.5 * (hi + lo))
    kind = "imag" if all(w.kind == "imag" for w in witnesses) else "modulus"
    return GrowthWitness(amplitude, rate, kind, freq)


def combine_signals(terms: list[tuple[complex, HolomorphicSignal]]):
    """Finite linear combination with the triangle-inequality witness: the
    common witness of the terms (``_common_witness``) with amplitude
    sum |c_i| A_i."""

    def ev(z):
        acc = None
        for c, s in terms:
            v = c * s(z)
            acc = v if acc is None else acc + v
        return acc

    return HolomorphicSignal(
        eval=ev,
        growth=_common_witness(
            [s.growth for _, s in terms], sum(abs(c) * s.growth.amplitude for c, s in terms)
        ),
        label="+".join(f"{c}*{s.label}" for c, s in terms),
    )


def signal_stack(signals: list[HolomorphicSignal]) -> HolomorphicSignal:
    """Signals as one signal whose values carry a leading axis, one row
    per signal, each written in place into one complex array.

    The witness is the rows' common witness (``_common_witness``) with
    amplitude max A_i, so it bounds every row and the stack integrates as
    one signal: one contour, and one kernel value per node for all rows
    (``contour_quad.rotated_integral``).  Equal witnesses keep theirs bit
    for bit.  Raises ``ValueError`` for no signals.
    """
    signals = list(signals)
    if not signals:
        raise ValueError("a signal stack needs at least one signal")
    witnesses = [s.growth for s in signals]

    def ev(z):
        out = np.empty((len(signals), *np.shape(z)), dtype=complex)
        for i, s in enumerate(signals):
            out[i] = s.eval(z)
        return out

    return HolomorphicSignal(
        eval=ev,
        growth=_common_witness(witnesses, max(w.amplitude for w in witnesses)),
        label=";".join(s.label for s in signals),
    )


def superosc_signal(n: int, k: complex) -> HolomorphicSignal:
    """F_n(.; k) as an integrable signal, in the product form
    (cos w + i k sin w)^n with w = z/n = x + iy.

    The base is formed from real arrays: with k = k_r + i k_i,
    Re = cos x (cosh y - k_r sinh y) - k_i sin x cosh y and
    Im = sin x (k_r cosh y - sinh y) - k_i cos x sinh y, the k_i terms
    only for complex k.  Against a 50-digit reference the relative error
    of F_n stays within 6e-16 n + 3e-14 for n = 1 ... 10240.

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
    kr, ki = k.real, k.imag

    def ev(z):
        z = np.asarray(z, dtype=complex)
        x, y = z.real / n, z.imag / n
        cx, sx, ch, sh = np.cos(x), np.sin(x), np.cosh(y), np.sinh(y)
        base = np.empty(z.shape, dtype=complex)
        base.real = cx * (ch - kr * sh)
        base.imag = sx * (kr * ch - sh)
        if ki:
            base.real -= ki * sx * ch
            base.imag -= ki * cx * sh
        return base**n

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


def disk_samples(radius: float):
    """Deterministic sample cloud: the center, four rings of 8 points and
    40 seeded uniform points."""
    rng = np.random.default_rng(1234)
    pts = [np.array([0.0 + 0.0j])]
    for r in np.linspace(radius / 4, radius, 4):
        ang = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        pts.append(r * np.exp(1j * ang))
    rr = radius * np.sqrt(rng.uniform(0, 1, 40))
    th = rng.uniform(0, 2 * np.pi, 40)
    pts.append(rr * np.exp(1j * th))
    return np.concatenate(pts)


def default_weight(kappa: complex) -> float:
    """Weight constant for the convergence metric: 2 (1 + |kappa|)."""
    return 2.0 * (1.0 + abs(complex(kappa)))


# bench/tracer.py patches these two names here and bench/selftest.py
# imports superosc_value from here; the import comes last because
# oracles imports this module
from .oracles import superosc_coefficients, superosc_value  # noqa: E402, F401
