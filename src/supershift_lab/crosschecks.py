"""Second routes and consistency checks that the run path never calls.

The lab computes every value by ``contour_quad.rotated_integral``; the
functions here reproduce or probe those values another way, for the
tests and the benchmark's cross-representation workload:

* ``epsilon_regularized_integral`` -- Gaussian regularization of
  int_R e^{i a (y - y1)^2} f(y) dy on the real line,
* ``truncated_integral``    -- the plain proper integral on [-R1, R2],
* ``erf_complex``           -- the complex error function, for closed forms
  of truncated Gaussian-phase integrals,
* ``wronskian_drift``       -- the Wronskian invariant of the coefficient ODEs,
* ``analyticity_probe``     -- a Morera-type check of holomorphy in the
  frequency parameter.

Both real-line comparators are one engine (``_real_line``) on
``contour_quad``'s panel layer, with one rule family on the Chebyshev
points of degree ``_DEGREE``: where the phase |a| (y - y1)^2 stays below
``_NEAR_PHASE`` one central y-panel runs Clenshaw-Curtis (``_CC``), and
beyond it each side of the window is integrated in the phase variable,
where a Filon-Clenshaw-Curtis rule (``_FCC``) takes the chirp e^{i phi}
into its weights, so its nodes follow the smoothness of the integrand's
envelope and not the phase, on spans that grow with the phase
(``_phase_edges``).
"""

from __future__ import annotations

import functools
import math
import warnings
from math import factorial
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .contour_quad import (
    _TINY,
    _PanelRule,
    _adaptive_panels,
    _eval_signal,
    _sorted_distinct,
    _tail_radius,
    _weight_table,
)
from .errors import PanelExhausted
from .evolve import wavefunction
from .greens import GreensKernel
from .initial_data import plane_wave
from .ode_coeff import QuadraticCoeffs
from .special_fn import SQRT_PI, _finite, erfcx

# panel budget of one comparator call, whose seeding alone can reach
# millions of panels on a wide window
_REAL_MAX_PANELS = 4_000_000
# phase |a| (y - y1)^2 where the central y-panel ends and the phase spans
# start, each as wide as the phase at its start up to _FAR_SPAN (a power-of-2
# multiple of it), from where a span doubles each time the phase has grown 4x
# (``_phase_edges``); and the Chebyshev degree of both rules, whose embedded
# estimates take every second point (scans in CHANGES.md)
_NEAR_PHASE = 16.0
_FAR_SPAN = 4096.0
_DEGREE = 64


class _PowerLawRule(_PanelRule):
    """A panel rule whose raw estimate d is mapped through
    s * min(1, (50 d / s)^{3/2})  (s the absolute sum of the value rule),
    which estimates the error of the higher-order rule instead of the
    lower one, and kept at or above the rounding of the panel's value v,
    len(nodes) eps |v|: where the integrand cancels to far below its own
    size, no estimate reports more digits than the panel sums hold."""

    def estimate(self, f, d, half, v):
        sabs = (np.abs(f) * self.weights).sum(axis=-1) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sabs > 0.0, 50.0 * d / np.maximum(sabs, 1e-300), 0.0)
        est = np.where((sabs > 0.0) & (ratio < 1.0), sabs * ratio**1.5, d)
        return np.maximum(est, len(self.nodes) * np.finfo(float).eps * np.abs(v))


def _chebyshev_moments(n, omega):
    """int_{-1}^{1} T_k(tau) e^{i omega tau} dtau for k = 0..n.

    For |omega| >= n the forward three-term recurrence, O(n): from
    T_k = (T'_{k+1} / (k+1) - T'_{k-1} / (k-1)) / 2 and one integration by
    parts, with E_k = [T_k e^{i omega tau}]_{-1}^{1} (2i sin omega for even
    k, 2 cos omega for odd k),

        mu_{k+1} = (k+1)/(k-1) mu_{k-1} - 2 ((k+1) mu_k + E_{k+1}/(k-1)) / (i omega),

    which is stable for k <= |omega| (Dominguez, Graham & Smyshlyaev,
    IMA J. Numer. Anal. 31 (2011) 1253-1280).  Below, where it is not
    (the spans near the central panel, the clipped and the deeply bisected
    ones), composite Gauss-Legendre on pieces of at most 8 rad of phase:
    with n/2 + 24 nodes a piece is exact to rounding for every k <= n.
    """
    if abs(omega) < n:
        return _quadrature_moments(n, omega)
    sin, cos = math.sin(omega), math.cos(omega)
    edge = (2j * sin, 2.0 * cos)
    over = -1j / omega
    mu = [2.0 * sin / omega]
    mu.append((edge[1] - mu[0]) * over)
    mu.append((edge[0] - 4.0 * mu[1]) * over)
    for k in range(2, n):
        mu.append(
            (k + 1) / (k - 1) * mu[k - 1]
            - 2.0 * ((k + 1) * mu[k] + edge[(k + 1) % 2] / (k - 1)) * over
        )
    return np.array(mu[: n + 1])


# Gauss-Legendre nodes and weights of one degree, built once: building them
# is most of the cost of a moment table below |omega| = n
_gauss_legendre = functools.lru_cache(maxsize=None)(leggauss)


def _quadrature_moments(n, omega):
    """``_chebyshev_moments`` by composite Gauss-Legendre, O(n (n + |omega|))."""
    x, w = _gauss_legendre(n // 2 + 24)
    pieces = max(1, math.ceil(abs(omega) / 4.0))
    edges = np.linspace(-1.0, 1.0, pieces + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    tau = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel() * np.exp(1j * omega * tau)
    mu = np.empty(n + 1, dtype=complex)
    prev, cur = np.ones_like(tau), tau
    mu[0] = weights.sum()
    mu[1] = cur @ weights
    for k in range(2, n + 1):
        prev, cur = cur, 2.0 * tau * cur - prev
        mu[k] = cur @ weights
    return mu


def _fcc_weights(n, omega):
    """Filon-Clenshaw-Curtis weights w_j = int_{-1}^{1} l_j(tau)
    e^{i omega tau} dtau on the Chebyshev points tau_j = cos(pi j / n),
    j = 0..n (n even), l_j their Lagrange basis.

    The interpolant of values v_j is sum_k'' c_k T_k with c_k = (2/n)
    sum_j'' v_j cos(pi j k / n) (primes halve the first and last terms),
    so w = C mu with the moments mu of ``_chebyshev_moments``; the rule is
    exact for T_k e^{i omega tau}, k <= n (Dominguez, Graham & Smyshlyaev,
    IMA J. Numer. Anal. 31 (2011) 1253-1280).  At omega = 0 it is
    Clenshaw-Curtis.
    """
    j = np.arange(n + 1)
    ends = np.ones(n + 1)
    ends[[0, n]] = 0.5
    cosines = (2.0 / n) * ends[:, None] * ends[None, :] * np.cos(np.pi * np.outer(j, j) / n)
    return cosines @ _chebyshev_moments(n, omega)


def _on_even(w):
    """The weights w of the n/2 + 1 points of degree n/2 as a column of the
    rule of degree n: w on the even j, whose points they are, 0 on the odd."""
    return np.insert(w, np.arange(1, len(w)), 0.0)


@functools.lru_cache(maxsize=256)
def _filon_table(n, omega):
    """The real table (``_weight_table``) of the Filon rule of degree n on
    spans of half-width omega: the complex weights of the value (all
    points) and of the embedded rule (the even j).  Kept for the 256 most
    recent half-widths: the dyadic ones recur in every call, the clipped
    spans at a window's ends are new with each window."""
    return _weight_table(_fcc_weights(n, omega), _on_even(_fcc_weights(n // 2, omega)))


class _FilonRule(_PowerLawRule):
    """Filon-Clenshaw-Curtis panel rule for int e^{i phi} G(phi) dphi.

    The integrand hands in G alone.  On a panel of midpoint mid and
    half-width omega the integral is omega e^{i mid} int_{-1}^{1}
    e^{i omega tau} G(mid + omega tau) dtau: ``weigh`` gives G the weights
    w_j(omega) (``_filon_table``), which integrate the chirp exactly, and
    each panel's sums the factor omega e^{i mid}.  The chirp is thus never
    evaluated at a node, whose rounding at phi ~ 1e6 would shift its
    phase by ~1e-10 rad.  The fixed weights are the rule at omega = 0,
    Clenshaw-Curtis: they give the absolute sum of the power-law estimate,
    which turns the difference to the embedded rule of half the degree
    into an estimate for the full one (the error of Chebyshev
    interpolation of an analytic G falls geometrically with the degree,
    so the full rule's is about the square of the half one's).
    """

    def weigh(self, mid, half):
        n = len(self.nodes) - 1
        groups = tuple((half == s, _filon_table(n, float(s))) for s in _sorted_distinct(half))
        return groups, half * np.exp(1j * mid)


# Clenshaw-Curtis on the _DEGREE + 1 Chebyshev points, its embedded rule on
# every second one: the central y-panel's rule, and with the chirp in its
# weights the Filon rule of the phase spans
_CC = _PowerLawRule(
    nodes=np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE),
    weights=_fcc_weights(_DEGREE, 0.0).real,
    embedded=_on_even(_fcc_weights(_DEGREE // 2, 0.0).real),
)
_FCC = _FilonRule(nodes=_CC.nodes, weights=_CC.weights, embedded=_CC.embedded)


def _phase_edges(inner, outer, a):
    """Seed edges in phi = |a| (y - y1)^2 of one side of the window, whose
    points lie between the distances inner and outer from y1.

    One dyadic grid: from ``_NEAR_PHASE`` to ``_FAR_SPAN`` each span is as
    wide as the phase at its start, then ``_FAR_SPAN`` below phi = 8
    ``_FAR_SPAN`` and ``_FAR_SPAN`` 2^j from phi = 2 4^j ``_FAR_SPAN`` on,
    so a span doubles each time phi has grown 4x and covers about the same
    stretch of y, dy = dphi / (2 sqrt(|a| phi)).  Doubling from phi = 4
    ``_FAR_SPAN`` on instead takes 12-15% fewer nodes at the crossrep-eps
    point, but refines a far stretch up to 19% past its seed (scan in
    CHANGES.md).  The grid is clipped to the window: the edges run from
    max(|a| inner^2, ``_NEAR_PHASE``) to |a| outer^2.  None when the window
    does not pass the central panel on this side; the spans are counted
    against ``_REAL_MAX_PANELS`` before any edge is allocated.
    """
    lo = max(abs(a) * inner * inner, _NEAR_PHASE)
    hi = abs(a) * max(outer, 0.0) ** 2
    if not hi > lo:
        return None
    levels, count = [], 1
    start, span = _NEAR_PHASE, _NEAR_PHASE
    while start < hi:
        end = 2.0 * start if start < _FAR_SPAN else 8.0 * span * span / _FAR_SPAN
        first = max(0, math.floor((lo - start) / span) + 1)
        last = math.ceil((min(hi, end) - start) / span)
        if first < last:
            levels.append((start, span, first, last))
            count += last - first
            if count > _REAL_MAX_PANELS:
                raise PanelExhausted(
                    f"phase seeding would need at least {count} panels "
                    f"> budget {_REAL_MAX_PANELS}"
                )
        start, span = end, end if end <= _FAR_SPAN else 2.0 * span
    inside = [start + span * np.arange(first, last) for start, span, first, last in levels]
    return np.concatenate([[lo]] + inside + [[hi]])


def _real_line(h, a, y1, lo, hi, tol):
    """int_lo^hi e^{i a (y - y1)^2} h(y) dy, to tol.

    Where |a| (y - y1)^2 < ``_NEAR_PHASE`` one central y-panel runs
    Clenshaw-Curtis (``_CC``) on the whole integrand.  Beyond it, on
    either side, the integral is taken in phi = |a| (y - y1)^2,
    y = y1 +- sqrt(phi / |a|):

        int e^{i phi} G(phi) dphi,   G = h(y) / (2 sqrt(|a| phi))

    (conjugated through for a < 0), on Filon panels (``_FCC``) seeded by
    ``_phase_edges``.  Each stretch is one ``_adaptive_panels`` call with
    the share of the panel budget and of the tol still left that its
    seeded panels take.  The central panel runs last, on what the phase
    spans leave: in a wide window the share of one seeded panel can be
    below the rounding of its value.  A ``PanelExhausted`` carries no
    value: one stretch's partial sum is no estimate of the integral.
    """

    def near(y):
        return np.exp(1j * a * (y - y1) ** 2) * h(y)

    def far(side):
        def g(phi):
            r = np.sqrt(phi / abs(a))
            envelope = h(y1 + side * r) / (2.0 * abs(a) * r)
            return envelope if a > 0 else envelope.conj()

        return g

    reach = math.sqrt(_NEAR_PHASE / abs(a)) if a else math.inf
    stretches = []
    for side, inner, outer in ((1.0, lo - y1, hi - y1), (-1.0, y1 - hi, y1 - lo)):
        edges = _phase_edges(max(inner, 0.0), outer, a)
        if edges is not None:
            stretches.append((far(side), edges, _FCC))
    if max(lo, y1 - reach) < min(hi, y1 + reach):
        stretches.append((near, np.array([max(lo, y1 - reach), min(hi, y1 + reach)]), _CC))
    seeded = [len(edges) - 1 for _, edges, _ in stretches]
    parts, used, left = [], 0, tol
    try:
        for k, (g, edges, rule) in enumerate(stretches):
            part, err, panels, _, _ = _adaptive_panels(
                g,
                edges,
                left * (seeded[k] / sum(seeded[k:])),
                _REAL_MAX_PANELS - used - sum(seeded[k + 1 :]),
                rule,
            )
            parts.append(part.conjugate() if rule is _FCC and a < 0 else part)
            used += panels
            left -= float(np.max(err))
    except PanelExhausted as exc:
        exc.value = exc.err_estimate = None
        raise
    return sum(parts[1:], parts[0]) if parts else 0j


def epsilon_regularized_integral(
    f,
    a: float,
    y1: float,
    y0: float = 0.0,
    eps: float = 1e-4,
    tol: float = 1e-10,
) -> complex:
    """Gaussian-regularized real-line integral
    int_R e^{-eps (y - y0)^2} e^{i a (y - y1)^2} f(y) dy.

    The integration window is chosen so the regularizer's tail falls
    below tol; as eps -> 0+ the values approach the rotated-contour
    evaluation for any modulus-bounded witness.  The window runs on the
    real-line engine (``_real_line``).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    witness = f.growth
    # imag-kind witnesses are flat on the real axis; modulus kind keeps its
    # rate in the tail solve
    rate = witness.rate if witness.kind == "modulus" else 0.0
    log_amp = (
        np.log(max(witness.amplitude, _TINY)) + rate * abs(y0)
    )
    radius = _tail_radius(log_amp, eps, rate, np.log(0.1 * tol), 1e9)

    def h(y):
        return np.exp(-eps * (y - y0) ** 2) * _eval_signal(f, y)

    return _real_line(h, a, y1, y0 - radius, y0 + radius, tol)


def truncated_integral(
    f,
    a: float,
    y1: float,
    r1: float,
    r2: float,
    tol: float = 1e-10,
) -> complex:
    """Proper integral  int_{-r1}^{r2} e^{i a (y - y1)^2} f(y) dy, on the
    real-line engine (``_real_line``).

    The symmetric-truncation limit reproduces the rotated value only for
    imag-bounded integrands; a modulus-bound witness triggers a warning
    because the limit is then not certified.
    """
    if r1 < 0 or r2 < 0:
        raise ValueError("truncation bounds must be nonnegative")
    if f.growth.kind == "modulus":
        warnings.warn(
            "truncated_integral with a modulus-bound witness: the large-R "
            "limit is not certified for this growth class",
            stacklevel=2,
        )
    return _real_line(lambda y: _eval_signal(f, y), a, y1, -r1, r2, tol)


# coefficients of the erf Maclaurin series 2/sqrt(pi) (-1)^n / (n! (2n+1)),
# highest order first; 24 terms reach rounding for |z| <= 0.5
_ERF_SERIES = tuple(
    2.0 / SQRT_PI * (-1.0) ** n / (factorial(n) * (2 * n + 1)) for n in range(23, -1, -1)
)


def erf_complex(z):
    """Error function on the complex plane.

    Small arguments (|z| <= 0.5) use the Maclaurin series; elsewhere
    erf(z) = 1 - e^{-z^2} erfcx(z) on Re z >= 0 and the odd reflection
    for Re z < 0, with erfcx from the same Faddeeva kernel.  On the
    imaginary axis erf is purely imaginary, and its real part is set to an
    exact 0 there instead of the rounding left by 1 - e^{-z^2} erfcx(z).

    Raises EvaluationOverflow where |erf z| leaves the double range.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    small = np.abs(flat) <= 0.5
    if small.any():
        zs = flat[small]
        z2 = zs * zs
        acc = np.full_like(zs, _ERF_SERIES[0])
        for c in _ERF_SERIES[1:]:
            acc = acc * z2 + c
        out[small] = acc * zs
    big = ~small
    if big.any():
        zb = flat[big]
        left = zb.real < 0.0
        zb = np.where(left, -zb, zb)
        # e^{-z^2} in two halves: e^{-z^2} itself overflows up to Re(-z^2)
        # ~ 709 + log(|z| sqrt(pi)) before erfcx(z) ~ 1/(z sqrt(pi)) brings
        # the product back into range; what still overflows is |erf z|
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.exp(-0.5 * (zb * zb))
            val = 1.0 - h * (h * erfcx(zb))
        out[big] = np.where(left, -val, val)
    out.real[flat.real == 0.0] = 0.0
    return _finite(out.reshape(z.shape), "erf")


def wronskian_drift(coeffs: QuadraticCoeffs, grid) -> float:
    """max over the grid of |alpha' beta - alpha beta' - 1|."""
    worst = 0.0
    for t in grid:
        al, ap, be, bp = coeffs.state(float(t))[:4]
        worst = max(worst, abs(ap * be - al * bp - 1.0))
    return worst


def analyticity_probe(
    kernel: GreensKernel,
    t: float,
    x: float,
    vertices: Sequence[complex],
    tol: float = 1e-9,
) -> complex:
    """Closed triangle integral of kappa -> Psi(t, x; e^{i kappa .}).

    A numerically vanishing result certifies holomorphy in the frequency
    parameter (Morera-type check); returns the raw contour value, with
    64 Gauss-Legendre nodes per edge.
    """
    if len(vertices) != 3:
        raise ValueError("analyticity_probe expects exactly 3 vertices")
    nodes, weights = leggauss(64)
    total = 0j
    verts = [complex(v) for v in vertices]
    for v1, v2 in zip(verts, verts[1:] + verts[:1]):
        if v2 == v1:
            continue
        half = 0.5 * (v2 - v1)
        mid = 0.5 * (v1 + v2)
        for u, w in zip(nodes, weights):
            kap = mid + half * u
            total += w * half * wavefunction(kernel, plane_wave(kap), t, x, tol)
    return total
