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

The two real-line comparators integrate long oscillatory stretches on
``contour_quad``'s panel layer, whose one cluster builder
(``_cluster_edges``) also gives them their Gaussian cluster of edges and
whose one table builder (``_weight_table``) their rules' weight tables.
``truncated_integral`` runs the Gauss-Kronrod 30/61 pair, whose 61 nodes
carry both the value and the embedded 30-point estimate, on panels
spanning 64 rad of quadratic phase.
``epsilon_regularized_integral`` keeps that rule where the phase
a (y - y1)^2 stays below ``_FAR_SPAN`` and integrates the rest in the
phase variable: there a Filon-Clenshaw-Curtis rule takes the chirp
e^{i phi} into its weights, so its nodes follow the smoothness of the
integrand's envelope and not the phase, on spans that grow with the phase
so that each covers about the same stretch of the real line.
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
    _cluster_edges,
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

# quadratic phase per seeded real-line panel; K-61 and its G-30 estimate
# are both converged there, so refinement stays rare (from 68 rad on, most
# comparator calls at tol <= 1e-8 refine past 1.1x the seeded nodes)
_REAL_PHASE_BUDGET = 64.0
# panel budget of one comparator call, whose equal-phase seeding alone can
# reach millions of panels
_REAL_MAX_PANELS = 4_000_000
# phase where the eps comparator's near stretch ends and span of its first
# seeded far panel (a multiple of _REAL_PHASE_BUDGET: the near stretch ends
# on an equal-phase edge; the far spans are dyadic multiples of it,
# ``_far_edges``), and the Chebyshev degree of its Filon rule, whose
# embedded estimate takes every second point (scans in CHANGES.md)
_FAR_SPAN = 4096.0
_FAR_DEGREE = 64


# Kronrod 61 / Gauss 30 in the layout of QUADPACK qk61 (Piessens et al.,
# 1983): Kronrod abscissae on [0, 1] in decreasing order, entries 1, 3, ...,
# 29 being the 30-point Gauss abscissae, with their 61-point weights and the
# 30-point Gauss weights; 33 decimals of the 60-digit construction in
# tests/test_contour_quad.py (QUADPACK's own digits differ beyond the 32nd)
_XGK = np.array([
    0.999484410050490637571325895705809, 0.996893484074649540271630050918695,
    0.991630996870404594858628366109489, 0.983668123279747209970032581605663,
    0.973116322501126268374693868423703, 0.960021864968307512216871025581798,
    0.944374444748559979415831324037443, 0.926200047429274325879324277080474,
    0.905573307699907798546522558925954, 0.882560535792052681543116462530226,
    0.857205233546061098958658510658948, 0.829565762382768397442898119732502,
    0.799727835821839083013668942322679, 0.767777432104826194917977340974503,
    0.733790062453226804726171131369533, 0.697850494793315796932292388026640,
    0.660061064126626961370053668149265, 0.620526182989242861140477556431189,
    0.579345235826361691756024932172547, 0.536624148142019899264169793311073,
    0.492480467861778574993693061207702, 0.447033769538089176780609900322854,
    0.400401254830394392535476211542667, 0.352704725530878113471037207089374,
    0.304073202273625077372677107199251, 0.254636926167889846439805129817805,
    0.204525116682309891438957671002029, 0.153869913608583546963794672743256,
    0.102806937966737030147096751317998, 0.051471842555317695833025213166723,
    0.0,
])
_WGK = np.array([
    0.001389013698677007624551591226762, 0.003890461127099884051267201844511,
    0.006630703915931292173319826369750, 0.009273279659517763428441146892030,
    0.011823015253496341742232898853251, 0.014369729507045804812451432443574,
    0.016920889189053272627572289420322, 0.019414141193942381173408951050135,
    0.021828035821609192297167485738339, 0.024191162078080601365686370725226,
    0.026509954882333101610601709335075, 0.028754048765041292843978785354341,
    0.030907257562387762472884252943093, 0.032981447057483726031814191016847,
    0.034979338028060024137499670731467, 0.036882364651821229223911065617145,
    0.038678945624727592950348651532281, 0.040374538951535959111995279752458,
    0.041969810215164246147147541285969, 0.043452539701356069316831728117084,
    0.044814800133162663192355551616723, 0.046059238271006988116271735559363,
    0.047185546569299153945261478181100, 0.048185861757087129140779492298315,
    0.049055434555029778887528165367238, 0.049795683427074206357811569379934,
    0.050405921402782346840893085653586, 0.050881795898749606492297473049810,
    0.051221547849258772170656282604943, 0.051426128537459025933862879215779,
    0.051494729429451567558340433647101,
])
_WG = np.array([
    0.007968192496166605615465883474674, 0.018466468311090959142302131912047,
    0.028784707883323369349719179611292, 0.038799192569627049596801936446348,
    0.048402672830594052902938140422808, 0.057493156217619066481721689402056,
    0.065974229882180495128128515115962, 0.073755974737705206268243850022191,
    0.080755895229420215354694938460530, 0.086899787201082979802387530715126,
    0.092122522237786128717632707087619, 0.096368737174644259639468626351810,
    0.099593420586795267062780282103569, 0.101762389748405504596428952168554,
    0.102852652893558840341285636705415,
])


class _PowerLawRule(_PanelRule):
    """A panel rule whose raw estimate d is mapped through
    s * min(1, (50 d / s)^{3/2})  (s the absolute sum of the value rule),
    which estimates the error of the higher-order rule instead of the
    lower one."""

    def estimate(self, f, d, half):
        sabs = (np.abs(f[..., : len(self.weights)]) * self.weights).sum(axis=-1) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sabs > 0.0, 50.0 * d / np.maximum(sabs, 1e-300), 0.0)
        return np.where((sabs > 0.0) & (ratio < 1.0), sabs * ratio**1.5, d)


# K-61 value, G-30 estimate on the same 61 nodes (the 31 Kronrod-only nodes
# first, then the Gauss nodes in ascending order)
_GK61 = _PowerLawRule(
    nodes=np.concatenate([
        -_XGK[0::2], _XGK[-3::-2], -_XGK[1::2], _XGK[-2::-2]
    ]),
    weights=np.concatenate([
        _WGK[0::2], _WGK[-3::-2], _WGK[1::2], _WGK[-2::-2]
    ]),
    embedded=np.concatenate([_WG, _WG[::-1]]),
)


def _chebyshev_moments(n, omega):
    """int_{-1}^{1} T_k(tau) e^{i omega tau} dtau for k = 0..n.

    For |omega| >= n the forward three-term recurrence, O(n): from
    T_k = (T'_{k+1} / (k+1) - T'_{k-1} / (k-1)) / 2 and one integration by
    parts, with E_k = [T_k e^{i omega tau}]_{-1}^{1} (2i sin omega for even
    k, 2 cos omega for odd k),

        mu_{k+1} = (k+1)/(k-1) mu_{k-1} - 2 ((k+1) mu_k + E_{k+1}/(k-1)) / (i omega),

    which is stable for k <= |omega| (Dominguez, Graham & Smyshlyaev,
    IMA J. Numer. Anal. 31 (2011) 1253-1280).  Below, where it is not
    (the deeply bisected spans), composite Gauss-Legendre on pieces of at
    most 8 rad of phase: with n/2 + 24 nodes a piece is exact to rounding
    for every k <= n.
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


def _quadrature_moments(n, omega):
    """``_chebyshev_moments`` by composite Gauss-Legendre, O(n (n + |omega|))."""
    x, w = leggauss(n // 2 + 24)
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
    IMA J. Numer. Anal. 31 (2011) 1253-1280).
    """
    j = np.arange(n + 1)
    ends = np.ones(n + 1)
    ends[[0, n]] = 0.5
    cosines = (2.0 / n) * ends[:, None] * ends[None, :] * np.cos(np.pi * np.outer(j, j) / n)
    return cosines @ _chebyshev_moments(n, omega)


def _chebyshev_order(n):
    """j = 0..n with the odd ones first: the points cos(pi j / n) in this
    order end with those of degree n/2, as ``_PanelRule`` wants its
    embedded nodes."""
    return np.concatenate([np.arange(1, n, 2), np.arange(0, n + 1, 2)])


@functools.lru_cache(maxsize=None)
def _filon_table(n, omega):
    """The real table (``_weight_table``) of the Filon rule of degree n on
    spans of half-width omega: the complex weights of the value (all
    points) and of the embedded rule (the last n/2 + 1).  Built once per
    span and kept."""
    return _weight_table(
        n + 1, _fcc_weights(n, omega)[_chebyshev_order(n)], _fcc_weights(n // 2, omega)
    )


class _FilonRule(_PowerLawRule):
    """Filon-Clenshaw-Curtis panel rule for int e^{i phi} G(phi) dphi.

    The integrand hands in G alone.  On a panel of midpoint mid and
    half-width omega the integral is omega e^{i mid} int_{-1}^{1}
    e^{i omega tau} G(mid + omega tau) dtau: ``weigh`` gives G the weights
    w_j(omega) (``_filon_table``), which integrate the chirp exactly, and
    each panel's sums the factor omega e^{i mid}.  The chirp is thus never
    evaluated at a node, whose rounding at phi ~ 1e6 would shift its
    phase by ~1e-10 rad.  The seeded spans are dyadic multiples of
    ``_FAR_SPAN`` and bisection halves them, so every table is of a
    dyadic half-width and serves every call and kernel that reaches it
    (five at the crossrep-eps point).  The fixed weights are the rule at
    omega = 0, Clenshaw-Curtis: they give the absolute sum of the power-law estimate, which
    turns the difference to the embedded rule of half the degree into an
    estimate for the full one, as for K-61 (the error of Chebyshev
    interpolation of an analytic G falls geometrically with the degree,
    so the full rule's is about the square of the half one's).
    """

    def weigh(self, mid, half):
        n = len(self.nodes) - 1
        groups = tuple((half == s, _filon_table(n, float(s))) for s in _sorted_distinct(half))
        return groups, half * np.exp(1j * mid)


# the eps comparator's far rule: the value on all _FAR_DEGREE + 1 Chebyshev
# points, the embedded rule on every second one
_FCC = _FilonRule(
    nodes=np.cos(np.pi * _chebyshev_order(_FAR_DEGREE) / _FAR_DEGREE),
    weights=_fcc_weights(_FAR_DEGREE, 0.0)[_chebyshev_order(_FAR_DEGREE)].real,
    embedded=_fcc_weights(_FAR_DEGREE // 2, 0.0).real,
)


def _quadratic_phase_edges(lo, hi, y1, a, cluster, sigma):
    """Equal-phase breakpoints of |a| (y - y1)^2 on [lo, hi], merged with a
    geometric cluster around the regularizer center.

    With ~64 rad of quadratic phase per panel (``_REAL_PHASE_BUDGET``)
    both the Kronrod 61-point value and the embedded Gauss 30-point
    estimate are already converged, so little adaptive refinement is
    spent on the long oscillatory stretches.  Raises ``PanelExhausted``
    before allocating anything when the seeding alone would exceed
    ``_REAL_MAX_PANELS``.
    """
    pts = []
    a = abs(a)
    k_right = a * max(hi - y1, 0.0) ** 2 / _REAL_PHASE_BUDGET
    k_left = a * max(y1 - lo, 0.0) ** 2 / _REAL_PHASE_BUDGET
    if k_right + k_left > _REAL_MAX_PANELS:
        raise PanelExhausted(
            f"equal-phase seeding would need ~{int(k_right + k_left)} panels "
            f"> budget {_REAL_MAX_PANELS}"
        )
    if k_right >= 1.0:
        ks = np.arange(1.0, np.floor(k_right) + 1.0)
        pts.append(y1 + np.sqrt(ks * _REAL_PHASE_BUDGET / a))
    if k_left >= 1.0:
        ks = np.arange(1.0, np.floor(k_left) + 1.0)
        pts.append(y1 - np.sqrt(ks * _REAL_PHASE_BUDGET / a))
    return _cluster_edges(lo, hi, cluster, sigma, [y1], *pts)


def _far_edges(inner, outer, a):
    """Seed edges in phi = |a| (y - y1)^2 of one far stretch of the window,
    whose points lie between the distances inner and outer from y1.

    The spans grow with phi so that each covers about the same stretch of
    y, dy = dphi / (2 sqrt(|a| phi)): ``_FAR_SPAN`` below phi = 8
    ``_FAR_SPAN``, then ``_FAR_SPAN`` 2^j from phi = 2 4^j ``_FAR_SPAN``
    on, so a span doubles each time phi has grown 4x; every level starts
    on an edge of the one before, and all spans stay dyadic multiples of
    ``_FAR_SPAN``.  Doubling from phi = 4 ``_FAR_SPAN`` on instead takes
    12-15% fewer nodes at the crossrep-eps point, but refines a far
    stretch up to 19% past its seed (scan in CHANGES.md).  The edges run
    from the last one at or below max(|a| inner^2, ``_FAR_SPAN``) to the
    first one at or above |a| outer^2.  None when the window does not
    pass the near stretch on this side; the spans are counted against
    ``_REAL_MAX_PANELS`` before any edge is allocated.
    """
    lo = max(abs(a) * inner * inner, _FAR_SPAN)
    hi = abs(a) * max(outer, 0.0) ** 2
    if not hi > _FAR_SPAN:
        return None
    levels, count = [], 0
    start, span = _FAR_SPAN, _FAR_SPAN
    while start < hi:
        end = 8.0 * span * span / _FAR_SPAN
        if end > lo:
            first = max(0, math.floor((lo - start) / span))
            last = math.ceil((min(hi, end) - start) / span)
            levels.append((start, span, first, last))
            count += last - first
            if count > _REAL_MAX_PANELS:
                raise PanelExhausted(
                    f"far-stretch seeding would need at least {count} panels "
                    f"> budget {_REAL_MAX_PANELS}"
                )
        start, span = end, 2.0 * span
    edges = [start + span * np.arange(first, last) for start, span, first, last in levels]
    start, span, _, last = levels[-1]
    return np.concatenate(edges + [[start + span * last]])


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
    evaluation for any modulus-bounded witness.

    The window splits at the stationary point y1.  The near stretch,
    where |a| (y - y1)^2 < ``_FAR_SPAN``, runs on K-61 equal-phase panels
    (``_quadratic_phase_edges``).  Beyond it, on either side, the
    integral is taken in phi = |a| (y - y1)^2, y = y1 +- sqrt(phi / |a|):

        int e^{i phi} G(phi) dphi,
        G = e^{-eps (y - y0)^2} f(y) / (2 sqrt(|a| phi))

    (conjugated through for a < 0), on Filon-Clenshaw-Curtis panels
    (``_FCC``) whose spans start at ``_FAR_SPAN`` and double each time phi
    has grown 4x (``_far_edges``), so each covers about the same stretch
    of y; the last of them ends past the window, where the integrand is
    already below its tail bound.  Each stretch is one
    ``_adaptive_panels`` call with the share of tol and of the panel
    budget that its seeded panels take; a window inside the near stretch
    is one K-61 call on the whole tol.  A ``PanelExhausted`` carries no
    value: one stretch's partial sum is no estimate of the integral.
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
    lo, hi = y0 - radius, y0 + radius

    def near(y):
        return (
            np.exp(-eps * (y - y0) ** 2 + 1j * a * (y - y1) ** 2)
            * _eval_signal(f, y)
        )

    def far(side):
        def g(phi):
            r = np.sqrt(phi / abs(a))
            y = y1 + side * r
            envelope = np.exp(-eps * (y - y0) ** 2) * _eval_signal(f, y) / (2.0 * abs(a) * r)
            return envelope if a > 0 else envelope.conj()

        return g

    reach = math.sqrt(_FAR_SPAN / abs(a)) if a else math.inf
    stretches = []
    if max(lo, y1 - reach) < min(hi, y1 + reach):
        edges = _quadratic_phase_edges(
            max(lo, y1 - reach), min(hi, y1 + reach), y1, a, y0, 1.0 / np.sqrt(2.0 * eps)
        )
        stretches.append((near, edges, _GK61))
    for side, inner, outer in ((1.0, lo - y1, hi - y1), (-1.0, y1 - hi, y1 - lo)):
        edges = _far_edges(max(inner, 0.0), outer, a)
        if edges is not None:
            stretches.append((far(side), edges, _FCC))
    seeded = [len(edges) - 1 for _, edges, _ in stretches]
    total = sum(seeded)
    if total > _REAL_MAX_PANELS:
        raise PanelExhausted(f"seeding already needs {total} panels > budget {_REAL_MAX_PANELS}")
    parts, used = [], 0
    try:
        for k, (g, edges, rule) in enumerate(stretches):
            part, _, panels, _, _ = _adaptive_panels(
                g,
                edges,
                tol * (seeded[k] / total),
                _REAL_MAX_PANELS - used - sum(seeded[k + 1 :]),
                rule,
            )
            parts.append(part.conjugate() if rule is _FCC and a < 0 else part)
            used += panels
    except PanelExhausted as exc:
        exc.value = exc.err_estimate = None
        raise
    return sum(parts[1:], parts[0]) if parts else 0j


def truncated_integral(
    f,
    a: float,
    y1: float,
    r1: float,
    r2: float,
    tol: float = 1e-10,
) -> complex:
    """Proper integral  int_{-r1}^{r2} e^{i a (y - y1)^2} f(y) dy.

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
    if r1 == 0.0 and r2 == 0.0:
        return 0.0 + 0.0j

    def g(y):
        return np.exp(1j * a * (y - y1) ** 2) * _eval_signal(f, y)

    span = r1 + r2
    edges = _quadratic_phase_edges(
        -r1, r2, y1, a, min(max(y1, -r1), r2), span / 8.0
    )
    return _adaptive_panels(g, edges, tol, _REAL_MAX_PANELS, _GK61)[0]


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
