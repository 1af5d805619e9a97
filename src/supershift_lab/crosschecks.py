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

The two real-line comparators integrate long oscillatory stretches.  They
share ``contour_quad``'s panel layer with the Gauss-Kronrod 30/61 pair,
whose 61 nodes carry both the value and the embedded 30-point estimate,
on panels spanning ~64 rad of quadratic phase.
"""

from __future__ import annotations

import warnings
from math import factorial
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .contour_quad import _TINY, _PanelRule, _adaptive_panels, _eval_signal, _tail_radius
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

    def estimate(self, f, v, half):
        d = super().estimate(f, v, half)
        sabs = (np.abs(f[:, : len(self.weights)]) * self.weights).sum(axis=1) * half
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


def _cluster_edges(lo, hi, cluster, sigma, *extra):
    """Sorted distinct points of [lo, hi] among lo, hi, cluster, the
    geometric cluster cluster +- sigma 2^k, and the arrays in extra."""
    pts = [lo, hi, cluster]
    off = sigma
    while cluster - off > lo or cluster + off < hi:
        pts += [cluster - off, cluster + off]
        off *= 2.0
        if off > 1e15:
            break
    edges = np.unique(np.concatenate([pts, *extra]))
    return edges[(edges >= lo) & (edges <= hi)]


def _quadratic_phase_edges(lo, hi, y1, a, cluster, sigma):
    """Equal-phase breakpoints of a (y - y1)^2 on [lo, hi], merged with a
    geometric cluster around the regularizer center.

    With ~64 rad of quadratic phase per panel (``_REAL_PHASE_BUDGET``)
    both the Kronrod 61-point value and the embedded Gauss 30-point
    estimate are already converged, so little adaptive refinement is
    spent on the long oscillatory stretches.  Raises ``PanelExhausted``
    before allocating anything when the seeding alone would exceed
    ``_REAL_MAX_PANELS``.
    """
    pts = []
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
    hi = _tail_radius(log_amp, eps, rate, np.log(0.1 * tol), 1e9)

    def g(y):
        return (
            np.exp(-eps * (y - y0) ** 2 + 1j * a * (y - y1) ** 2)
            * _eval_signal(f, y)
        )

    sigma = 1.0 / np.sqrt(2.0 * eps)
    edges = _quadratic_phase_edges(y0 - hi, y0 + hi, y1, a, y0, sigma)
    return _adaptive_panels(g, edges, tol, _REAL_MAX_PANELS, _GK61)[0]


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
