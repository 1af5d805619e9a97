"""Quadrature for Gaussian-phase integrals of exponentially bounded integrands.

Three routes to the same value of  integral over R of e^{i a (y - y1)^2} f(y) dy
for f holomorphic on a double sector around the real axis:

* ``rotated_integral``      -- absolutely convergent contour along y e^{i angle},
* ``epsilon_regularized_integral`` -- Gaussian regularization on the real line,
* ``truncated_integral``    -- plain proper integral on [-R1, R2].

The rotated route is the workhorse: the quadratic phase becomes a genuine
Gaussian there, so a certified truncation radius exists for any growth
witness, and 15-point Gauss-Legendre panels with a 7-point Gauss-Legendre
estimate converge quickly.  The two real-line comparators integrate long
oscillatory stretches instead; they use the Gauss-Kronrod 30/61 pair, whose
61 nodes carry both the value and the embedded 30-point estimate, on panels
spanning ~64 rad of quadratic phase.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EvaluationOverflow, PanelExhausted
from .special_fn import SQRT_PI, erfcx

# quadratic phase per seeded real-line panel; K-61 and its G-30 estimate
# are both converged there, so refinement stays rare (from 68 rad on, most
# comparator calls at tol <= 1e-8 refine past 1.1x the seeded nodes)
_REAL_PHASE_BUDGET = 64.0
# cap on the integrand nodes of one batch of panel sums.  A complex temporary
# of this length is 64 KiB: the operands of each array pass of a kernel call
# stay in L2, and the temporaries stay well below glibc's 128 KiB heap trim
# threshold, so freeing them does not hand the heap top back to the OS to
# be faulted in again by the next pass (with calls of 7k nodes and more, a
# comparator run spends a fifth to a quarter of its CPU time in those page
# faults; scan in CHANGES.md)
_BATCH_NODES = 4096
# panel budgets of one evaluation: the rotated route, and the real-line
# comparators, whose equal-phase seeding alone can reach millions of panels
_MAX_PANELS = 4000
_REAL_MAX_PANELS = 4_000_000
_TINY = float(np.finfo(float).tiny)


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


@dataclass(frozen=True)
class _PanelRule:
    """A panel rule on [-1, 1] with an embedded error estimate.

    The value uses the first len(weights) nodes, the estimate the last
    len(embedded) nodes.  With ``power_law`` the raw difference d of the
    two sums is mapped through  s * min(1, (50 d / s)^{3/2})  (s the
    absolute sum of the value rule), which estimates the error of the
    higher-order rule instead of the lower one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    embedded: np.ndarray
    power_law: bool = False


_X15, _W15 = leggauss(15)
_X7, _W7 = leggauss(7)
# rotated route: GL-15 value, separate GL-7 estimate (22 nodes)
_GL15_GL7 = _PanelRule(nodes=np.concatenate([_X15, _X7]), weights=_W15, embedded=_W7)
# most seed panels of a rotated pass: one integrand call
_SEED_PANELS = _BATCH_NODES // len(_GL15_GL7.nodes)
# real-line comparators: K-61 value, G-30 estimate on the same 61 nodes
# (the 31 Kronrod-only nodes first, then the Gauss nodes in ascending order)
_GK61 = _PanelRule(
    nodes=np.concatenate([
        -_XGK[0::2], _XGK[-3::-2], -_XGK[1::2], _XGK[-2::-2]
    ]),
    weights=np.concatenate([
        _WGK[0::2], _WGK[-3::-2], _WGK[1::2], _WGK[-2::-2]
    ]),
    embedded=np.concatenate([_WG, _WG[::-1]]),
    power_law=True,
)


@dataclass(frozen=True)
class GrowthWitness:
    """Exponential envelope certificate for a holomorphic integrand.

    kind "modulus":  |f(z)| <= amplitude * e^{rate |z| - freq Im z}
    kind "imag":     |f(z)| <= amplitude * e^{rate |Im z| - freq Im z}

    freq is the integrand's net linear frequency: e^{i freq z} is bounded
    on the real line but grows like e^{-freq Im z} off it, and naming it
    keeps it out of the rate.  The default 0 is the plain envelope.

    length is the length on which f varies along a contour, set by its
    singularities (for the sech^2 well, ``greens._pt_seed_width``):
    ``rotated_integral`` seeds no panel wider than that.  The default inf
    (an entire f) leaves the seed to the Gaussian width alone.
    """

    amplitude: float
    rate: float
    kind: str = "modulus"
    freq: float = 0.0
    length: float = np.inf

    def __post_init__(self):
        if self.amplitude < 0 or self.rate < 0:
            raise ValueError("growth witness requires amplitude, rate >= 0")
        if not self.length > 0:
            raise ValueError("growth witness requires length > 0")
        if self.kind not in ("modulus", "imag"):
            raise ValueError("witness kind must be 'modulus' or 'imag'")


@dataclass(frozen=True)
class QuadratureResult:
    """Value of one rotated-contour evaluation and what it cost.

    nodes   integrand evaluations over all panel sums
    rounds  refinement rounds after the seeding pass; a pass of up to 186
            panels (``_BATCH_NODES`` // 22) is one integrand call
    """

    value: complex
    err_estimate: float
    truncation_radius: float
    panels_used: int
    nodes: int
    rounds: int


def _log_gaussian_tail(log_amplitude: float, c: float, b: float, radius: float) -> float:
    """log of the two-sided bound  amp * int_{|y|>radius} e^{-c y^2 + b |y|} dy.

    Closed form through the scaled complementary error function, kept in
    log space so huge amplitudes and saturated tails cannot overflow;
    valid for c > 0 and any b >= 0.  In x = sqrt(c) radius - b/(2 sqrt(c))
    it is a constant plus log erfc(x), so it is concave and decreasing in
    the radius, with slope -2 sqrt(c) / (sqrt(pi) erfcx(x)).
    """
    return _tail_terms(log_amplitude, c, b, radius)[0]


def _tail_terms(log_amplitude, c, b, radius):
    """``_log_gaussian_tail`` together with the erfcx value behind it, on
    Python floats: a numpy call on a scalar costs ~20 times a math one."""
    root_c = math.sqrt(c)
    arg = root_c * radius - b / (2.0 * root_c)
    base = log_amplitude + math.log(SQRT_PI / root_c)
    if arg < -25.0:
        # tail indistinguishable from the whole-line integral
        return base + math.log(2.0) + b * b / (4.0 * c), math.inf
    scaled = max(erfcx(arg).real, _TINY)
    return base - c * radius * radius + b * radius + math.log(scaled), scaled


def _tail_radius(log_amp: float, c: float, b: float, log_tol: float, limit: float) -> float:
    """Smallest radius >= b/(2c) with ``_log_gaussian_tail <= log_tol``.

    Safeguarded Newton in log space.  With e the excess over log_tol at the
    envelope maximum b/(2c) (x = 0), the root solves log erfc(x) = -e; as
    erfc(x) <= min(e^{-x^2}, e^{-2x/sqrt(pi)}), the start x = min(sqrt(e),
    sqrt(pi) e / 2) lies right of it, and concavity makes the iterates fall
    monotonically to the root, each a certified radius.  Stops once a step
    is a few ulps; the final check is the certificate, and a radius that
    rounding fails moves up by ulps.  A start beyond limit raises
    ``EvaluationOverflow``, a per-point failure like any other overflow.
    """
    root_c = math.sqrt(c)
    y = b / (2.0 * c)
    excess = _log_gaussian_tail(log_amp, c, b, y) - log_tol
    if excess <= 0.0:
        return y
    y += min(math.sqrt(excess), 0.5 * SQRT_PI * excess) / root_c
    if not y <= limit:
        raise EvaluationOverflow(f"Gaussian tail radius solve diverged (start {y:.3g})")
    for _ in range(50):
        log_tail, scaled = _tail_terms(log_amp, c, b, y)
        step = 0.5 * SQRT_PI * scaled * (log_tail - log_tol) / root_c
        if not step < -4.0 * math.ulp(y):
            break
        y += step
    ulp = math.ulp(y)
    while _log_gaussian_tail(log_amp, c, b, y) > log_tol:
        y, ulp = y + ulp, 2.0 * ulp
    return y


def truncation_radius(
    witness: GrowthWitness,
    a: float,
    angle: float,
    y1: float,
    tol: float,
    shift: float,
) -> float:
    """Radius Y certifying that the rotated-contour tail is below tol.

    On the contour z = shift + u e^{i angle} the integrand modulus is
    bounded by

        amplitude e^{rate |shift|} *
        e^{-a sin(2 angle) u^2 + (rate + |2 a (shift - y1) + freq| sin(angle)) |u|},

    and Newton steps on the concave log tail (``_tail_radius``) give a Y
    certified by ``_log_gaussian_tail(Y) <= log tol``.  Through the
    stationary point shift = y1 - freq / (2a) the linear term is the rate
    alone.  The imag-kind witness satisfies the same envelope, so the
    bound is valid (if slightly conservative) for both kinds.
    """
    if a <= 0 or not 0 < angle < math.pi / 2 or tol <= 0:
        raise ValueError("truncation_radius requires a > 0, angle in (0, pi/2), tol > 0")
    c = a * math.sin(2.0 * angle)
    b = witness.rate + abs(2.0 * a * (shift - y1) + witness.freq) * math.sin(angle)
    log_amp = math.log(max(witness.amplitude, _TINY)) + witness.rate * abs(shift)
    # witnesses and kernels may hand in numpy scalars: the solve runs on floats
    return _tail_radius(float(log_amp), float(c), float(b), math.log(tol), 1e12)


def _eval_signal(f, z):
    """Evaluate a signal-like object or plain callable on a complex array."""
    return np.asarray(getattr(f, "eval", f)(z), dtype=complex)


def _panel_sums(g, lows, highs, rule):
    """Batched panel values of ``rule`` with per-panel error estimates.

    The rotated route passes GL-15 with its GL-7 estimate (the raw
    difference), the real-line comparators K-61 with its embedded G-30
    estimate mapped through the power law.  Each integrand call gets whole
    panels and at most ``_BATCH_NODES`` nodes: 67 K-61 panels or 186
    GL-15/GL-7 panels.  A rotated pass of up to 186 panels is therefore one
    call, and ``rotated_integral`` keeps its seeded pass within that
    (``_SEED_PANELS``); the largest measured on the benchmark grids is 46
    panels (1,012 nodes, a sech^2-well seed on ``plane-field``).  Panels
    are independent, so no value or estimate depends on where a pass is
    split.
    """
    m = len(rule.nodes)
    n_hi, n_emb = len(rule.weights), len(rule.embedded)
    chunk = max(1, _BATCH_NODES // m)
    n = len(lows)
    vals = np.empty(n, dtype=complex)
    err = np.empty(n)
    for s in range(0, n, chunk):
        lo = lows[s : s + chunk]
        hi = highs[s : s + chunk]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * rule.nodes[None, :]
        f = g(x.ravel()).reshape(x.shape)
        f_hi = f[:, :n_hi]
        v = (f_hi * rule.weights).sum(axis=1) * half
        d = np.abs(v - (f[:, m - n_emb :] * rule.embedded).sum(axis=1) * half)
        if rule.power_law:
            sabs = (np.abs(f_hi) * rule.weights).sum(axis=1) * half
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(sabs > 0.0, 50.0 * d / np.maximum(sabs, 1e-300), 0.0)
            d = np.where(
                (sabs > 0.0) & (ratio < 1.0), sabs * ratio**1.5, d
            )
        vals[s : s + chunk] = v
        err[s : s + chunk] = d
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(err))):
        raise EvaluationOverflow("quadrature integrand produced non-finite values")
    return vals, err


def _adaptive_panels(g, edges, tol, budget, rule):
    """Bisect offender panels per round until the summed estimate meets tol.

    Returns (value, error estimate, panels, integrand nodes, refinement
    rounds); every round is one ``_panel_sums`` call after the seeding one.
    """
    edges = np.asarray(edges, dtype=float)
    lows, highs = edges[:-1].copy(), edges[1:].copy()
    if len(lows) > budget:
        raise PanelExhausted(
            f"seeding already needs {len(lows)} panels > budget {budget}"
        )
    vals, errs = _panel_sums(g, lows, highs, rule)
    nodes, rounds = len(lows) * len(rule.nodes), 0

    err_history = []
    for _ in range(64):
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        err_history.append(total_err)
        if len(err_history) >= 4 and err_history[-1] > 0.5 * err_history[-4]:
            # refinement no longer reduces the estimate: the panel sums are
            # rounding-limited.  sum |v_p| / |sum v_p| measures how much the
            # panel values of the last pass cancel, whatever the cause
            cancel = float(np.abs(vals).sum()) / max(abs(vals.sum()), _TINY)
            raise PanelExhausted(
                f"error estimate stagnated at {total_err:.3e}: the panel values "
                f"cancel by a factor {cancel:.1e} (sum |v_p| / |sum v_p|)",
                value=complex(vals.sum()),
                err_estimate=total_err,
            )
        share = tol / len(lows)
        bad = errs > share
        if not bad.any():
            break
        if len(lows) + int(bad.sum()) > budget:
            raise PanelExhausted(
                f"panel budget {budget} exhausted at error {total_err:.3e}",
                value=complex(vals.sum()),
                err_estimate=total_err,
            )
        mid = 0.5 * (lows[bad] + highs[bad])
        new_lo = np.concatenate([lows[bad], mid])
        new_hi = np.concatenate([mid, highs[bad]])
        new_vals, new_errs = _panel_sums(g, new_lo, new_hi, rule)
        nodes += len(new_lo) * len(rule.nodes)
        rounds += 1
        lows = np.concatenate([lows[~bad], new_lo])
        highs = np.concatenate([highs[~bad], new_hi])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
    else:
        raise PanelExhausted(
            f"no convergence after 64 refinement rounds (err {float(errs.sum()):.3e})",
            value=complex(vals.sum()),
            err_estimate=float(errs.sum()),
        )
    return complex(vals.sum()), float(errs.sum()), len(lows), nodes, rounds


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


def _symmetric_cluster(radius, sigma):
    """``_cluster_edges(-radius, radius, 0, sigma)`` built in order on
    Python floats, without the sort: 0, +-sigma 2^k below radius, +-radius."""
    right = []
    off = sigma
    while off < radius:
        right.append(off)
        off *= 2.0
    if radius > 0.0:
        right.append(radius)
    return np.array([-u for u in reversed(right)] + [0.0] + right)


def _split_panels(edges, width):
    """edges with each panel wider than width cut into the fewest equal
    parts no wider than width."""
    span = np.diff(edges)
    parts = np.ceil(span / width)
    if not (parts > 1.0).any():
        return edges
    k = parts.astype(int)
    step = np.repeat(span / parts, k)
    j = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    return np.append(np.repeat(edges[:-1], k) + j * step, edges[-1])


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


def rotated_integral(
    f, *, a: float, y1: float, center: float, angle: float, tol: float
) -> QuadratureResult:
    """Contour evaluation of  int_R e^{i a (y - y1)^2} f(y) dy.

    Integrates along the rotated line z = center + u e^{i angle}, angle in
    (0, pi/2); there the integrand decays like a Gaussian of rate
    a sin(2 angle).  For holomorphic f with a valid growth witness the
    value is independent of both the admissible angle and the center, so
    this equals
    e^{i angle} * int_R e^{i a (y e^{i angle} - y1)^2} f(y e^{i angle}) dy.
    The center y1 makes the quadratic factor a pure Gaussian along the
    line, avoiding the e^{a s^2 sin^2(angle) sin(2 angle)} cancellation
    an origin-anchored parameterization would suffer; for a witness of
    frequency w the center y1 - w / (2a) does the same for the quadratic
    factor times e^{i w z}.

    The seed panels are the geometric cluster around u = 0 at the
    Gaussian width 1 / sqrt(2 a sin(2 angle)) (``_symmetric_cluster``),
    with every panel wider than the witness length cut into equal parts;
    the seed stays one integrand call of at most ``_SEED_PANELS`` panels.
    ``_adaptive_panels`` then bisects wherever a panel estimate misses its
    share of tol, so any phase left along the line (another angle, a
    shift off the stationary point) is resolved by refinement.  The error
    estimate combines the summed panel estimates with the certified
    truncation tail.
    """
    half_tol = 0.5 * tol
    radius = truncation_radius(f.growth, a, angle, y1, half_tol, center)
    rot = complex(math.cos(angle), math.sin(angle))

    def g(u):
        z = center + u * rot
        return np.exp(1j * a * (z - y1) ** 2) * _eval_signal(f, z)

    edges = _symmetric_cluster(radius, 1.0 / math.sqrt(2.0 * a * math.sin(2.0 * angle)))
    if f.growth.length < np.inf:
        width = max(f.growth.length, 2.0 * radius / (_SEED_PANELS - len(edges)))
        edges = _split_panels(edges, width)
    try:
        value, err, n_panels, nodes, rounds = _adaptive_panels(
            g, edges, half_tol, _MAX_PANELS, _GL15_GL7
        )
    except PanelExhausted as exc:
        if exc.value is not None:  # rotate the sum over u and add the tail
            exc.value, exc.err_estimate = rot * exc.value, exc.err_estimate + half_tol
        raise
    return QuadratureResult(
        value=rot * value,
        err_estimate=err + half_tol,
        truncation_radius=radius,
        panels_used=n_panels,
        nodes=nodes,
        rounds=rounds,
    )


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
    witness = getattr(f, "growth", None)
    if witness is not None and witness.kind == "modulus":
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
