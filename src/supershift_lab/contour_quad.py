"""Quadrature for Gaussian-phase integrals of exponentially bounded integrands.

``rotated_integral`` evaluates  integral over R of e^{i a (y - y1)^2} f(y) dy
for f holomorphic on a double sector around the real axis as the
absolutely convergent contour integral along y e^{i angle}.  The
quadratic phase becomes a genuine Gaussian there, so a certified
truncation radius exists for any growth witness, and 15-point
Gauss-Legendre panels with a 7-point Gauss-Legendre estimate converge
quickly.  The real-line comparators that reproduce the same value live in
``crosschecks`` and share the panel layer with their own rules: the panel
sums (``_panel_sums``, ``_adaptive_panels``) and the one builder of the
rules' real weight tables (``_weight_table``).  The seed march
(``_seed_edges``) is the rotated route's alone.

A stack of signals under their common growth witness
(``initial_data.signal_stack``) integrates as one integrand whose values
carry a leading signal axis: each signal gets its own value and estimate
from the same panels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EvaluationOverflow, PanelExhausted
from .special_fn import SQRT_PI, erfcx

# cap on the integrand nodes of one batch of panel sums.  A complex temporary
# of this length is 64 KiB: the operands of each array pass of a kernel call
# stay in L2, and the temporaries stay well below glibc's 128 KiB heap trim
# threshold, so freeing them does not hand the heap top back to the OS to
# be faulted in again by the next pass (with calls of 7k nodes and more, a
# comparator run spends a fifth to a quarter of its CPU time in those page
# faults; scan in CHANGES.md).  The kernel of a stack's integrand is one such
# row; its signal values are one row per signal.
_BATCH_NODES = 4096
# panel budget of one rotated evaluation
_MAX_PANELS = 4000
_TINY = float(np.finfo(float).tiny)


def _weight_table(weights, embedded):
    """The real table of a rule's two weight columns, value and embedded:
    a weight w = wr + i wi is the block wr I + wi [[0, 1], [-1, 0]] on the
    rows of Re and Im of its node, so the integrand values viewed as floats
    times it are Re/Im of both sums."""
    cols = np.column_stack([weights, embedded])
    table = np.kron(cols.real, np.eye(2)) + np.kron(cols.imag, [[0.0, 1.0], [-1.0, 0.0]])
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class _PanelRule:
    """A panel rule on [-1, 1] with an embedded error estimate.

    Its nodes and two weight vectors of their length, value and embedded,
    each 0 at the nodes its sum skips.  ``table`` holds both columns for
    the panel sums' one real product (``_panel_sums``), which asks for it
    through the hook ``weigh``: a fixed rule has one table for every span,
    a Filon rule one per span and a chirp factor per panel
    (``crosschecks._FilonRule``).  ``estimate`` turns the raw difference
    of the two sums into per-panel error estimates: GL-15/GL-7 returns it
    as it is; the comparators' Clenshaw-Curtis and Filon rules override it
    (``crosschecks._PowerLawRule``).
    """

    nodes: np.ndarray
    weights: np.ndarray
    embedded: np.ndarray

    @cached_property
    def table(self):
        return _weight_table(self.weights, self.embedded)

    def weigh(self, mid, half):
        """The weights of the panels of one call, with midpoints mid and
        half-widths half: (panels, table) pairs that cover them, and the
        factor of each panel's sums.  Here one table for every panel, and
        the half-widths."""
        return ((slice(None), self.table),), half

    def estimate(self, f, d, half, v):
        """Per-panel error estimates from the raw differences d = |value -
        embedded value|, the integrand values f (one row per panel, after
        the leading signal axis of a stack), the panel half-widths and the
        panel values v."""
        return d


_X15, _W15 = leggauss(15)
_X7, _W7 = leggauss(7)
# rotated route: GL-15 value, separate GL-7 estimate (22 nodes)
_GL15_GL7 = _PanelRule(
    nodes=np.concatenate([_X15, _X7]),
    weights=np.concatenate([_W15, np.zeros(7)]),
    embedded=np.concatenate([np.zeros(15), _W7]),
)
# most seed panels of a rotated pass: one integrand call
_SEED_PANELS = _BATCH_NODES // len(_GL15_GL7.nodes)
# seed panel width times the envelope's linear coefficient b at tol 1e-9: for
# a function of exponential type b the GL-7 bound (e b h / 28)^14 is 2e-12 at
# b h = 1.5.  It follows tol as (tol / 1e-9)^(1/30) (scan in CHANGES.md)
_SEED_WIDTH = 3.0
# the Bernstein parameter rho(tol) = (tol * _SEED_MARGIN)^(-1/14) of the
# seed's clearance of a singular set: 11.8 at tol 1e-9, 7.2 at 1e-6, 19 at
# 1e-12 (scan in CHANGES.md)
_SEED_MARGIN = 1e-6


@dataclass(frozen=True)
class GrowthWitness:
    """Exponential envelope certificate for a holomorphic integrand.

    kind "modulus":  |f(z)| <= amplitude * e^{rate |z| - freq Im z}
    kind "imag":     |f(z)| <= amplitude * e^{rate |Im z| - freq Im z}

    freq is the integrand's net linear frequency: e^{i freq z} is bounded
    on the real line but grows like e^{-freq Im z} off it, and naming it
    keeps it out of the rate.  The default 0 is the plain envelope.
    """

    amplitude: float
    rate: float
    kind: str = "modulus"
    freq: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0 or self.rate < 0:
            raise ValueError("growth witness requires amplitude, rate >= 0")
        if self.kind not in ("modulus", "imag"):
            raise ValueError("witness kind must be 'modulus' or 'imag'")


@dataclass(frozen=True)
class QuadratureResult:
    """Value of one rotated-contour evaluation and what it cost.

    value, err_estimate   one array entry per signal for a stack of signals
    nodes   integrand evaluations over all panel sums
    rounds  refinement rounds after the seeding pass; a pass of up to 186
            panels (``_BATCH_NODES`` // 22) is one integrand call

    The radius, panels, nodes and rounds of a stack are shared by its
    signals.
    """

    value: complex | np.ndarray
    err_estimate: float | np.ndarray
    truncation_radius: float
    panels_used: int
    nodes: int
    rounds: int


def _log_gaussian_tail(log_amplitude: float, c: float, b: float, radius: float) -> float:
    """log of the two-sided bound  amp * int_{|y|>radius} e^{-c y^2 + b |y|} dy.

    Closed form through erfcx, kept in log space so huge amplitudes and
    saturated tails cannot overflow; valid for c > 0 and any b >= 0.  The
    tests' check of ``_tail_radius``, which calls no ``erfcx``.
    """
    root_c = math.sqrt(c)
    arg = root_c * radius - b / (2.0 * root_c)
    base = log_amplitude + math.log(SQRT_PI / root_c)
    if arg < -25.0:
        # tail indistinguishable from the whole-line integral
        return base + math.log(2.0) + b * b / (4.0 * c)
    scaled = max(erfcx(arg).real, _TINY)
    return base - c * radius * radius + b * radius + math.log(scaled)


def _tail_radius(log_amp: float, c: float, b: float, log_tol: float, limit: float) -> float:
    """A radius >= b/(2c) with ``_log_gaussian_tail <= log_tol``, in closed form.

    The tail is amp sqrt(pi/c) e^{b^2/(4c)} erfc(x) at x = sqrt(c) radius -
    b/(2 sqrt(c)); with e its excess over log_tol at the peak b/(2c) (x = 0)
    the radius needs log erfc(x) <= -e.  The least x of three is taken,
    each certified by a classical bound (A&S 7.1.13):
      sqrt(e)           erfc(x) <= e^{-x^2}
      sqrt(pi) e / 2    log erfc is concave, of slope -2/sqrt(pi) at 0
      x2 = g(g(sqrt(e))), g(x) = sqrt(e - log(x sqrt(pi)))
                        erfc(x) <= e^{-x^2} / (x sqrt(pi)), used where
                        x2^2 + log(x2 sqrt(pi)) >= e: g falls and its fixed
                        point is that bound's root, so x2 passes for e >= 1/pi
    e and the tail at the radius each round by a few ulps of their largest
    term, so e carries 1e-13 (1 + the terms' size) on top.  A radius beyond
    limit, or not finite, raises ``EvaluationOverflow``, a per-point failure.
    """
    root_c = math.sqrt(c)
    y = b / (2.0 * c)
    terms = (log_amp, math.log(SQRT_PI / root_c), b * y / 2.0, -log_tol)
    e = sum(terms) + 1e-13 * (1.0 + sum(map(abs, terms)))
    if e <= 0.0:
        return y
    x = min(math.sqrt(e), 0.5 * SQRT_PI * e)
    s = e - 0.5 * math.log(math.pi * e)  # g(sqrt(e))^2, > 0 for any e > 0
    s = e - 0.5 * math.log(math.pi * s)  # x2^2
    if s > 0.0 and s + 0.5 * math.log(math.pi * s) >= e:
        x = min(x, math.sqrt(s))
    y += x / root_c
    if not y <= limit:
        raise EvaluationOverflow(f"Gaussian tail radius {y:.3g} beyond {limit:.3g}")
    return y


def _linear_rate(witness, a, angle, y1, shift):
    """Linear coefficient of the envelope along z = shift + u e^{i angle}
    (``truncation_radius``)."""
    return witness.rate + abs(2.0 * a * (shift - y1) + witness.freq) * abs(math.sin(angle))


def truncation_radius(
    witness: GrowthWitness,
    a: float,
    angle: float,
    y1: float,
    tol: float,
    shift: float,
) -> float:
    """Radius Y certifying that the rotated-contour tail is below tol.

    The angle has the sign of a and |angle| < pi/2, so c = a sin(2 angle)
    > 0; on the contour z = shift + u e^{i angle} the integrand modulus is
    bounded by

        amplitude e^{rate |shift|} *
        e^{-c u^2 + (rate + |2 a (shift - y1) + freq| |sin(angle)|) |u|},

    and the closed form of ``_tail_radius`` gives a Y certified by
    ``_log_gaussian_tail(Y) <= log tol``.  Through the
    stationary point shift = y1 - freq / (2a) the linear term is the rate
    alone.  The imag-kind witness satisfies the same envelope, so the
    bound is valid (if slightly conservative) for both kinds.
    """
    same_sign = (a > 0.0 and angle > 0.0) or (a < 0.0 and angle < 0.0)
    if not same_sign or not abs(angle) < math.pi / 2 or tol <= 0:
        raise ValueError("truncation_radius requires a, angle of one sign, |angle| < pi/2, tol > 0")
    c = a * math.sin(2.0 * angle)
    b = _linear_rate(witness, a, angle, y1, shift)
    log_amp = math.log(max(witness.amplitude, _TINY)) + witness.rate * abs(shift)
    # witnesses and kernels may hand in numpy scalars: the solve runs on floats
    return _tail_radius(float(log_amp), float(c), float(b), math.log(tol), 1e12)


def _eval_signal(f, z):
    """Evaluate a signal on a complex array."""
    return np.asarray(f.eval(z), dtype=complex)


def _weighted_sums(f, table):
    """Value and embedded sums of the panel rows f (after a stack's signal
    axis) under one weight table, as the last axis of length 2."""
    rows = f.reshape(-1, f.shape[-1]).view(float)
    sums = (np.concatenate([rows, rows]) if len(rows) == 1 else rows) @ table
    return sums[: len(rows)].view(complex).reshape(f.shape[:-1] + (2,))


@np.errstate(over="ignore", invalid="ignore")
def _panel_sums(g, lows, highs, rule):
    """Batched panel values of ``rule`` with per-panel error estimates.

    Both sums of a panel come from one real product: the integrand values
    of a call, viewed as floats with one row per panel (and per signal of a
    stack), times the rule's table give Re/Im of the value sum and of the
    embedded sum, which the panel's factor scales.  The rule hands out its
    tables and factors (``rule.weigh``): the panels of a Filon rule take
    one product per span among them.  numpy hands a product of one row to
    BLAS's gemv, which rounds unlike the gemm of several rows, so a lone
    row is doubled: no panel's sums depend on the call it came in.  The
    estimates are ``rule.estimate`` of the raw difference: for the rotated
    route's GL-15 that difference to its GL-7 value, for the real-line
    comparators' Clenshaw-Curtis and Filon rules (``crosschecks``) their
    embedded estimate mapped through a power law, kept at or above the
    rounding of the panel value.  Each integrand call gets whole panels
    and at most ``_BATCH_NODES`` nodes: 63 panels of the comparators' 65
    Chebyshev points or 186 GL-15/GL-7 panels.  A rotated pass of up to
    186 panels is therefore one call, and ``rotated_integral`` keeps its
    seeded pass within that
    (``_SEED_PANELS``); the largest measured on the benchmark grids is 44
    panels (968 nodes, a sech^2-well seed on ``plane-field``).  Panels
    are independent, so no value or estimate depends on where a pass is
    split.  The values and estimates of a stack keep its leading signal
    axis.  A NaN or an infinity at any node makes the sums non-finite, so
    the finiteness check runs on the summed values and estimates, with
    numpy's overflow and invalid-value warnings off: it reports them.
    """
    m = len(rule.nodes)
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
        f = g(x.ravel())
        f = f.reshape(f.shape[:-1] + x.shape)
        groups, scale = rule.weigh(mid, half)
        if len(groups) == 1:
            sums = _weighted_sums(f, groups[0][1])
        else:
            sums = np.empty(f.shape[:-1] + (2,), dtype=complex)
            for sel, table in groups:
                sums[..., sel, :] = _weighted_sums(f[..., sel, :], table)
        v = sums[..., 0] * scale
        if v.ndim > vals.ndim:  # a stack: its signal axis before the panels
            vals = np.empty(v.shape[:-1] + (n,), dtype=complex)
            err = np.empty(vals.shape)
        vals[..., s : s + chunk] = v
        err[..., s : s + chunk] = rule.estimate(f, np.abs(sums[..., 0] - sums[..., 1]) * half, half, v)
    if not (cmath.isfinite(vals.sum()) and math.isfinite(err.sum())):
        raise EvaluationOverflow("quadrature integrand produced non-finite values")
    return vals, err


def _per_signal(total):
    """A sum over the panels as returned: a Python number for one signal,
    the array of one per signal for a stack."""
    return total if total.ndim else total.item()


def _adaptive_panels(g, edges, tol, budget, rule):
    """Bisect offender panels per round until the summed estimate meets tol.

    For a stack every signal's summed estimate must meet tol: a panel is
    bisected where any signal's estimate misses its share, and the
    stagnation test watches the largest per-signal total.  Returns (value,
    error estimate, panels, integrand nodes, refinement rounds), value and
    estimate per signal (``_per_signal``); every round is one
    ``_panel_sums`` call after the seeding one.
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
        totals = errs.sum(axis=-1)
        total_err = float(max(totals.flat))
        if total_err <= tol:
            break
        err_history.append(total_err)
        if len(err_history) >= 4 and err_history[-1] > 0.5 * err_history[-4]:
            # refinement no longer reduces the estimate: the panel sums are
            # rounding-limited.  sum |v_p| / |sum v_p| measures how much the
            # panel values of the last pass cancel, whatever the cause
            worst = vals.reshape(-1, len(lows))[int(np.argmax(totals))]
            cancel = float(np.abs(worst).sum()) / max(abs(worst.sum()), _TINY)
            raise PanelExhausted(
                f"error estimate stagnated at {total_err:.3e}: the panel values "
                f"cancel by a factor {cancel:.1e} (sum |v_p| / |sum v_p|)",
                value=_per_signal(vals.sum(axis=-1)),
                err_estimate=_per_signal(totals),
            )
        share = tol / len(lows)
        bad = (errs > share).reshape(-1, len(lows)).any(axis=0)
        n_bad = np.count_nonzero(bad)
        if not n_bad:
            break
        if len(lows) + n_bad > budget:
            raise PanelExhausted(
                f"panel budget {budget} exhausted at error {total_err:.3e}",
                value=_per_signal(vals.sum(axis=-1)),
                err_estimate=_per_signal(totals),
            )
        keep = ~bad
        mid = 0.5 * (lows[bad] + highs[bad])
        new_lo = np.concatenate([lows[bad], mid])
        new_hi = np.concatenate([mid, highs[bad]])
        new_vals, new_errs = _panel_sums(g, new_lo, new_hi, rule)
        nodes += len(new_lo) * len(rule.nodes)
        rounds += 1
        lows = np.concatenate([lows[keep], new_lo])
        highs = np.concatenate([highs[keep], new_hi])
        vals = np.concatenate([vals[..., keep], new_vals], axis=-1)
        errs = np.concatenate([errs[..., keep], new_errs], axis=-1)
    else:
        totals = errs.sum(axis=-1)
        raise PanelExhausted(
            f"no convergence after 64 refinement rounds (err {float(max(totals.flat)):.3e})",
            value=_per_signal(vals.sum(axis=-1)),
            err_estimate=_per_signal(totals),
        )
    return _per_signal(vals.sum(axis=-1)), _per_signal(totals), len(lows), nodes, rounds


def _sorted_distinct(x):
    """``np.unique`` of a 1-d array without NaNs, whose first call imports
    ``numpy.ma`` (~6 ms): a stable sort keeps the first of equal entries
    (0.0, -0.0) as its hash table does, a neighbour mask drops the rest."""
    x = np.sort(x, kind="stable")
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _seed_edges(radius, sigma, b, tol, poles, center, rot):
    """Seed panel edges of a rotated pass on u in [-radius, radius].

    One march per side, outward from u = 0.  The panel starting at u is
    min(max(u, sigma), part, 2 d(u) / (reach + 1)) wide and at least 2
    radius / (``_SEED_PANELS`` - 2): at most half of ``_SEED_PANELS`` a
    side, a remainder left by rounding included, so the seed is one
    integrand call.

      max(u, sigma)  the Gaussian cluster sigma 2^k
      part           the rest of the side in equal parts no wider than
                     ``_SEED_WIDTH`` / b at tol 1e-9 (b the envelope's
                     linear coefficient)
      d(u)           the distance of the line's point to the singular set
                     (``poles``, None if there is none)

    d is 1-Lipschitz, so the disk of reach = (rho + 1/rho) / 2 half-widths
    around the panel's midpoint, which holds its Bernstein ellipse at
    rho(tol), clears the singular set.  With no ``poles`` the left side
    mirrors the right one; with b = 0 as well the march is the cluster.
    """
    cap = _SEED_WIDTH / b * (tol * 1e9) ** (1.0 / 30.0) if b > 0.0 else math.inf
    rho = (tol * _SEED_MARGIN) ** (-1.0 / 14.0)
    clear = 4.0 / (rho + 1.0 / rho + 2.0)
    floor = 2.0 * radius / (_SEED_PANELS - 2)
    sides = []
    for sign in (1.0, -1.0) if poles is not None else (1.0,):
        ray, u, pts = sign * rot, 0.0, []
        while u < radius:
            # builtin min/max calls cost several times these comparisons
            rest = radius - u
            w = u if u > sigma else sigma
            part = rest / (math.ceil(rest / cap) or 1)  # whole with no cap
            w = part if part < w else w
            if poles is not None:
                near = clear * poles(center + u * ray)
                w = near if near < w else w
            w = floor if w < floor else w
            u = u + w if w < rest else radius
            pts.append(u)
        sides.append(pts)
    return np.array([-u for u in reversed(sides[-1])] + [0.0] + sides[0])


def _rotate(rot, value):
    """rot * value, signal by signal in Python's complex product: numpy's
    array product fuses multiply-adds, so a stacked signal would round
    unlike the same signal alone."""
    if isinstance(value, complex):
        return rot * value
    return np.array([rot * v for v in value.tolist()])


def rotated_integral(
    f, *, a: float, y1: float, center: float, angle: float, tol: float
) -> QuadratureResult:
    """Contour evaluation of  int_R e^{i a (y - y1)^2} f(y) dy.

    Integrates along the rotated line z = center + u e^{i angle}, angle of
    the sign of a and |angle| < pi/2; there the integrand decays like a
    Gaussian of rate a sin(2 angle) > 0.  For holomorphic f with a valid
    growth witness the value is independent of both the admissible angle
    and the center, so this equals
    e^{i angle} * int_R e^{i a (y e^{i angle} - y1)^2} f(y e^{i angle}) dy.
    The center y1 makes the quadratic factor a pure Gaussian along the
    line, avoiding the e^{a s^2 sin^2(angle) sin(2 angle)} cancellation
    an origin-anchored parameterization would suffer; for a witness of
    frequency w the center y1 - w / (2a) does the same for the quadratic
    factor times e^{i w z}.

    The seed panels march outward from u = 0 (``_seed_edges``): the
    geometric cluster at the Gaussian width 1 / sqrt(2 a sin(2 angle)),
    no wider than 3 / b at tol 1e-9 (b the envelope's linear coefficient
    along the line, as in ``truncation_radius``), and clear of f's
    singular set (``f.poles``) at the Bernstein parameter rho(tol); the
    seed stays one integrand call of at most ``_SEED_PANELS`` panels.
    Through a stationary point b is the witness rate: the free, electric
    and harmonic plane waves keep the cluster as it is.
    ``_adaptive_panels`` then bisects wherever a panel estimate misses its
    share of tol, so any phase left along the line (another angle, a
    shift off the stationary point) is resolved by refinement.  The error
    estimate combines the summed panel estimates with the certified
    truncation tail.  For a stack f, value and estimate are per signal,
    in the result and in a ``PanelExhausted``.
    """
    half_tol = 0.5 * tol
    radius = truncation_radius(f.growth, a, angle, y1, half_tol, center)
    rot = complex(math.cos(angle), math.sin(angle))

    def g(u):
        z = center + u * rot
        return np.exp(1j * a * (z - y1) ** 2) * _eval_signal(f, z)

    edges = _seed_edges(
        radius,
        1.0 / math.sqrt(2.0 * a * math.sin(2.0 * angle)),
        _linear_rate(f.growth, a, angle, y1, center),
        tol,
        f.poles,
        center,
        rot,
    )
    try:
        value, err, n_panels, nodes, rounds = _adaptive_panels(
            g, edges, half_tol, _MAX_PANELS, _GL15_GL7
        )
    except PanelExhausted as exc:
        if exc.value is not None:  # rotate the sum over u and add the tail
            exc.value, exc.err_estimate = _rotate(rot, exc.value), exc.err_estimate + half_tol
        raise
    return QuadratureResult(
        value=_rotate(rot, value),
        err_estimate=err + half_tol,
        truncation_radius=radius,
        panels_used=n_panels,
        nodes=nodes,
        rounds=rounds,
    )


def __getattr__(name):
    # bench/ still reads the comparator here; ROADMAP item 1 switches its
    # imports to ``crosschecks`` and deletes this hook
    if name == "epsilon_regularized_integral":
        from .crosschecks import epsilon_regularized_integral

        return epsilon_regularized_integral
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
