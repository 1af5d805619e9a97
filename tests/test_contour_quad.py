"""Quadrature routes against closed-form Gaussian-phase integrals.

Closed forms used as oracles:
  int_R e^{i a y^2} dy                    = sqrt(pi/a) e^{i pi/4}
  int_R e^{-eps y^2 + i y^2} dy           = sqrt(pi/(eps - i))
  int_R e^{i y^2 + i kappa y} dy          = sqrt(pi) e^{i pi/4} e^{-i kappa^2/4}
  int_R e^{i y^2} y^2 dy                  = (i/2) sqrt(pi) e^{i pi/4}
  int_R e^{-eps y^2 + i a (y - y1)^2 + i kappa y} dy
                                          = sqrt(pi/A) e^{B^2/(4A) + i a y1^2},
                                            A = eps - i a, B = -2i a y1 + i kappa
  int_{-r1}^{r2} e^{i a (y - y1)^2} dy    = (1/2) sqrt(pi/c) [erf(sqrt(c) (r2 - y1))
                                            + erf(sqrt(c) (r1 + y1))],  c = -i a
"""

import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from supershift_lab import contour_quad, crosschecks
from supershift_lab.contour_quad import (
    _GL15_GL7,
    _SEED_PANELS,
    GrowthWitness,
    QuadratureResult,
    _log_gaussian_tail,
    _panel_sums,
    _seed_edges,
    _sorted_distinct,
    rotated_integral,
    truncation_radius,
)
from supershift_lab.crosschecks import (
    _CC,
    _DEGREE,
    _FAR_SPAN,
    _FCC,
    _NEAR_PHASE,
    _chebyshev_moments,
    _fcc_weights,
    _phase_edges,
    epsilon_regularized_integral,
    erf_complex,
    truncated_integral,
)
from supershift_lab.errors import EvaluationOverflow, PanelExhausted
from supershift_lab.evolve import wavefield, wavefunction_result
from supershift_lab.initial_data import (
    HolomorphicSignal,
    plane_wave,
    signal_stack,
    superosc_signal,
)
from supershift_lab.oracles import jost_signal
from supershift_lab.special_fn import SQRT_PI

FRESNEL = np.sqrt(np.pi) * np.exp(1j * np.pi / 4)


def sig(fn, amp, rate, kind="modulus"):
    return HolomorphicSignal(eval=fn, growth=GrowthWitness(amp, rate, kind), label="test")


def rotated(f, a=1.0, y1=0.0, angle=np.pi / 4, tol=1e-12):
    """rotated_integral on the line through the phase center y1."""
    return rotated_integral(f, a=a, y1=y1, center=y1, angle=angle, tol=tol)


ONE = sig(lambda z: np.ones_like(np.asarray(z, dtype=complex)), 1.0, 0.0)
ONE_IM = sig(lambda z: np.ones_like(np.asarray(z, dtype=complex)), 1.0, 0.0, "imag")
PW2 = sig(lambda z: np.exp(2j * z), 1.0, 2.0)
PW2_IM = sig(lambda z: np.exp(2j * z), 1.0, 2.0, "imag")
COS = sig(np.cos, 1.0, 1.0)
COS_IM = sig(np.cos, 1.0, 1.0, "imag")


def _free_plane_wave(kernel, t, y1, kappa):
    """The free kernel's gtilde times e^{i kappa y}, with the comparator's
    imag-kind witness."""
    g0 = kernel.gtilde(t, y1, np.array([0j]))[0]
    return sig(
        lambda y: kernel.gtilde(t, y1, y) * np.exp(1j * kappa * np.asarray(y, dtype=complex)),
        2.0 * abs(g0),
        0.0,
        "imag",
    )


class TestTruncationRadius:
    def test_tail_bound_is_honored(self):
        # brute-force check that the certified tail really is below tol
        w = GrowthWitness(1.0, 0.0)
        tol = 1e-16
        radius = truncation_radius(w, 1.0, np.pi / 4, 0.0, tol, 0.0)
        assert 5.5 <= radius <= 6.5
        y = np.linspace(radius, radius + 30, 400_000)
        tail = 2.0 * np.trapezoid(np.exp(-(y**2)), y)  # c = a sin(2a) = 1, b = 0
        # the bisection root sits exactly on tail == tol; allow the
        # trapezoid oracle its own discretization slack
        assert tail <= tol * (1.0 + 1e-6)

    def test_frozen_bisection_root(self):
        # mpmath bisection of the closed-form tail equation gave 5.9202361
        radius = truncation_radius(GrowthWitness(1, 0), 1.0, np.pi / 4, 0.0, 1e-16, 0.0)
        assert abs(radius - 5.9202361183745687) < 1e-6

    def test_monotone_in_tol(self):
        w = GrowthWitness(1.0, 0.0)
        r8 = truncation_radius(w, 1.0, np.pi / 4, 0.0, 1e-8, 0.0)
        r16 = truncation_radius(w, 1.0, np.pi / 4, 0.0, 1e-16, 0.0)
        assert r8 < r16

    def test_gaussian_scaling(self):
        w = GrowthWitness(1.0, 0.0)
        r1 = truncation_radius(w, 1.0, np.pi / 4, 0.0, 1e-16, 0.0)
        r2 = truncation_radius(w, 2.0, np.pi / 4, 0.0, 1e-16, 0.0)
        assert abs(r1 / r2 - np.sqrt(2.0)) < 0.05

    def test_rate_and_amplitude_enlarge(self):
        base = truncation_radius(GrowthWitness(1, 0), 1.0, np.pi / 4, 0.0, 1e-12, 0.0)
        with_rate = truncation_radius(GrowthWitness(1, 3), 1.0, np.pi / 4, 0.0, 1e-12, 0.0)
        with_amp = truncation_radius(GrowthWitness(1e6, 0), 1.0, np.pi / 4, 0.0, 1e-12, 0.0)
        assert with_rate > base and with_amp > base


def _envelope(w, a, angle, y1, shift):
    """(log amplitude, c, b) of the contour envelope truncation_radius bounds."""
    c = a * np.sin(2.0 * angle)
    b = w.rate + 2.0 * a * abs(shift - y1) * np.sin(angle)
    return np.log(max(w.amplitude, np.finfo(float).tiny)) + w.rate * abs(shift), c, b


def _radius_sweep():
    rng = np.random.default_rng(7)
    amps = (0.0, 1e-300, 1e-20, 1e-3, 1.0, 7.3, 1e6, 1e100, 1e300)
    for amp, rate, a, tol in itertools.product(
        amps, (0.0, 0.5, 3.0, 12.0, 40.0), (1e-3, 0.05, 1.0, 250.0), (1e-16, 1e-9, 1e-3)
    ):
        y1 = rng.uniform(-3.0, 3.0)
        shift = y1 + rng.choice([0.0, rng.uniform(-2.0, 2.0)])
        yield GrowthWitness(amp, rate), a, rng.uniform(0.1, 1.4), y1, tol, shift


class TestNewtonRadius:
    """The Newton solve behind truncation_radius, over a parameter sweep."""

    def test_certified_minimal_and_cheap(self, monkeypatch):
        calls = []
        erfcx = contour_quad.erfcx
        monkeypatch.setattr(contour_quad, "erfcx", lambda z: calls.append(z) or erfcx(z))
        worst_calls = above = 0
        for w, a, angle, y1, tol, shift in _radius_sweep():
            calls.clear()
            radius = truncation_radius(w, a, angle, y1, tol, shift=shift)
            worst_calls = max(worst_calls, len(calls))
            log_amp, c, b = _envelope(w, a, angle, y1, shift)
            assert _log_gaussian_tail(log_amp, c, b, radius) <= np.log(tol)
            if radius > b / (2.0 * c):
                above += 1
                below = radius * (1.0 - 1e-10)
                assert _log_gaussian_tail(log_amp, c, b, below) > np.log(tol)
        assert above > 400
        # every tail evaluation is one scalar erfcx call; the sweep's worst is
        # 8, the Newton loop's last evaluation being the certificate
        assert worst_calls <= 9

    @pytest.mark.parametrize(
        "amp, rate, a, angle, offset, tol",
        [
            (1.0, 0.0, 1.0, np.pi / 4, 0.0, 1e-16),
            (1e300, 40.0, 1e-3, 0.3, 1.5, 1e-3),
            (1e-20, 3.0, 250.0, 1.2, -0.7, 1e-9),
            (7.3, 12.0, 0.05, 0.9, 2.0, 1e-12),
        ],
    )
    def test_matches_mpmath_root(self, amp, rate, a, angle, offset, tol):
        w = GrowthWitness(amp, rate)
        radius = truncation_radius(w, a, angle, 0.0, tol, shift=offset)
        log_amp, c, b = _envelope(w, a, angle, 0.0, offset)
        with mp.workdps(30):
            c_, b_ = mp.mpf(c), mp.mpf(b)
            # log of amp e^{rate |shift|} sqrt(pi/c) e^{b^2/4c} erfc(x) = log tol
            rhs = mp.log(tol) - log_amp - mp.log(mp.sqrt(mp.pi / c_)) - b_**2 / (4 * c_)
            x = mp.findroot(lambda x: mp.log(mp.erfc(x)) - rhs, mp.sqrt(-rhs))
            root = (x + b_ / (2 * mp.sqrt(c_))) / mp.sqrt(c_)
        assert abs(radius - float(root)) <= 1e-12 * float(root)

    def test_tail_below_tol_at_envelope_maximum(self):
        # the tail is already certified where the envelope peaks
        w = GrowthWitness(1e-30, 4.0)
        radius = truncation_radius(w, 1.0, np.pi / 4, 0.0, 1e-3, shift=0.0)
        assert radius == 4.0 / 2.0

    @pytest.mark.parametrize(
        "amp, c, b, radius", [(1.0, 1.0, 60.0, 0.0), (1e-30, 0.01, 6.0, 1.5), (1e200, 4.0, 500.0, 30.0)]
    )
    def test_tail_below_envelope_peak_is_whole_line(self, amp, c, b, radius):
        # sqrt(c) radius - b / (2 sqrt(c)) < -25: the tail is the whole-line
        # integral of amp e^{-c y^2 + b |y|} to rounding, 2 amp sqrt(pi / c)
        # e^{b^2 / (4c)} in log form
        assert math.sqrt(c) * radius - b / (2.0 * math.sqrt(c)) < -25.0
        whole = math.log(2.0 * amp * math.sqrt(math.pi / c)) + b * b / (4.0 * c)
        assert _log_gaussian_tail(math.log(amp), c, b, radius) == pytest.approx(whole, rel=1e-15)

    def test_divergent_solve_raises(self):
        # an overflow of the evaluation, which a grid records per point
        with pytest.raises(EvaluationOverflow, match="diverged"):
            truncation_radius(GrowthWitness(1e300, 0.0), 1e-30, np.pi / 4, 0.0, 1e-16, 0.0)

    def test_radius_is_a_python_float(self):
        # numpy scalars in (amplitude, a) still give a float: the solve runs
        # on the math module, not on numpy 0-d operations
        for w, a, angle, y1, tol, shift in itertools.islice(_radius_sweep(), 0, None, 97):
            w = GrowthWitness(np.float64(w.amplitude), np.float64(w.rate))
            radius = truncation_radius(w, np.float64(a), angle, y1, tol, shift)
            assert type(radius) is float


def _cluster_set(radius, sigma):
    """The cluster as a sorted set: the points of [-radius, radius] among
    +-radius, 0 and +-sigma 2^k for every k that reaches past both ends."""
    offs = sigma * 2.0 ** np.arange(math.ceil(math.log2(max(radius, sigma) / sigma)) + 2)
    pts = np.concatenate([[-radius, radius, 0.0], -offs, offs])
    return np.unique(pts[(pts >= -radius) & (pts <= radius)])


class TestClusterEdges:
    """The rotated seed with no cap and no singular set is the Gaussian
    cluster: checked against a sorted set."""

    def test_symmetric_seed_equals_sorted_set(self):
        # up to R = ((_SEED_PANELS - 2) / 2) sigma the floor 2R / (_SEED_PANELS
        # - 2) is at most sigma, the narrowest cluster panel, so it cannot bind
        top = 0.5 * (_SEED_PANELS - 2)
        rng = np.random.default_rng(3)
        cases = [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (1e-3, 1e3), (top, 1.0)]
        for sigma in np.geomspace(1e-3, 1e3, 25):
            cases += [(sigma * 2.0**k, sigma) for k in range(0, 7)]  # sigma 2^k == R
            cases += [(sigma * rng.uniform(0.01, 1.0), sigma)]  # R < sigma
            cases += [(sigma * 10.0 ** rng.uniform(0.0, math.log10(top)), sigma) for _ in range(8)]
        for radius, sigma in cases:
            assert radius <= top * sigma
            got = _seed_edges(radius, sigma, 0.0, 1e-9, None, 0.0, 1.0)
            want = _cluster_set(radius, sigma)
            assert got.dtype == want.dtype and np.array_equal(got, want), (radius, sigma)

    def test_sorted_distinct_is_unique_bit_for_bit(self):
        # the same entries as np.unique, and of equal zeros the first one
        rng = np.random.default_rng(5)
        for x in (
            np.array([0.0, -0.0, 1.0, 0.0]),
            np.array([-0.0, 0.0, -1.0]),
            rng.integers(-4, 5, 40).astype(float),
            np.array([1 - 0j, 1 + 0j, -0.0 + 2j, 0.0 + 2j, 1j]),
            np.array([-0.0 + 1j, 0.0 + 1j, 1 + 0j, 1 - 0j]),
        ):
            got, want = _sorted_distinct(x), np.unique(x)
            assert got.dtype == want.dtype and got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestSeedEdges:
    # the ids are fixed test names and keep older counts: the asserted
    # count is the ``panels`` value
    @pytest.mark.parametrize(
        "kernel, t, x, k, panels",
        [
            pytest.param("free_kernel", 0.3, 0.5, 3.0, 8, id="free_kernel-0.3-0.5-3.0-15"),
            pytest.param("free_kernel", 0.1, -2.0, 3.0, 8, id="free_kernel-0.1--2.0-3.0-13"),
            pytest.param("free_kernel", 0.9, 2.5, 1.5, 8, id="free_kernel-0.9-2.5-1.5-14"),
            pytest.param("pt1_kernel", 0.3, 0.0, 1.0, 19, id="pt1_kernel-0.3-0.0-1.0-18"),
            pytest.param("pt1_kernel", 0.7, 1.5, 2.0, 24, id="pt1_kernel-0.7-1.5-2.0-33"),
            pytest.param("pt2_kernel", 0.2, -1.0, 2.0, 20, id="pt2_kernel-0.2--1.0-2.0-24"),
            pytest.param("pt2_kernel", 1.0, 2.0, 1.0, 26, id="pt2_kernel-1.0-2.0-1.0-50"),
            pytest.param("electric_kernel", 0.5, 1.0, 2.0, 8, id="electric_kernel-0.5-1.0-2.0-8"),
            pytest.param("harmonic_kernel", 0.4, -1.0, 2.0, 8, id="harmonic_kernel-0.4--1.0-2.0-8"),
            # the stationary point -6 lies past the admitted |center| <= 3.53:
            # the contour runs through the clipped center -3.531
            pytest.param("pt1_kernel", 1.0, 0.0, 3.0, 34, id="pt1_kernel-1.0-0.0-3.0-22"),
        ],
    )
    def test_panels_used_pinned(self, kernel, t, x, k, panels, request):
        # pinned on the contour through the stationary point x - w / (2a)
        # with the frequency witnesses: on the free, electric and harmonic
        # kernels the integrand is a pure Gaussian there, so the seeded
        # geometric cluster needs no refinement.  On the sech^2 well the
        # march also keeps each seed panel no wider than 3 / b (b the
        # envelope's linear coefficient) and clear of the cosh zeros at
        # rho(tol)
        r = wavefunction_result(request.getfixturevalue(kernel), plane_wave(k), t, x, 1e-9)
        assert r.panels_used == panels


class TestSeedBudget:
    """The seeded pass is one integrand call at the extremes of the seed:
    the caller can derive panels from 22 nodes per seeded panel and count
    integrand calls as 1 + rounds."""

    def test_seed_is_one_call_at_extremes(self, free_kernel, pt1_kernel, pt2_kernel, monkeypatch):
        seeds = []  # (seed panels, nodes of the first integrand call)
        adaptive = contour_quad._adaptive_panels

        def recording(g, edges, *args):
            sizes = []
            try:
                return adaptive(lambda u: sizes.append(np.size(u)) or g(u), edges, *args)
            finally:
                seeds.append((len(edges) - 1, sizes[0]))

        monkeypatch.setattr(contour_quad, "_adaptive_panels", recording)
        # the clipped sech^2 center: its line passes 0.1 from a cosh zero
        center = pt1_kernel.contour_center(0.0, -6.0)
        clearance = (np.pi / 2) * np.cos(np.pi / 8) - abs(center) * np.sin(np.pi / 8)
        assert clearance == pytest.approx(0.1, abs=1e-12)
        kappa10 = [plane_wave(10.0)] + [superosc_signal(n, 10.0) for n in (10, 20, 40)]
        cases = [
            (pt1_kernel, plane_wave(3.0), [1.0], [0.0]),
            (pt2_kernel, plane_wave(3.0), [1.0], [0.0]),
            (pt1_kernel, jost_signal(1, 2.0), [0.01, 10.0], [0.0, 2.0]),
            (pt2_kernel, jost_signal(2, 2.0), [0.01, 10.0], [0.0, 2.0]),
            (free_kernel, signal_stack(kappa10), [0.1, 0.5, 1.0], [0.5]),
        ]
        for kernel, f, ts, xs in cases:
            # points at t = 10 may fail on rounding; their seed counts all the same
            wavefield(kernel, f, ts, xs, tol=1e-12)
        assert len(seeds) == 13
        assert all(n <= _SEED_PANELS and first == 22 * n for n, first in seeds), seeds
        # the width cap and the grading reach past half the budget here
        assert max(n for n, _ in seeds) > _SEED_PANELS // 2


class TestSeedMarch:
    """Graded sech^2 seeds keep the march's guarantees panel by panel."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_panels_clear_poles_or_sit_at_floor(self, tol, pt1_kernel, pt2_kernel, monkeypatch):
        seeds = []  # (arguments, edges)
        seed_edges = contour_quad._seed_edges

        def recording(*args):
            seeds.append((args, seed_edges(*args)))
            return seeds[-1][1]

        monkeypatch.setattr(contour_quad, "_seed_edges", recording)
        ts, xs = np.linspace(0.1, 1.0, 5), np.linspace(-2.0, 2.0, 9)
        for kernel, l in ((pt1_kernel, 1), (pt2_kernel, 2)):
            wavefield(kernel, jost_signal(l, 2.0), ts, xs, tol=tol)
            # the clipped center -3.531: the line passes 0.1 from a cosh zero
            wavefield(kernel, plane_wave(3.0), [1.0], [0.0], tol=tol)
        assert len(seeds) == 92
        rho = (tol * contour_quad._SEED_MARGIN) ** (-1.0 / 14.0)
        reach = 0.5 * (rho + 1.0 / rho)
        graded = 0
        for (radius, sigma, b, tol_, poles, center, rot), edges in seeds:
            assert tol_ == tol and poles is not None and b > 0.0
            cap = contour_quad._SEED_WIDTH / b * (tol * 1e9) ** (1.0 / 30.0)
            floor = 2.0 * radius / (_SEED_PANELS - 2)
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            clear = poles(center + mid * rot) >= reach * half
            assert len(half) <= _SEED_PANELS and edges[0] == -radius and edges[-1] == radius
            assert np.all(half > 0.0) and np.all(2.0 * half <= cap * (1.0 + 1e-12))
            assert np.all(clear | (2.0 * half <= floor * (1.0 + 1e-12)))
            graded += not np.array_equal(edges, _seed_edges(radius, sigma, b, tol, None, center, rot))
        # the singular set, not only the cluster and the cap, sets widths here
        assert graded > len(seeds) // 2


def _chirp_moments_mp(n, omega):
    """int_{-1}^{1} T_k(tau) e^{i omega tau} dtau for k = 0..n at 120 digits.

    From T_k = (T'_{k+1} / (k+1) - T'_{k-1} / (k-1)) / 2 and one
    integration by parts, with E = [T_k e^{i omega tau}]_{-1}^{1}, the
    forward recurrence
      mu_{k+1} = (k+1) / (i omega) [E (1/(k+1) - 1/(k-1)) + i omega mu_{k-1} / (k-1) - 2 mu_k];
    it is stable for k <= omega, and 120 digits absorb its growth beyond
    (at omega = 8 and k = 64, 60 digits would leave an error of 1e-11).
    """
    with mp.workdps(120):
        w = mp.mpf(omega)

        def edge(k):
            return mp.expj(w) - (-1) ** k * mp.expj(-w)

        mu = [2 * mp.sin(w) / w]
        mu.append((2 * mp.cos(w) - mu[0]) / (1j * w))
        mu.append((edge(2) - 4 * mu[1]) / (1j * w))
        for k in range(2, n):
            mu.append(
                (k + 1) / (1j * w) * (
                    edge(k - 1) * (mp.mpf(1) / (k + 1) - mp.mpf(1) / (k - 1))
                    + 1j * w * mu[k - 1] / (k - 1)
                    - 2 * mu[k]
                )
            )
        return [complex(v) for v in mu[: n + 1]]


def _record_omegas(monkeypatch, name, seen):
    """Patch crosschecks.name(n, omega) to append each omega to seen;
    returns the original."""
    fn = getattr(crosschecks, name)
    monkeypatch.setattr(crosschecks, name, lambda n, omega: seen.append(omega) or fn(n, omega))
    return fn


class TestFilonRule:
    """The phase-span rule of the real-line engine (``crosschecks._FCC``)
    and its Clenshaw-Curtis twin (``crosschecks._CC``)."""

    # half-widths of the first seeded span (_NEAR_PHASE), of the span at
    # _FAR_SPAN and three bisection levels, of the largest span seeded at the
    # crossrep-eps point (8 _FAR_SPAN), and just below, at and above the
    # degrees, where the moments change from Gauss-Legendre to the recurrence
    OMEGAS = (
        [_NEAR_PHASE / 2]
        + [_FAR_SPAN / 2 ** (level + 1) for level in range(4)]
        + [4.0 * _FAR_SPAN]
        + [
            np.nextafter(float(n), side)
            for n in (_DEGREE // 2, _DEGREE)
            for side in (0.0, n, np.inf)
        ]
    )

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_weights_integrate_chirped_chebyshev(self, omega):
        # the value rule is exact for T_k e^{i omega tau}, k <= n, its
        # embedded rule for k <= n/2
        ref = _chirp_moments_mp(_DEGREE, omega)
        for n in (_DEGREE, _DEGREE // 2):
            assert np.abs(_chebyshev_moments(n, omega) - ref[: n + 1]).max() <= 1e-13, n
            w = _fcc_weights(n, omega)
            j = np.arange(n + 1)
            for k in range(n + 1):
                assert abs(w @ np.cos(np.pi * j * k / n) - ref[k]) <= 1e-13, (n, k)

    @pytest.mark.parametrize("n", [_DEGREE // 2, _DEGREE])
    def test_moments_take_the_recurrence_from_omega_n(self, n, monkeypatch):
        # the composite Gauss-Legendre pass only below |omega| = n
        seen = []
        _record_omegas(monkeypatch, "_quadrature_moments", seen)
        for omega in (float(n), -float(n), 4.0 * _FAR_SPAN, np.nextafter(float(n), 0.0), -0.5 * n):
            _chebyshev_moments(n, omega)
        assert seen == [np.nextafter(float(n), 0.0), -0.5 * n]

    def test_nodes_and_fixed_weights(self):
        # Chebyshev points j = 0..n, the embedded rule's the even j; the
        # fixed weights are the rule at omega = 0, Clenshaw-Curtis, exact for
        # every power up to n (the embedded ones up to n/2), and the
        # central panel's rule: one set of arrays for both
        n = _DEGREE
        assert len(_CC.nodes) == len(_CC.weights) == len(_CC.embedded) == n + 1
        assert np.array_equal(_CC.nodes, np.cos(np.pi * np.arange(n + 1) / n))
        assert not _CC.embedded[1::2].any()
        for k in range(n + 1):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(_CC.weights @ _CC.nodes**k - exact) <= 1e-14
            if k <= n // 2:
                assert abs(_CC.embedded @ _CC.nodes**k - exact) <= 1e-14
        for name in ("nodes", "weights", "embedded"):
            assert getattr(_FCC, name) is getattr(_CC, name)

    @pytest.mark.parametrize("k", [0, 1, 7, 32, _DEGREE])
    def test_panel_sums_take_the_chirp_by_panel(self, k):
        # int_lo^hi e^{i phi} T_k((phi - mid) / half) dphi = half e^{i mid} mu_k(half):
        # the integrand hands in T_k alone, the panel's factor brings the chirp
        lo, hi = 3.0 * _FAR_SPAN, 4.0 * _FAR_SPAN
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        with mp.workdps(30):
            chirp = complex(mp.expj(mid))
        exact = half * chirp * _chirp_moments_mp(k, half)[k]
        coef = [0.0] * k + [1.0]
        vals, errs = _panel_sums(
            lambda phi: np.polynomial.chebyshev.chebval((phi - mid) / half, coef) + 0j,
            np.array([lo]), np.array([hi]), _FCC,
        )
        assert abs(vals[0] - exact) <= 1e-12
        if k <= _DEGREE // 2:  # the embedded rule is exact too
            assert errs[0] <= 1e-12


class TestRotatedIntegral:
    def test_fresnel_constant(self):
        r = rotated(ONE)
        assert abs(r.value - FRESNEL) < 1e-10
        assert isinstance(r, QuadratureResult)
        assert r.err_estimate >= abs(r.value - FRESNEL)

    def test_scaling_and_translation(self):
        for a, y1 in ((2.5, 0.0), (0.3, 1.7), (2500.0, 1.3)):
            r = rotated(ONE, a=a, y1=y1)
            assert abs(r.value - np.sqrt(np.pi / a) * np.exp(1j * np.pi / 4)) < 1e-11

    def test_plane_wave_square_completion(self):
        r = rotated(PW2)
        assert abs(r.value - FRESNEL * np.exp(-1j)) < 1e-10

    def test_even_polynomial(self):
        poly = sig(lambda z: np.asarray(z, dtype=complex) ** 2, 2.0, 1.0)
        r = rotated(poly)
        assert abs(r.value - 0.5j * FRESNEL) < 1e-10

    def test_angle_independence(self):
        for f in (ONE, PW2, COS):
            vals = [
                rotated(f, angle=ang).value
                for ang in (np.pi / 6, np.pi / 4)
            ]
            assert abs(vals[0] - vals[1]) <= 10 * 1e-12

    def test_linearity(self):
        comb = sig(lambda z: 2.0 * np.exp(1j * z) - 0.5j * np.cos(z), 2.5, 1.0)
        f1 = sig(lambda z: np.exp(1j * z), 1.0, 1.0)
        lhs = rotated(comb).value
        rhs = 2.0 * rotated(f1).value - 0.5j * rotated(COS).value
        assert abs(lhs - rhs) < 5e-13

    @pytest.mark.parametrize("f", [ONE, PW2, COS], ids=["one", "pw2", "cos"])
    def test_counts_match_integrand_calls(self, f):
        # every seeded GL-15/GL-7 panel costs 22 nodes and every split 44,
        # the arithmetic a caller can derive panels from
        sizes = []
        counted = sig(
            lambda z: sizes.append(np.size(z)) or f.eval(z), f.growth.amplitude, f.growth.rate
        )
        r = rotated(counted)
        assert r.rounds > 0
        assert len(sizes) == r.rounds + 1
        assert sum(sizes) == r.nodes
        seeded = sizes[0] // 22
        assert r.nodes == 22 * seeded + 44 * (r.panels_used - seeded)

    def test_panel_budget_raises(self, monkeypatch):
        monkeypatch.setattr(contour_quad, "_MAX_PANELS", 4)
        wild = sig(lambda z: np.exp(1j * 200.0 * np.asarray(z) ** 2), 1.0, 0.0)
        with pytest.raises(PanelExhausted):
            rotated(wild, a=1e-4, tol=1e-14)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            rotated(ONE, a=-1.0)
        with pytest.raises(ValueError):
            rotated(ONE, angle=2.0)
        with pytest.raises(ValueError):
            rotated(ONE, tol=0.0)


def _mirror(f):
    """f*(z) = conj f(conj z), real-line values conjugated, witness
    frequency -w: the integral of e^{-i a (y - y1)^2} f* is the conjugate
    of that of e^{i a (y - y1)^2} f."""
    g = f.growth
    return HolomorphicSignal(
        eval=lambda z: np.conj(f.eval(np.conj(np.asarray(z, dtype=complex)))),
        growth=GrowthWitness(g.amplitude, g.rate, g.kind, -g.freq),
        label="mirror",
    )


class TestMirroredContour:
    """Where a < 0 the line turns down: angle -pi/4 makes e^{i a (z - y1)^2}
    the same Gaussian, and the problem is the conjugate mirror image of the
    a > 0 one."""

    def test_radius_is_mirror_image(self):
        for w, a, angle, y1, tol, shift in itertools.islice(_radius_sweep(), 0, None, 7):
            for freq in (0.0, 1.3, -4.0):
                up = GrowthWitness(w.amplitude, w.rate, freq=freq)
                down = GrowthWitness(w.amplitude, w.rate, freq=-freq)
                assert truncation_radius(up, a, angle, y1, tol, shift) == truncation_radius(
                    down, -a, -angle, y1, tol, shift
                )

    @pytest.mark.parametrize(
        "a, angle",
        [(1.0, -0.5), (-1.0, 0.5), (0.0, 0.5), (-0.0, -0.5), (1.0, 0.0), (-1.0, -0.0),
         (1.0, np.pi / 2), (-1.0, -np.pi / 2), (-1.0, -2.0)],
    )
    def test_sign_mismatch_or_wide_angle_rejected(self, a, angle):
        with pytest.raises(ValueError, match="one sign"):
            truncation_radius(GrowthWitness(1.0, 0.0), a, angle, 0.0, 1e-9, 0.0)

    def test_closed_forms(self):
        # int e^{i a y^2} dy = sqrt(pi/|a|) e^{-i pi/4} and
        # int e^{-i y^2 + 2 i y} dy = sqrt(pi) e^{-i pi/4} e^{i} for a < 0
        for a in (-1.0, -0.3, -250.0):
            r = rotated(ONE, a=a, angle=-np.pi / 4)
            exact = np.sqrt(np.pi / -a) * np.exp(-1j * np.pi / 4)
            assert abs(r.value - exact) <= r.err_estimate
        r = rotated(PW2, a=-1.0, angle=-np.pi / 4)
        assert abs(r.value - np.conj(FRESNEL) * np.exp(1j)) <= r.err_estimate

    @pytest.mark.parametrize(
        "f", [ONE, PW2, COS, plane_wave(2.0), superosc_signal(10, 2.0)],
        ids=["one", "pw2", "cos", "plane2", "superosc10"],
    )
    def test_integral_is_conjugate_of_mirror(self, f):
        for a, y1, center in ((-1.0, 0.0, 0.0), (-0.3, 1.7, 1.2), (-4.0, -0.5, -0.25)):
            down = rotated_integral(f, a=a, y1=y1, center=center, angle=-np.pi / 4, tol=1e-10)
            up = rotated_integral(
                _mirror(f), a=-a, y1=y1, center=center, angle=np.pi / 4, tol=1e-10
            )
            assert abs(down.value - np.conj(up.value)) <= down.err_estimate + up.err_estimate


class TestEpsilonRegularized:
    def test_gaussian_closed_form(self):
        for eps in (1e-1, 1e-2, 1e-3):
            v = epsilon_regularized_integral(ONE, 1.0, 0.0, 0.0, eps, tol=1e-12)
            assert abs(v - np.sqrt(np.pi / (eps - 1j))) < 1e-10

    def test_sequence_approaches_rotated(self):
        rot = rotated(ONE, tol=1e-13).value
        diffs = [
            abs(epsilon_regularized_integral(ONE, 1.0, 0.0, 0.0, eps, tol=1e-11) - rot)
            for eps in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_growing_integrand_sequence(self):
        # e^{z/2}: below eps ~ B^2/120 the cancellation e^{B^2/(4 eps)}
        # exceeds doubles, so the tested sequence stops at 4e-3
        grow = sig(lambda z: np.exp(0.5 * np.asarray(z, dtype=complex)), 1.0, 0.5)
        rot = rotated(grow, tol=1e-13).value
        diffs = [
            abs(epsilon_regularized_integral(grow, 1.0, 0.0, 0.0, eps, tol=1e-8) - rot)
            for eps in (1e-1, 1e-2, 4e-3)
        ]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_cancellation_limited_raises(self):
        # at eps = 2e-3 the regularized e^{z/2} integrand peaks at
        # e^{B^2/(4 eps)} ~ e^{31}: the requested tolerance is unreachable
        # and the stagnation guard reports it instead of burning panels
        grow = sig(lambda z: np.exp(0.5 * np.asarray(z, dtype=complex)), 1.0, 0.5)
        with pytest.raises(PanelExhausted, match="stagnated"):
            epsilon_regularized_integral(grow, 1.0, 0.0, 0.0, 2e-3, tol=1e-8)

    def test_odd_integrand_vanishes(self):
        odd = sig(lambda z: np.asarray(z, dtype=complex), 1.0, 1.0)
        v = epsilon_regularized_integral(odd, 1.0, 0.0, 0.0, 1e-2, tol=1e-12)
        assert abs(v) < 1e-11

    def test_center_independence(self):
        # exact spread |sqrt(pi/(eps-i))| |e^{i eps y0^2/(eps-i)} - 1| ~ 1.6e-3
        vals = [
            epsilon_regularized_integral(ONE_IM, 1.0, 0.0, y0, 1e-4, tol=1e-8)
            for y0 in (0.0, 1.0, -3.0)
        ]
        spread = max(abs(a - b) for a in vals for b in vals)
        assert spread <= 2e-3
        closer = [
            epsilon_regularized_integral(ONE_IM, 1.0, 0.0, y0, 1e-5, tol=3e-5)
            for y0 in (0.0, -3.0)
        ]
        assert abs(closer[0] - closer[1]) <= 2e-4

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            epsilon_regularized_integral(ONE, 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "t, y1, kappa, eps, tol",
        [
            (0.3, 0.4, 2.0, 1e-5, 1e-5),
            (0.3, 0.4, 2.0, 1e-5, 1e-8),
            (0.1, -1.0, 3.0, 1e-4, 1e-9),
            (0.05, 0.0, 2.0, 1e-4, 1e-10),
        ],
    )
    def test_free_plane_wave_closed_form(self, free_kernel, t, y1, kappa, eps, tol):
        # true error of the comparator on the free kernel times a plane wave
        a = free_kernel.a(t)
        g0 = free_kernel.gtilde(t, y1, np.array([0j]))[0]
        f = _free_plane_wave(free_kernel, t, y1, kappa)
        v = epsilon_regularized_integral(f, a, y1, 0.0, eps, tol=tol)
        A, B = eps - 1j * a, -2j * a * y1 + 1j * kappa
        exact = g0 * np.sqrt(np.pi / A) * np.exp(B * B / (4 * A) + 1j * a * y1 * y1)
        assert abs(v - exact) <= tol

    @staticmethod
    def _crossrep_signal(kernel, t, x, kappa):
        # the plane-wave datum under the kernel's imag witness, as the
        # cross-representation workload builds it
        a0, _ = kernel.growth_imag(t, x)
        return sig(
            lambda y: kernel.gtilde(t, x, y) * np.exp(1j * kappa * np.asarray(y, dtype=complex)),
            2.0 * a0,
            0.0,
            "imag",
        )

    def test_crossrep_point_matches_whole_window_k61(self, free_kernel, pt1_kernel):
        # kappa=2, t=0.3, x=0.4, eps=1e-5, tol 1e-5: the values of K-61
        # equal-phase panels over the whole window (2.88 M and 3.17 M nodes)
        k61 = {
            "free": 0.921052762715166 - 0.38942137627881246j,
            "pt1": 1.0792749841782316 + 0.10673319821726775j,
        }
        t, x = 0.3, 0.4
        for label, kernel in (("free", free_kernel), ("pt1", pt1_kernel)):
            f = self._crossrep_signal(kernel, t, x, 2.0)
            v = epsilon_regularized_integral(f, kernel.a(t), x, 0.0, 1e-5, tol=1e-5)
            assert abs(v - k61[label]) <= 1e-10, label

    def test_window_inside_central_panel_is_one_cc_call(self, monkeypatch):
        # a window where |a| (y - y1)^2 stays below _NEAR_PHASE is one
        # Clenshaw-Curtis call on the whole tol
        rules = []
        adaptive_panels = contour_quad._adaptive_panels

        def adaptive(g, edges, tol, budget, rule):
            rules.append(rule)
            return adaptive_panels(g, edges, tol, budget, rule)

        monkeypatch.setattr(crosschecks, "_adaptive_panels", adaptive)
        v = epsilon_regularized_integral(ONE, 1.0, 0.0, 0.0, 4.0, tol=1e-12)
        assert abs(v - np.sqrt(np.pi / (4.0 - 1j))) <= 1e-12
        assert v == 0.8663562804298891 + 0.10665333191004572j
        v = truncated_integral(ONE_IM, 1.0, 0.0, 3.0, 3.0, tol=1e-12)
        c = np.sqrt(-1j)
        assert abs(v - SQRT_PI / c * erf_complex(3.0 * c)) <= 1e-12
        assert v == 1.4057271154605329 + 1.5471250537875356j
        assert rules == [_CC, _CC]

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_negative_rate_is_the_conjugate_route(self, a):
        # the closed form of the module docstring at kappa = 2, y1 = 0.5;
        # the phase spans reach 2.5e5 rad on either side
        eps, y1 = 1e-4, 0.5
        v = epsilon_regularized_integral(PW2_IM, a, y1, 0.0, eps, tol=1e-9)
        big_a, big_b = eps - 1j * a, -2j * a * y1 + 2j
        exact = np.sqrt(np.pi / big_a) * np.exp(big_b**2 / (4 * big_a) + 1j * a * y1**2)
        assert abs(v - exact) <= 1e-9

    def test_rounding_floor_meets_tol_or_refuses(self):
        # e^{z/2} at eps = 3e-3 peaks at e^{1/(16 eps)} ~ 1e9 on the window:
        # where the panel values cancel that far, the estimate is kept at
        # their rounding, so the value meets tol or the call refuses
        grow = sig(lambda z: np.exp(0.5 * np.asarray(z, dtype=complex)), 1.0, 0.5)
        big_a = 3e-3 - 1j
        exact = np.sqrt(np.pi / big_a) * np.exp(1.0 / (16.0 * big_a))
        try:
            v = epsilon_regularized_integral(grow, 1.0, 0.0, 0.0, 3e-3, tol=1e-8)
        except PanelExhausted:
            return
        assert abs(v - exact) <= 1e-8

    def test_panel_budget_applies_to_seeding(self, monkeypatch):
        # the comparators' panel budget guards the phase seeding itself,
        # before any edge is allocated: up to phi = 500 _FAR_SPAN one side
        # takes 8 spans from _NEAR_PHASE to _FAR_SPAN, then 7 + 12 + 24 + 47
        far = (0.0, np.sqrt(500.0 * _FAR_SPAN), 1.0)
        monkeypatch.setattr(crosschecks, "_REAL_MAX_PANELS", 98)
        assert len(_phase_edges(*far)) == 99
        monkeypatch.setattr(crosschecks, "_REAL_MAX_PANELS", 97)
        with pytest.raises(PanelExhausted, match="seeding"):
            _phase_edges(*far)
        # a comparator call shares the budget among its stretches: 34 spans
        # on either side of y1 and the central panel take more than 60
        monkeypatch.setattr(crosschecks, "_REAL_MAX_PANELS", 60)
        with pytest.raises(PanelExhausted, match="seeding"):
            epsilon_regularized_integral(ONE_IM, 1.0, 0.0, 0.0, 1e-4, tol=1e-8)

    def test_far_spans_double_every_fourfold_phase(self):
        # in units of _FAR_SPAN: spans as wide as phi from _NEAR_PHASE on,
        # then _FAR_SPAN 2^j from phi = 2 4^j _FAR_SPAN on
        geometric = [_NEAR_PHASE * 2.0**k / _FAR_SPAN for k in range(8)]
        assert geometric[-1] == 0.5
        edges = _phase_edges(0.0, np.sqrt(100.0 * _FAR_SPAN), 1.0) / _FAR_SPAN
        assert edges.tolist() == (
            geometric + list(range(1, 8)) + list(range(8, 32, 2)) + list(range(32, 101, 4))
        )
        # the grid is clipped to the window at both ends
        edges = _phase_edges(np.sqrt(9.0 * _FAR_SPAN), np.sqrt(33.0 * _FAR_SPAN), 1.0) / _FAR_SPAN
        assert edges.tolist() == [9.0] + list(range(10, 33, 2)) + [33.0]
        edges = _phase_edges(0.0, 20.0, 4.0) / _FAR_SPAN
        assert edges.tolist() == geometric[:-1] + [1600.0 / _FAR_SPAN]
        # no phase spans where the window ends inside the central panel
        assert _phase_edges(0.0, np.sqrt(_NEAR_PHASE), 1.0) is None
        assert _phase_edges(0.0, -5.0, 1.0) is None

    def test_crossrep_cost(self, free_kernel, pt1_kernel, monkeypatch):
        # both kernels of the cross-representation check: node count, largest
        # integrand batch, and refinement beyond the seeding of each stretch
        # (5.3 M and 6.1 M nodes with K-21 panels of 12 rad, 2.88 M and
        # 3.17 M with K-61 panels of 64 rad on the whole window, 56,156 and
        # 60,966 with K-61 to 4096 rad and Filon panels of span 4096 beyond;
        # 17,932 and 18,452 with spans that double as phi grows 4x; 10,855
        # and 11,375 with the phase spans from _NEAR_PHASE on)
        t, x, kappa = 0.3, 0.4, 2.0
        calls = []
        adaptive_panels = contour_quad._adaptive_panels

        def adaptive(g, edges, tol, budget, rule):
            out = adaptive_panels(g, edges, tol, budget, rule)
            calls.append((len(edges) - 1, out[3], rule))
            return out

        monkeypatch.setattr(crosschecks, "_adaptive_panels", adaptive)
        for kernel in (free_kernel, pt1_kernel):
            sizes = []
            calls.clear()

            def integrand(y, kernel=kernel):
                y = np.asarray(y, dtype=complex)
                sizes.append(y.size)
                return kernel.gtilde(t, x, y) * np.exp(1j * kappa * y)

            a0, _ = kernel.growth_imag(t, x)
            f = sig(integrand, 2.0 * a0, 0.0, "imag")
            epsilon_regularized_integral(f, kernel.a(t), x, 0.0, 1e-5, tol=1e-5)
            # the phase spans on either side on FCC, then the central panel on CC
            assert [rule for _, _, rule in calls] == [_FCC, _FCC, _CC]
            assert sum(nodes for _, nodes, _ in calls) == sum(sizes) <= 11_500
            assert max(sizes) <= 4096
            for seeded, nodes, rule in calls:
                assert nodes <= 1.1 * len(rule.nodes) * seeded

    def test_crossrep_far_spans_and_tables(self, free_kernel, pt1_kernel, monkeypatch):
        # at the cross-representation point each side seeds 82 (free) or 86
        # (Poschl-Teller) spans of one dyadic grid, up to 8 _FAR_SPAN, the
        # last one clipped to the window; the tables of a fresh cache are of
        # a dyadic half-span or of a clipped last span, and only the spans
        # below half-width _DEGREE take their moments by quadrature
        seeds, omegas, quadrature = [], [], []
        adaptive_panels = contour_quad._adaptive_panels

        def adaptive(g, edges, tol, budget, rule):
            if rule is _FCC:
                seeds.append(np.diff(edges))
            return adaptive_panels(g, edges, tol, budget, rule)

        monkeypatch.setattr(crosschecks, "_adaptive_panels", adaptive)
        filon_table = _record_omegas(monkeypatch, "_filon_table", omegas)
        _record_omegas(monkeypatch, "_quadrature_moments", quadrature)
        filon_table.cache_clear()
        for kernel in (free_kernel, pt1_kernel):
            f = self._crossrep_signal(kernel, 0.3, 0.4, 2.0)
            epsilon_regularized_integral(f, kernel.a(0.3), 0.4, 0.0, 1e-5, tol=1e-5)
        dyadic = {_NEAR_PHASE * 2.0**k for k in range(8)} | {_FAR_SPAN * 2.0**k for k in range(4)}
        assert len(seeds) == 4 and max(len(spans) for spans in seeds) <= 90
        for spans in seeds:
            assert set(spans[:-1]) == dyadic and (np.diff(spans[:-1]) >= 0).all()
            assert spans[-1] <= spans[-2]
        clipped = {0.5 * spans[-1] for spans in seeds}
        assert {omega for omega in omegas if math.frexp(omega)[0] != 0.5} == clipped
        assert max(omegas) == 4.0 * _FAR_SPAN
        assert set(quadrature) == {0.5 * span for span in dyadic if span < 2 * _DEGREE}
        assert filon_table.cache_info().currsize <= 20

    def test_filon_tables_stay_bounded_on_distinct_windows(self):
        # a clipped end span has a half-width of its own, so every window
        # brings tables of its own; the cache keeps a bounded number of them
        filon_table = crosschecks._filon_table
        filon_table.cache_clear()
        for r in np.linspace(4.5, 5.5, 300):
            truncated_integral(ONE_IM, 1.0, 0.0, 0.0, r, tol=1e-9)
        info = filon_table.cache_info()
        assert info.misses > info.maxsize >= info.currsize


class TestTruncatedIntegral:
    def test_empty_interval(self):
        assert truncated_integral(ONE_IM, 1.0, 0.0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("r1, r2", [(-1.0, 2.0), (2.0, -1.0)])
    def test_negative_bounds_refused(self, r1, r2):
        with pytest.raises(ValueError, match="nonnegative"):
            truncated_integral(ONE_IM, 1.0, 0.0, r1, r2)

    def test_oscillating_convergence_to_rotated(self):
        rot = rotated(ONE, tol=1e-13).value
        diffs = [
            abs(truncated_integral(ONE_IM, 1.0, 0.0, r, r, tol=1e-11) - rot)
            for r in (5.0, 10.0, 20.0)
        ]
        # O(1/R) envelope
        for r, d in zip((5.0, 10.0, 20.0), diffs):
            assert d <= 2.0 / r
        assert diffs[-1] < diffs[0]

    def test_imag_bounded_at_r40(self):
        rot = rotated(sig(lambda z: np.exp(1j * z), 1.0, 1.0), tol=1e-13).value
        pw1 = sig(lambda z: np.exp(1j * z), 1.0, 1.0, "imag")
        v = truncated_integral(pw1, 1.0, 0.0, 40.0, 40.0, tol=1e-10)
        assert abs(v - rot) <= 5e-2

    def test_asymmetric_truncations_converge(self):
        rot = rotated(ONE, tol=1e-13).value
        near = abs(truncated_integral(ONE_IM, 1.0, 0.0, 5.0, 8.0, tol=1e-11) - rot)
        far = abs(truncated_integral(ONE_IM, 1.0, 0.0, 30.0, 50.0, tol=1e-11) - rot)
        assert far < near

    def test_modulus_witness_warns(self):
        with pytest.warns(UserWarning, match="modulus-bound"):
            truncated_integral(ONE, 1.0, 0.0, 3.0, 3.0, tol=1e-9)

    def test_imag_witness_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truncated_integral(ONE_IM, 1.0, 0.0, 3.0, 3.0, tol=1e-9)

    @pytest.mark.parametrize(
        "a, y1, r1, r2, tol",
        [
            (1.0, 0.0, 40.0, 40.0, 1e-10),
            (2.5, 0.7, 5.0, 30.0, 1e-11),
            (1.0 / 1.2, 0.4, 20.0, 10.0, 1e-12),
            (5.0, -1.0, 0.5, 60.0, 1e-9),
        ],
    )
    def test_constant_closed_form(self, a, y1, r1, r2, tol):
        c = np.sqrt(-1j * a)
        exact = 0.5 * SQRT_PI / c * (erf_complex(c * (r2 - y1)) + erf_complex(c * (r1 + y1)))
        assert abs(truncated_integral(ONE_IM, a, y1, r1, r2, tol=tol) - exact) <= tol


class TestBatchCap:
    """No result depends on where ``_panel_sums`` splits a pass into
    integrand calls: a cap of 7 rotated or 3 real-line panels gives
    bit-identical results."""

    GROW = sig(lambda z: np.exp(0.5 * np.asarray(z, dtype=complex)), 1.0, 0.5)

    @staticmethod
    def _at_caps(monkeypatch, small, run):
        # (_adaptive_panels outputs, integrand calls, result) per cap
        adaptive_panels = contour_quad._adaptive_panels
        out = []
        for cap in (contour_quad._BATCH_NODES, small):
            monkeypatch.setattr(contour_quad, "_BATCH_NODES", cap)
            passes, calls = [], []

            def adaptive(g, edges, *args):
                def counted(y):
                    calls.append(np.size(y))
                    return g(y)

                passes.append(adaptive_panels(counted, edges, *args))
                return passes[-1]

            # the rotated route looks the name up here, the real-line ones
            # in crosschecks
            monkeypatch.setattr(contour_quad, "_adaptive_panels", adaptive)
            monkeypatch.setattr(crosschecks, "_adaptive_panels", adaptive)
            result = run()
            out.append((passes, len(calls), result))
        return out

    @pytest.mark.parametrize("case", ["eps-refining", "eps-pt1", "truncated"])
    def test_real_line_routes(self, case, pt1_kernel, monkeypatch):
        t, x = 0.3, 0.4
        runs = {
            "eps-refining": lambda: epsilon_regularized_integral(
                self.GROW, 1.0, 0.0, 0.0, 4e-3, tol=1e-8
            ),
            "eps-pt1": lambda: epsilon_regularized_integral(
                _free_plane_wave(pt1_kernel, t, x, 2.0), pt1_kernel.a(t), x, 0.0, 1e-3,
                tol=1e-8,
            ),
            "truncated": lambda: truncated_integral(PW2_IM, 1.0, 0.0, 20.0, 20.0, tol=1e-10),
        }
        (full, full_calls, full_val), (split, split_calls, split_val) = self._at_caps(
            monkeypatch, 3 * len(_CC.nodes), runs[case]
        )
        assert split == full and split_val == full_val
        assert split_calls > full_calls
        if case == "eps-refining":
            assert any(rounds > 0 for *_, rounds in full)

    def test_rotated_pass(self, pt2_kernel, monkeypatch):
        # a sech^2-well point whose seed still takes two refinement rounds
        # at tol 1e-10 (at x = 2 the seed alone converges)
        run = lambda: wavefunction_result(pt2_kernel, plane_wave(2.0), 1.0, 0.0, 1e-10)
        (full, full_calls, full_res), (split, split_calls, split_res) = self._at_caps(
            monkeypatch, 7 * 22, run
        )
        assert split == full and split_res == full_res
        assert full_res.rounds > 0 and full_calls == full_res.rounds + 1
        assert split_calls > full_calls


RULES = pytest.mark.parametrize("rule", [_GL15_GL7, _CC], ids=["gl15-gl7", "cc"])


class TestPanelProduct:
    """Both sums of every panel come from one real product (``_panel_sums``)."""

    @staticmethod
    def _pass(rule, rng, rows=(), panels=37):
        # random integrand values spread over e^{+-5}: one call of each rule
        edges = np.sort(rng.uniform(-5.0, 5.0, panels + 1))
        shape = rows + (panels * len(rule.nodes),)
        f = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.exp(rng.uniform(-5, 5, shape))
        return edges[:-1], edges[1:], f

    @RULES
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["lone", "stack"])
    def test_within_rounding_of_explicit_weighted_sums(self, rule, rows, rng):
        lows, highs, f = self._pass(rule, rng, rows)
        vals, errs = _panel_sums(lambda y: f, lows, highs, rule)
        half = 0.5 * (highs - lows)
        fp = f.reshape(rows + (len(lows), len(rule.nodes)))
        value = fp * rule.weights
        embedded = fp * rule.embedded
        v = value.sum(axis=-1) * half
        d = np.abs(v - embedded.sum(axis=-1) * half)
        eps = np.finfo(float).eps
        assert vals.shape == errs.shape == rows + (len(lows),)
        assert np.all(np.abs(vals - v) <= 4 * eps * np.abs(value).sum(axis=-1) * half)
        # the rounding of d, times the slope of the estimate in d: 1 where it
        # is d, 1.5 est / d where the power law acts (50 d < s)
        est = rule.estimate(fp, d, half, v)
        scale = (np.abs(value).sum(axis=-1) + np.abs(embedded).sum(axis=-1)) * half
        slope = np.maximum(1.0, 1.5 * est / d)
        assert np.all(np.abs(errs - est) <= 4 * eps * scale * slope)

    def test_tables_are_real_blocks_of_the_weights(self):
        # a real weight w is the block w I_2, bit for bit; a complex Filon
        # weight the block [[wr, wi], [-wi, wr]]
        for rule in (_GL15_GL7, _CC):
            cols = np.column_stack([rule.weights, rule.embedded])
            assert rule.table.tobytes() == np.kron(cols, np.eye(2)).tobytes()
        n, omega = _DEGREE, _FAR_SPAN
        cols = np.zeros((n + 1, 2), dtype=complex)
        cols[:, 0] = _fcc_weights(n, omega)
        cols[::2, 1] = _fcc_weights(n // 2, omega)
        table = crosschecks._filon_table(n, omega)
        assert table.shape == (2 * n + 2, 4) and not table.flags.writeable
        assert np.array_equal(table[0::2, 0::2] + 1j * table[0::2, 1::2], cols)
        assert np.array_equal(table[1::2, 1::2] - 1j * table[1::2, 0::2], cols)

    @pytest.mark.parametrize(
        "rule", [_GL15_GL7, _CC, _FCC], ids=["gl15-gl7", "cc", "fcc"]
    )
    def test_stack_rows_and_lone_panels_bit_identical(self, rule, rng):
        # no panel's sums depend on the other rows of its product: not on
        # the other signals of a stack, nor on the other panels of a call
        # (a one-row product would go to BLAS's gemv); the random spans
        # give the Filon rule one product per panel
        lows, highs, f = self._pass(rule, rng, (3,))
        vals, errs = _panel_sums(lambda y: f, lows, highs, rule)
        m = len(rule.nodes)
        for k in range(3):
            alone = _panel_sums(lambda y: f[k], lows, highs, rule)
            assert np.array_equal(alone[0], vals[k]) and np.array_equal(alone[1], errs[k])
            for p in (0, 5, len(lows) - 1):
                one = _panel_sums(lambda y: f[k, p * m : (p + 1) * m], lows[p : p + 1], highs[p : p + 1], rule)
                assert one[0].tolist() == [vals[k, p]] and one[1].tolist() == [errs[k, p]]


# the poisoned nodes make numpy warn in the panel products and the
# integrand; the warnings are expected here and nowhere else
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul:RuntimeWarning",
    "ignore:invalid value encountered in multiply:RuntimeWarning",
)
class TestNonFiniteIntegrand:
    """A NaN or an infinity at any node makes a pass fail, as an
    ``EvaluationOverflow``: a NaN at a value node, an infinity at a node of
    the GL-7 estimate only, and +inf/-inf at two value nodes of a panel."""

    CASES = {
        "nan": [(5, np.nan)],
        "inf": [(17, np.inf)],
        "inf-minus-inf": [(5, np.inf), (9, -np.inf)],
    }

    @staticmethod
    def _poisoned(bad):
        # a plane wave whose first integrand call carries the bad values
        wave = plane_wave(2.0)
        left = [1]

        def ev(z):
            v = np.asarray(wave.eval(z))
            if left[0] and v.size:
                left[0] -= 1
                for k, val in bad:
                    v[k] = val
            return v

        return HolomorphicSignal(eval=ev, growth=wave.growth, label="poisoned")

    def _signals(self, case, stacked):
        f = self._poisoned(self.CASES[case])
        return signal_stack([plane_wave(2.0), f, plane_wave(2.0)]) if stacked else f

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_rotated_integral_raises(self, case, stacked):
        f = self._signals(case, stacked)
        with pytest.raises(EvaluationOverflow, match="non-finite"):
            rotated(f, y1=-1.0, tol=1e-10)

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_wavefield_records_point_and_finishes(self, case, stacked, free_kernel):
        f = self._signals(case, stacked)
        fld = wavefield(free_kernel, f, [0.2, 0.4], [-1.0, 0.0, 1.0], tol=1e-9)
        assert [(t, x) for t, x, _ in fld.failures] == [(0.2, -1.0)]
        assert fld.failures[0][2].startswith("EvaluationOverflow")
        assert np.all(np.isnan(fld.values[..., 0, 0]))
        assert np.all(np.isfinite(fld.values.reshape(fld.values.shape[:-2] + (-1,))[..., 1:]))
        assert (fld.nodes > 0).sum() == 5


class TestWitnessValidation:
    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            GrowthWitness(-1.0, 0.0)
        with pytest.raises(ValueError):
            GrowthWitness(1.0, -2.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            GrowthWitness(1.0, 0.0, "bogus")
