"""Coefficient ODE solvers against closed forms.

Closed-form oracles (verified by substitution into the defining ODEs):
  oscillator, lam = 1:   alpha = sin(2t)/2, beta = cos(2t), first alpha
                         zero at pi/2, first beta zero at pi/4
  oscillator, lam = -1:  alpha = sinh(2t)/2, beta = cosh(2t), no zeros
  field, lam(t) = t:     p = -t^2/3, q = -t^2/6, r = -t^5/45
  field, lam = c:        p = q = -c t/2, r = -c^2 t^3/12

q solves t q'' + 2 q' = -lam.  Note the lam = c field coefficients:
substituting q = -c t^2/6 into it gives -c t, not -c, so that pairing
belongs to lam(t) = c t.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from supershift_lab.crosschecks import wronskian_drift
from supershift_lab.errors import SupershiftError
from supershift_lab.evolve import wavefield
from supershift_lab.greens import Harmonic, make_kernel
from supershift_lab.initial_data import plane_wave
from supershift_lab.ode_coeff import (
    QuadraticCoeffs,
    _march,
    _zero,
    solve_electric,
    solve_harmonic,
    solve_quadratic,
)


@pytest.mark.parametrize("t_max", [0.0, -1.0])
def test_solve_needs_positive_t_max(t_max):
    with pytest.raises(ValueError, match="t_max > 0"):
        solve_quadratic(_zero, _zero, t_max)


class TestHarmonic:
    def test_unit_frequency_closed_forms(self):
        h = solve_harmonic(lambda t: 1.0, t_max=1.65)
        ts = np.linspace(0.0, np.pi / 2, 53)
        assert max(abs(h.alpha(t) - np.sin(2 * t) / 2) for t in ts) <= 1e-10
        assert max(abs(h.beta(t) - np.cos(2 * t)) for t in ts) <= 1e-10
        assert max(abs(h.alpha_prime(t) - np.cos(2 * t)) for t in ts) <= 1e-10

    def test_horizons(self):
        # alpha's zeros, the caustics k pi/2, step the Maslov count; beta's
        # zero, the focal time pi/4, does not
        h = solve_harmonic(lambda t: 1.0, t_max=3.2)
        assert abs(h.beta(np.pi / 4)) <= 1e-10
        for t in np.linspace(1e-3, 3.2, 321):
            m = 0 if t < np.pi / 2 else (1 if t < np.pi else 2)
            assert h.maslov(t) == m
            assert (h.alpha(t) > 0.0) == (m % 2 == 0)

    def test_free_reduction(self):
        h = solve_harmonic(lambda t: 0.0, t_max=2.0)
        assert h.alpha(1.3) == pytest.approx(1.3, abs=1e-12)
        assert h.beta(0.7) == pytest.approx(1.0, abs=1e-12)
        assert all(h.maslov(t) == 0 for t in np.linspace(0.0, 2.0, 41))
        # a(t) = beta/(4 alpha) = 1/(4t) recovers the free rate
        assert abs(h.beta(0.5) / (4 * h.alpha(0.5)) - 1.0 / 2.0) < 1e-12

    def test_inverted_oscillator(self):
        h = solve_harmonic(lambda t: -1.0, t_max=2.0)
        ts = np.linspace(0.0, 2.0, 41)
        assert max(abs(h.alpha(t) - np.sinh(2 * t) / 2) for t in ts) <= 5e-10
        assert max(abs(h.beta(t) - np.cosh(2 * t)) for t in ts) <= 5e-10
        assert all(h.maslov(t) == 0 for t in ts)

    def test_error_is_the_panels_own(self):
        # the certificate at t bounds the coefficients' absolute error on
        # t's panel and grows with them: e^{2t} on the inverted oscillator
        h = solve_harmonic(lambda t: -1.0, t_max=10.0)
        for t in (0.3, 1.0, 4.0, 9.0):
            exact = (np.sinh(2 * t) / 2, np.cosh(2 * t), np.cosh(2 * t))
            got = (h.alpha(t), h.alpha_prime(t), h.beta(t))
            assert max(abs(g - e) for g, e in zip(got, exact)) <= 5.0 * h.error(t)
            assert h.error(t) <= 1e-14 * np.cosh(2 * t)
        assert h.error(9.0) > 1e6 * h.error(1.0)

    def test_overflow_ends_the_span(self):
        # lam = -2e5: alpha = sinh(2 w t)/(2 w), w = sqrt(2e5), overflows
        # near t = 0.79, so no panel past ~0.78 certifies: the span, and
        # the kernel's horizon, end at the last certified edge, and a time
        # past it is a point failure
        w = np.sqrt(2e5)
        h = solve_harmonic(lambda t: -2e5, t_max=1.0)
        assert 0.75 < h.t_max < 0.79 and h.t_max == h._dense.edges[-1]
        for t in (0.1, 0.4, h.t_max):
            assert h.alpha(t) == pytest.approx(np.sinh(2 * w * t) / (2 * w), rel=1e-11)
        with pytest.raises(ValueError, match="outside solved span"):
            h.alpha(0.9)
        kernel = make_kernel(Harmonic(lambda t: -2e5, "-2e5"), t_max=1.0)
        assert kernel.horizon == h.t_max
        field = wavefield(kernel, plane_wave(1.0), [0.9], [0.0])
        assert [f[2].split(":")[0] for f in field.failures] == ["HorizonExceeded"]

    def test_no_certified_panel_is_an_error(self):
        with pytest.raises(SupershiftError, match="from t=0"):
            solve_harmonic(lambda t: -1e300, t_max=1.0)

    def test_wronskian_closed_form_exact(self):
        h = solve_harmonic(lambda t: 1.0, t_max=1.6)
        grid = np.linspace(0.01, 1.5, 37)
        assert wronskian_drift(h, grid) <= 1e-10

    def test_wronskian_free_case(self):
        h = solve_harmonic(lambda t: 0.0, t_max=1.0)
        assert wronskian_drift(h, np.linspace(0.0, 1.0, 11)) <= 1e-12

    def test_wronskian_nonautonomous(self):
        h = solve_harmonic(lambda t: 1.0 + 0.5 * np.sin(t), t_max=1.5)
        drift = wronskian_drift(h, np.linspace(0.01, h.t_max, 37))
        assert drift <= 1e-10
        # independent confirmation via a tighter march than the solvers' _TOL
        h2 = QuadraticCoeffs(1.5, _march(lambda t: 1.0 + 0.5 * np.sin(t), _zero, 1.5, 1e-14))
        assert abs(h.alpha(1.0) - h2.alpha(1.0)) <= 1e-10

    def test_alpha_positive_inside_horizon(self):
        # alpha > 0 on (0, pi/2) and < 0 on (pi/2, pi)
        h = solve_harmonic(lambda t: 1.0, t_max=3.2)
        for t in np.linspace(1e-4, np.pi / 2 * 0.999, 50):
            assert h.alpha(t) > 0.0
        for t in np.linspace(np.pi / 2 * 1.001, np.pi * 0.999, 50):
            assert h.alpha(t) < 0.0

    @pytest.mark.parametrize("omega", [0.5, 1.0, 4.0, 20.0, 60.0])
    def test_zeros_of_alpha_never_share_a_bracket(self, omega):
        # the Sturm spacing pi / (2 sqrt(max lam2)) of alpha's zeros is
        # over four Lobatto brackets of the solve, so the sign scan sees
        # each zero; for constant lam2 the count is floor(2 omega t / pi)
        lam = lambda t: omega * omega * (1.0 + 0.3 * np.sin(t) ** 2)
        h = solve_harmonic(lam, t_max=3.0)
        spacing = np.pi / (2.0 * omega * np.sqrt(1.3))
        assert np.diff(h._knots).max() < 0.25 * spacing
        c = solve_harmonic(lambda t: omega * omega, t_max=3.0)
        for t in np.linspace(0.01, 3.0, 97):
            n = int(2.0 * omega * t / np.pi)
            if abs(2.0 * omega * t / np.pi - n) > 1e-6:
                assert c.maslov(t) == n


class TestElectric:
    """The field case: the kernel's linear phase p x + q z + r has
    t q'' + 2 q' = -lam, p = t q' and r' = -p^2."""

    def test_linear_ramp_closed_forms(self):
        e = solve_electric(lambda t: t, t_max=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        assert max(abs(e.q(t) + t * t / 6) for t in ts) <= 1e-10
        assert max(abs(e.r(t) + t**5 / 45) for t in ts) <= 1e-10

    def test_linear_ramp_alpha_prime(self):
        e = solve_electric(lambda t: t, t_max=1.0)
        for t in (0.2, 0.5, 0.9):
            assert abs(e.p(t) / t + t / 3) <= 1e-11
            assert abs(e.p(t) + t * t / 3) <= 1e-11

    def test_constant_field_closed_forms(self):
        # q = alpha_e solves tau alpha'' + 2 alpha' = -c: -c t/2 (not -c t^2/6)
        e = solve_electric(lambda t: 1.0, t_max=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        assert max(abs(e.q(t) + t / 2) for t in ts) <= 1e-10
        assert max(abs(e.r(t) + t**3 / 12) for t in ts) <= 1e-10

    def test_zero_field_trivial(self):
        e = solve_electric(lambda t: 0.0, t_max=1.0)
        for t in (0.0, 0.3, 1.0):
            assert e.q(t) == 0.0
            assert e.r(t) == 0.0

    def test_vanishing_boundary_terms(self):
        e = solve_electric(lambda t: t, t_max=1.0)
        assert e.p(0.0) == 0.0 and e.q(0.0) == 0.0 and e.r(0.0) == 0.0
        # |p| <= C t^2 near zero for the ramp forcing
        for t in (1e-3, 1e-2, 0.1):
            assert abs(e.p(t)) <= 0.5 * t * t

    def test_ode_residual_reconstruction(self):
        # derivatives of the panel interpolants against the right-hand sides
        lam = lambda t: 1.0 + 0.3 * np.cos(t)
        e = solve_electric(lam, t_max=1.2)
        for t in np.linspace(0.05, 1.15, 23):
            al, ap, _, _, xi, xp, _, _ = e.state(t)
            d = _spectral_derivative(e, t)
            res = (
                d[0] - ap, d[1], d[4] - xp, d[5] + 2 * lam(t),
                d[6] + 2 * lam(t) * al, d[7] - lam(t) * xi,
            )
            assert max(abs(r) for r in res) <= 1e-11

    def test_ode_residual_finite_differences(self):
        lam = lambda t: 1.0 + 0.3 * np.cos(t)
        e = solve_electric(lam, t_max=1.2)
        h = 1e-5
        for t in (0.3, 0.7, 1.0):
            fd = (np.array(e.state(t + h)) - np.array(e.state(t - h))) / (2 * h)
            _, _, _, _, xi, _, _, _ = e.state(t)
            assert abs(fd[5] + 2 * lam(t)) <= 1e-5
            assert abs(fd[6] + 2 * lam(t) * e.alpha(t)) <= 1e-5
            assert abs(fd[7] - lam(t) * xi) <= 1e-5

    def test_beta_consistency_with_quadrature(self):
        # r' = -p^2 (old beta' = -t^2 alpha'^2) integrated independently by trapezoid
        e = solve_electric(lambda t: t, t_max=1.0)
        ts = np.linspace(0.0, 1.0, 4001)
        integrand = np.array([-e.p(t) ** 2 for t in ts])
        ref = np.trapezoid(integrand, ts)
        assert abs(e.r(1.0) - ref) <= 1e-8


class TestDriven:
    """V = omega^2 x^2 + E x with constant E (closed forms by substitution):
    xi = -(E/2 omega^2)(1 - cos 2 omega t), W = xi, and
    V = -(E^2/2 omega^2)(t - sin(2 omega t)/(2 omega))."""

    @pytest.mark.parametrize("omega", [1.0, 1.7])
    def test_closed_forms(self, omega):
        big_e = 0.7
        c = solve_quadratic(lambda t: omega * omega, lambda t: big_e, t_max=2.0)
        ts = np.linspace(0.0, 2.0, 81)
        s = big_e / (2 * omega**2)
        xi = lambda t: -s * (1 - np.cos(2 * omega * t))
        v = lambda t: -big_e * s * (t - np.sin(2 * omega * t) / (2 * omega))
        assert max(abs(c.xi(t) - xi(t)) for t in ts) <= 1e-12
        assert max(abs(c.state(t)[6] - xi(t)) for t in ts) <= 1e-12
        assert max(abs(c.state(t)[7] - v(t)) for t in ts) <= 1e-12
        assert max(abs(c.alpha(t) - np.sin(2 * omega * t) / (2 * omega)) for t in ts) <= 1e-12
        assert wronskian_drift(c, ts) <= 1e-12

    def test_w_is_the_path_wronskian(self):
        # W' = -2 lam1 alpha and (alpha xi' - alpha' xi)' = -2 lam1 alpha
        # with both 0 at t = 0: an identity between separately solved parts
        c = solve_quadratic(lambda t: 1.0 + 0.5 * np.sin(t), lambda t: 0.4 + t, t_max=3.0)
        worst = 0.0
        for t in np.linspace(0.0, 3.0, 61):
            al, ap, _, _, xi, xp, w, _ = c.state(t)
            worst = max(worst, abs(w - (al * xp - ap * xi)))
        assert worst <= 1e-12


def _spectral_derivative(coeffs, t):
    """d/dt of every component of the dense interpolant at t."""
    dense = coeffs._dense
    p = min(np.searchsorted(dense.edges, t, side="right"), len(dense.edges) - 1) - 1
    a, b = dense.edges[p], dense.edges[p + 1]
    nodes = -np.cos(np.pi * np.arange(24) / 23)
    c = cheb.chebfit(nodes, dense.values[p], 23)
    return cheb.chebval((2 * t - a - b) / (b - a), cheb.chebder(c)) * 2 / (b - a)


class TestDenseOutput:
    def test_outside_span_rejected(self):
        h = solve_harmonic(lambda t: 1.0, t_max=1.0)
        with pytest.raises(ValueError):
            h.alpha(1.5)

    def test_dense_continuous_at_panel_edges(self):
        h = solve_harmonic(lambda t: 1.0 + 0.5 * np.sin(t), t_max=3.0)
        dense = h._dense
        assert len(dense.edges) > 3
        for p, e in enumerate(dense.edges[1:-1], start=1):
            # the stored values are returned exactly at an edge, and the
            # panel on its left ends on them
            assert np.array_equal(dense(e), dense.values[p, 0])
            assert np.array_equal(dense.values[p - 1, -1], dense.values[p, 0])
            left = dense(float(np.nextafter(e, -np.inf)))
            assert np.allclose(left, dense.values[p, 0], rtol=0.0, atol=1e-14)


class TestChebyshevPanels:
    def test_long_span_closed_forms(self):
        # 20 panels of 0.5 at make_kernel's default t_max
        h = solve_harmonic(lambda t: 1.0, t_max=10.0)
        ts = np.linspace(0.0, 10.0, 401)
        assert max(abs(h.alpha(t) - np.sin(2 * t) / 2) for t in ts) <= 1e-13
        assert max(abs(h.alpha_prime(t) - np.cos(2 * t)) for t in ts) <= 1e-13
        assert max(abs(h.beta(t) - np.cos(2 * t)) for t in ts) <= 1e-13
        assert wronskian_drift(h, ts) <= 1e-13

    def test_spline_knots_split_panels(self):
        # the CLI's table lambda is a cubic spline: its third derivative
        # jumps at the knots 0.7 and 1.2, inside the panels [0.5, 1] and
        # [1, 1.5], and the tail certificate halves those panels toward them
        from supershift_lab.cli import _lambda_from_spec

        lam, _ = _lambda_from_spec(
            {"kind": "table", "t": [0.0, 0.3, 0.7, 1.2, 1.6, 2.0],
             "values": [1.0, 1.3, 0.8, 1.1, 0.9, 1.2]}
        )
        h = solve_harmonic(lam, t_max=2.0)
        widths = np.diff(h._dense.edges)
        assert len(widths) > 4 and widths.min() < 0.5 / 16
        assert wronskian_drift(h, np.linspace(0.0, 2.0, 401)) <= 1e-12
        e = solve_electric(lam, t_max=2.0)
        assert len(e._dense.edges) > 5
