"""Coefficient ODE solvers against closed forms.

Closed-form oracles (verified by substitution into the defining ODEs):
  oscillator, lam = 1:   alpha = sin(2t)/2, beta = cos(2t), first alpha
                         zero at pi/2, first beta zero at pi/4
  oscillator, lam = -1:  alpha = sinh(2t)/2, beta = cosh(2t), no zeros
  field, lam(t) = t:     t^2 alpha' = -t^3/3, alpha = -t^2/6, beta = -t^5/45
  field, lam = c:        t^2 alpha' = -c t^2/2, alpha = -c t/2, beta = -c^2 t^3/12

Note the lam = c field coefficients: substituting alpha = -c t^2/6 into
t a'' + 2a' gives -c t, not -c, so that pairing belongs to lam(t) = c t.
"""

import numpy as np
import pytest

from supershift_lab.ode_coeff import solve_electric, solve_harmonic, wronskian_drift


class TestHarmonic:
    def test_unit_frequency_closed_forms(self):
        h = solve_harmonic(lambda t: 1.0, t_max=1.65)
        ts = np.linspace(0.0, np.pi / 2, 53)
        assert max(abs(h.alpha(t) - np.sin(2 * t) / 2) for t in ts) <= 1e-10
        assert max(abs(h.beta(t) - np.cos(2 * t)) for t in ts) <= 1e-10
        assert max(abs(h.alpha_prime(t) - np.cos(2 * t)) for t in ts) <= 1e-10

    def test_horizons(self):
        h = solve_harmonic(lambda t: 1.0, t_max=1.65)
        assert abs(h.horizon - np.pi / 2) <= 1e-8
        assert abs(h.beta_horizon - np.pi / 4) <= 1e-8

    def test_free_reduction(self):
        h = solve_harmonic(lambda t: 0.0, t_max=2.0)
        assert h.alpha(1.3) == pytest.approx(1.3, abs=1e-12)
        assert h.beta(0.7) == pytest.approx(1.0, abs=1e-12)
        assert h.horizon == np.inf
        # a(t) = beta/(4 alpha) = 1/(4t) recovers the free rate
        assert abs(h.beta(0.5) / (4 * h.alpha(0.5)) - 1.0 / 2.0) < 1e-12

    def test_inverted_oscillator(self):
        h = solve_harmonic(lambda t: -1.0, t_max=2.0)
        ts = np.linspace(0.0, 2.0, 41)
        assert max(abs(h.alpha(t) - np.sinh(2 * t) / 2) for t in ts) <= 5e-10
        assert max(abs(h.beta(t) - np.cosh(2 * t)) for t in ts) <= 5e-10
        assert h.horizon == np.inf and h.beta_horizon == np.inf

    def test_wronskian_closed_form_exact(self):
        h = solve_harmonic(lambda t: 1.0, t_max=1.6)
        grid = np.linspace(0.01, 1.5, 37)
        assert wronskian_drift(h, grid) <= 1e-10

    def test_wronskian_free_case(self):
        h = solve_harmonic(lambda t: 0.0, t_max=1.0)
        assert wronskian_drift(h, np.linspace(0.0, 1.0, 11)) <= 1e-12

    def test_wronskian_nonautonomous(self):
        h = solve_harmonic(lambda t: 1.0 + 0.5 * np.sin(t), t_max=1.5)
        hi = min(h.horizon, h.t_max) * 0.99
        drift = wronskian_drift(h, np.linspace(0.01, hi, 37))
        assert drift <= 1e-10
        # independent confirmation via a tighter solve
        h2 = solve_harmonic(lambda t: 1.0 + 0.5 * np.sin(t), t_max=1.5, tol=1e-14)
        assert abs(h.alpha(1.0) - h2.alpha(1.0)) <= 1e-10

    def test_alpha_positive_inside_horizon(self):
        h = solve_harmonic(lambda t: 1.0, t_max=1.65)
        for t in np.linspace(1e-4, h.horizon * 0.999, 50):
            assert h.alpha(t) > 0.0


class TestElectric:
    def test_linear_ramp_closed_forms(self):
        e = solve_electric(lambda t: t, t_max=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        assert max(abs(e.alpha(t) + t * t / 6) for t in ts) <= 1e-10
        assert max(abs(e.beta(t) + t**5 / 45) for t in ts) <= 1e-10

    def test_linear_ramp_alpha_prime(self):
        e = solve_electric(lambda t: t, t_max=1.0)
        for t in (0.2, 0.5, 0.9):
            assert abs(e.alpha_prime(t) + t / 3) <= 1e-11
            assert abs(e.t_alpha_prime(t) + t * t / 3) <= 1e-11

    def test_constant_field_closed_forms(self):
        # tau alpha'' + 2 alpha' = -c forces alpha = -c t/2 (not -c t^2/6)
        e = solve_electric(lambda t: 1.0, t_max=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        assert max(abs(e.alpha(t) + t / 2) for t in ts) <= 1e-10
        assert max(abs(e.beta(t) + t**3 / 12) for t in ts) <= 1e-10

    def test_zero_field_trivial(self):
        e = solve_electric(lambda t: 0.0, t_max=1.0)
        for t in (0.0, 0.3, 1.0):
            assert e.alpha(t) == 0.0
            assert e.beta(t) == 0.0

    def test_vanishing_boundary_terms(self):
        e = solve_electric(lambda t: t, t_max=1.0)
        assert e.alpha(0.0) == 0.0 and e.beta(0.0) == 0.0
        # |t alpha'| <= C t^2 near zero for the ramp forcing
        for t in (1e-3, 1e-2, 0.1):
            assert abs(e.t_alpha_prime(t)) <= 0.5 * t * t

    def test_ode_residual_reconstruction(self):
        # alpha'' from the first-order form: -lam/t + 2u/t^3
        lam = lambda t: 1.0 + 0.3 * np.cos(t)
        e = solve_electric(lam, t_max=1.2, tol=1e-12)
        for t in np.linspace(0.05, 1.15, 23):
            u = -e.alpha_prime(t) * t * t
            alpha_pp = -lam(t) / t + 2 * u / t**3
            res = abs(t * alpha_pp + 2 * e.alpha_prime(t) + lam(t))
            assert res <= 1e-11

    def test_ode_residual_finite_differences(self):
        lam = lambda t: 1.0 + 0.3 * np.cos(t)
        e = solve_electric(lam, t_max=1.2, tol=1e-12)
        h = 1e-5
        for t in (0.3, 0.7, 1.0):
            app = (e.alpha_prime(t + h) - e.alpha_prime(t - h)) / (2 * h)
            res = abs(t * app + 2 * e.alpha_prime(t) + lam(t))
            assert res <= 1e-5

    def test_beta_consistency_with_quadrature(self):
        # beta' = -t^2 alpha'^2 integrated independently by trapezoid
        e = solve_electric(lambda t: t, t_max=1.0)
        ts = np.linspace(0.0, 1.0, 4001)
        integrand = np.array([-(t * e.alpha_prime(t)) ** 2 for t in ts])
        ref = np.trapezoid(integrand, ts)
        assert abs(e.beta(1.0) - ref) <= 1e-8


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
