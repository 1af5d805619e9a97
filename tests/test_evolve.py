"""Evolution pipeline: closed-form oracles, cross-representation checks,
supershift and continuous-dependence experiments, analyticity probes.

Strongest oracle: the free-particle plane wave, Psi(t, x; e^{i kappa .})
= e^{i kappa x - i kappa^2 t}.  The plane waves of the unit field, the
unit oscillator and the driven oscillator, and the Poschl-Teller Jost
waves, come from ``supershift_lab.oracles``, which states each formula;
tests/test_oracles.py checks that each solves its Schrodinger equation.

Exact supershift distances (mpmath 60-digit closed-form combinations on
the grids below):
  free,     kappa=3, [0.1,0.5]x[-1,1] (5x9):   10.394027, 6.805639, 2.924525
  harmonic, kappa=2, [0.1,0.4]x[-1,1] (4x9):    2.910942, 1.448402, 0.657752
"""

import dataclasses
import warnings

import numpy as np
import pytest

from supershift_lab import contour_quad, ode_coeff
from supershift_lab.crosschecks import (
    analyticity_probe,
    epsilon_regularized_integral,
    truncated_integral,
)
from supershift_lab.errors import HorizonExceeded, PrecisionExhausted
from supershift_lab.evolve import (
    WaveField,
    continuous_dependence_check,
    initial_limit_check,
    schrodinger_residual_field,
    supershift_experiment,
    wavefield,
    wavefunction,
    wavefunction_result,
)
from supershift_lab.greens import Harmonic, greens_value, make_kernel, pde_residual
from supershift_lab.initial_data import (
    combine_signals,
    constant_signal,
    default_weight,
    disk_samples,
    plane_wave,
    signal_stack,
    superosc_signal,
)
from supershift_lab.oracles import (
    driven_plane,
    electric_plane,
    free_plane,
    harmonic_plane,
    jost_signal,
    jost_wave,
    superosc_coefficients,
    supershift_combination_direct,
)

FREE_D = (10.394027, 6.805639, 2.924525)
HARM_D = (2.910942, 1.448402, 0.657752)


def _assert_gap_from_stack(kernel, target, fs, t, x, dists):
    """dists are the gaps at (t, x) in the field of the stack of target
    and fs, exactly, and within the summed estimates of the gaps between
    lone fields."""
    stacked = wavefunction_result(kernel, signal_stack([target] + fs), t, x, 1e-8)
    ref, *vals = stacked.value.tolist()
    assert dists == [abs(v - ref) for v in vals]
    lone_ref = wavefunction_result(kernel, target, t, x, 1e-8)
    for f, v, e, d in zip(fs, vals, stacked.err_estimate[1:], dists):
        lone = wavefunction_result(kernel, f, t, x, 1e-8)
        slack = e + stacked.err_estimate[0] + lone.err_estimate + lone_ref.err_estimate
        assert abs(d - abs(lone.value - lone_ref.value)) <= slack


class TestWavefunction:
    def test_free_constant_is_constant(self, free_kernel):
        for t, x in ((0.2, 0.0), (0.9, 1.7)):
            assert abs(wavefunction(free_kernel, constant_signal(), t, x, 1e-10) - 1.0) < 1e-9

    def test_free_plane_wave_point(self, free_kernel):
        v = wavefunction(free_kernel, plane_wave(3.0), 0.5, 1.0, 1e-10)
        assert abs(v - np.exp(-1.5j)) < 1e-10

    def test_harmonic_plane_wave_closed_form(self, harmonic_kernel):
        for t, x, k in ((0.2, 0.0, 3.0), (0.3, 0.7, 2.0), (0.6, -1.0, 1.0)):
            v = wavefunction(harmonic_kernel, plane_wave(k), t, x, 1e-10)
            assert abs(v - harmonic_plane(t, x, k)) < 1e-9

    def test_electric_plane_wave_closed_form(self, electric_kernel):
        # for constant unit field the plane wave evolves as
        # e^{i beta + i x t alpha'} e^{i (k+alpha) x - i (k+alpha)^2 t}
        # with alpha = -t/2, t alpha' = -t/2, beta = -t^3/12; verified by
        # substitution into i dPsi/dt = -d2Psi/dx2 + x Psi
        for t, x, k in ((0.3, 0.0, 2.0), (0.5, 1.2, 3.0), (0.8, -0.7, 1.0)):
            v = wavefunction(electric_kernel, plane_wave(k), t, x, 1e-10)
            assert abs(v - electric_plane(t, x, k)) < 1e-9

    def test_linearity(self, free_kernel):
        f1, f2 = plane_wave(2.0), plane_wave(-1.0)
        comb = combine_signals([(1.5, f1), (2j, f2)])
        t, x = 0.4, 0.6
        tol = 1e-10
        lhs = wavefunction(free_kernel, comb, t, x, tol)
        rhs = 1.5 * wavefunction(free_kernel, f1, t, x, tol) + 2j * wavefunction(
            free_kernel, f2, t, x, tol
        )
        assert abs(lhs - rhs) <= 10 * tol

    def test_horizon_enforced(self, harmonic_kernel):
        # the horizon is the end of the solved span, 1.7: a time past it
        # raises, and in a grid it is a per-point failure
        with pytest.raises(HorizonExceeded):
            wavefunction(harmonic_kernel, plane_wave(1.0), 1.75, 0.0)
        fld = wavefield(harmonic_kernel, plane_wave(1.0), [1.6, 1.75], [0.0], tol=1e-9)
        [(t, x, reason)] = fld.failures
        assert (t, x) == (1.75, 0.0) and reason.startswith("HorizonExceeded")
        assert np.isnan(fld.values[1, 0]) and fld.quad_errors[1, 0] == np.inf
        assert abs(fld.values[0, 0] - harmonic_plane(1.6, 0.0, 1.0)) <= fld.quad_errors[0, 0]

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_focal_time_is_a_point_failure(self, harmonic_kernel, zero):
        # an exact zero of a(t) has no contour: the point fails with a
        # reason that names the time, and the grid goes on
        kernel = dataclasses.replace(harmonic_kernel, a=lambda t: zero)
        fld = wavefield(kernel, plane_wave(2.0), [0.5], [0.0, 1.0], tol=1e-9)
        assert [(t, x) for t, x, _ in fld.failures] == [(0.5, 0.0), (0.5, 1.0)]
        for *_, reason in fld.failures:
            assert reason.startswith("EvaluationOverflow") and "a focal time" in reason
            assert "t=0.5" in reason

    def test_cross_representation_all_potentials(
        self, free_kernel, electric_kernel, harmonic_kernel, pt1_kernel
    ):
        # rotated value vs Gaussian-regularized real-line value at eps=1e-5
        from supershift_lab.contour_quad import GrowthWitness
        from supershift_lab.initial_data import HolomorphicSignal

        kappa, t, x = 2.0, 0.3, 0.4
        tol = 1e-6
        for kernel in (free_kernel, electric_kernel, harmonic_kernel, pt1_kernel):
            rot = wavefunction(kernel, plane_wave(kappa), t, x, tol)
            a0, _ = kernel.growth_imag(t, x)

            def integrand(y, kernel=kernel):
                y = np.asarray(y, dtype=complex)
                return kernel.gtilde(t, x, y) * np.exp(1j * kappa * y)

            f = HolomorphicSignal(
                eval=integrand,
                growth=GrowthWitness(a0 * 2.0, 0.0, "imag"),
                label="greens*planewave",
            )
            eps_val = epsilon_regularized_integral(
                f, kernel.a(t), x, 0.0, 1e-5, tol=1e-5
            )
            assert abs(eps_val - rot) <= 1e-4, kernel.potential.label()

    def test_truncated_equivalence_free(self, free_kernel):
        # imag-bounded initial datum on the free particle: symmetric
        # truncations approach the rotated value
        from supershift_lab.contour_quad import GrowthWitness
        from supershift_lab.initial_data import HolomorphicSignal

        t, x = 0.4, 0.2
        rot = wavefunction(free_kernel, plane_wave(1.0), t, x, 1e-11)
        gt = free_kernel.gtilde(t, x, np.array([0j]))[0]
        f = HolomorphicSignal(
            eval=lambda y: gt * np.exp(1j * np.asarray(y, dtype=complex)),
            growth=GrowthWitness(abs(gt), 1.0, "imag"),
            label="gtilde*pw",
        )
        diffs = [
            abs(truncated_integral(f, free_kernel.a(t), x, r, r, tol=1e-10) - rot)
            for r in (10.0, 20.0, 40.0)
        ]
        assert diffs[2] < diffs[0]
        assert diffs[2] <= 5e-2


class TestWavefield:
    def test_degenerate_grid_matches_point(self, free_kernel):
        fld = wavefield(free_kernel, plane_wave(2.0), [0.3], [0.5], tol=1e-10)
        v = wavefunction(free_kernel, plane_wave(2.0), 0.3, 0.5, 1e-10)
        assert fld.values[0, 0] == v

    def test_free_grid_against_closed_form(self, free_kernel):
        ts = np.linspace(0.1, 1.0, 21)
        xs = np.linspace(-5.0, 5.0, 51)
        fld = wavefield(free_kernel, plane_wave(3.0), ts, xs, tol=1e-10)
        T, X = np.meshgrid(ts, xs, indexing="ij")
        err = np.abs(fld.values - free_plane(T, X, 3.0))
        assert err.max() <= 1e-8
        assert np.all(np.isfinite(fld.quad_errors))
        assert fld.quad_errors.max() <= 1e-10  # estimates within configured tol
        assert not fld.failures

    def test_panel_exhaustion_collected_not_raised(self, free_kernel, monkeypatch):
        monkeypatch.setattr(contour_quad, "_MAX_PANELS", 2)
        fld = wavefield(free_kernel, plane_wave(3.0), [0.2], [0.5], tol=1e-12)
        assert len(fld.failures) == 1
        assert fld.quad_errors[0, 0] > 1e-12

    def test_overflowing_witness_recorded_not_raised(self, pt2_kernel):
        # past t ~ 355 the l = 2 sech^2 witness e^{m^2 t / 2} leaves the
        # double range: that point fails, the rest of the grid is kept
        fld = wavefield(pt2_kernel, plane_wave(1.0), [1.0, 400.0], [0.0], tol=1e-9)
        one = wavefield(pt2_kernel, plane_wave(1.0), [1.0], [0.0], tol=1e-9)
        assert fld.values[0, 0] == one.values[0, 0]
        assert len(fld.failures) == 1
        t, x, reason = fld.failures[0]
        assert (t, x) == (400.0, 0.0) and reason.startswith("EvaluationOverflow")

    def test_radius_is_a_python_float(
        self, free_kernel, electric_kernel, harmonic_kernel, pt2_kernel
    ):
        for kernel in (free_kernel, electric_kernel, harmonic_kernel, pt2_kernel):
            r = wavefunction_result(kernel, plane_wave(2.0), 0.4, 0.5, 1e-9)
            assert type(r.truncation_radius) is float

    def test_pt_pole_margin_error_far_x(self, pt1_kernel):
        # the shifted line through x = 4.25 at the pi/8 sector angle passes
        # within the pole margin of i pi/2 scaled copies
        from supershift_lab.errors import DomainMarginError

        with pytest.raises(DomainMarginError):
            wavefunction(pt1_kernel, plane_wave(1.0), 0.3, 4.25, 1e-8)

    def test_pt_stationary_point_past_pole_line(self, pt1_kernel):
        # the line through x = 4.25 has a pole inside its swept sector, but
        # the plane wave's contour passes through its stationary point
        # 4.25 - 2 t kappa = 3.05, which keeps clear of it; the value agrees
        # with the eps-regularized real-line comparator (its regularizer
        # centered there too, so its bias eps (y - y0)^2 stays small)
        from supershift_lab.contour_quad import GrowthWitness
        from supershift_lab.initial_data import HolomorphicSignal

        t, x, kappa = 0.3, 4.25, 2.0
        rot = wavefunction_result(pt1_kernel, plane_wave(kappa), t, x, 1e-8)
        a0, _ = pt1_kernel.growth_imag(t, x)

        def integrand(y):
            y = np.asarray(y, dtype=complex)
            return pt1_kernel.gtilde(t, x, y) * np.exp(1j * kappa * y)

        f = HolomorphicSignal(integrand, GrowthWitness(a0, 0.0, "imag"), "greens*planewave")
        y0 = x - 2.0 * t * kappa
        eps_val = epsilon_regularized_integral(f, pt1_kernel.a(t), x, y0, 1e-5, tol=1e-5)
        assert abs(eps_val - rot.value) <= 2e-5

    def test_pt_stationary_point_clipped_to_pole_clearance(self, pt1_kernel):
        # at (0.5, -2) the stationary point -2 - 2 t kappa = -5 lies past the
        # pole line, but the line through x keeps clear of it: the contour
        # passes through the admitted center nearest -5, and the value
        # agrees with the line through x
        from supershift_lab.contour_quad import rotated_integral
        from supershift_lab.errors import DomainMarginError
        from supershift_lab.evolve import _integrand

        t, x, f = 0.5, -2.0, plane_wave(3.0)
        center = pt1_kernel.contour_center(x, x - 2.0 * t * 3.0)
        assert -5.0 < center < x
        with pytest.raises(DomainMarginError):
            pt1_kernel.contour_center(center - 1e-3, center - 1e-3)
        rot = wavefunction_result(pt1_kernel, f, t, x, 1e-9)
        ref = rotated_integral(
            _integrand(pt1_kernel, t, x, f),
            a=pt1_kernel.a(t), y1=x, center=x, angle=pt1_kernel.sector_angle, tol=1e-9,
        )
        assert abs(rot.value - ref.value) <= rot.err_estimate + ref.err_estimate
        # the CLI's default grid and supershift kappa: no point is refused
        fld = wavefield(pt1_kernel, f, np.linspace(0.1, 0.5, 5), np.linspace(-2, 2, 9), tol=1e-9)
        assert fld.failures == []

    def test_point_error_recorded_not_raised(self, pt1_kernel):
        fld = wavefield(pt1_kernel, plane_wave(1.0), [0.3], [0.0, 4.25], tol=1e-8)
        assert len(fld.failures) == 1
        t, x, reason = fld.failures[0]
        assert (t, x) == (0.3, 4.25) and reason.startswith("DomainMarginError")
        assert np.isnan(fld.values[0, 1]) and fld.quad_errors[0, 1] == np.inf
        assert np.isfinite(fld.values[0, 0])

    def test_per_point_quadrature_counts(self, pt1_kernel):
        # radius, nodes and rounds are the per-point QuadratureResult fields;
        # the failing point at x = 4.25 reads nan, -1, -1
        f, ts, xs = plane_wave(1.0), [0.3], [0.0, 0.5, 4.25]
        fld = wavefield(pt1_kernel, f, ts, xs, tol=1e-8)
        assert [(t, x) for t, x, _ in fld.failures] == [(0.3, 4.25)]
        for j, x in enumerate(xs[:2]):
            r = wavefunction_result(pt1_kernel, f, 0.3, x, 1e-8)
            assert fld.radius[0, j] == r.truncation_radius
            assert fld.nodes[0, j] == r.nodes
            assert fld.rounds[0, j] == r.rounds
        assert np.isnan(fld.radius[0, 2])
        assert fld.nodes[0, 2] == -1 and fld.rounds[0, 2] == -1

    def test_grid_order_invariance(self, free_kernel):
        ts, xs = [0.2, 0.5], [-0.3, 0.8]
        fld = wavefield(free_kernel, plane_wave(2.0), ts, xs, tol=1e-10)
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                assert fld.values[i, j] == wavefunction(
                    free_kernel, plane_wave(2.0), t, x, 1e-10
                )

    def test_failed_point_records_rotated_value(self, harmonic_kernel, monkeypatch):
        # near the focal time pi/4 no contour is stationary for both terms of
        # e^{2iz} + e^{-2iz}, so at tol 1e-10 the point refines after its
        # 70 seed panels; a panel budget of 80 fails it after that pass, and
        # the recorded value is still the rotated panel sum with the
        # truncation tail in its estimate
        t, x = 0.72, -2.0
        f = combine_signals([(1.0, plane_wave(2.0)), (1.0, plane_wave(-2.0))])
        ref = harmonic_plane(t, x, 2.0) + harmonic_plane(t, x, -2.0)
        with monkeypatch.context() as m:
            m.setattr(contour_quad, "_MAX_PANELS", 80)
            fld = wavefield(harmonic_kernel, f, [t], [x], tol=1e-10)
        [(_, _, reason)] = fld.failures
        assert reason.startswith("PanelExhausted") and "budget 80 exhausted" in reason
        assert abs(fld.values[0, 0] - ref) <= fld.quad_errors[0, 0]
        fld = wavefield(harmonic_kernel, f, [t], [x], tol=1e-10)
        assert not fld.failures
        assert abs(fld.values[0, 0] - ref) <= fld.quad_errors[0, 0]

    def test_contour_through_phase_center_cancels(self, harmonic_kernel):
        # the line through y1 = x instead of the stationary point: the
        # integrand modulus peaks at e^{w^2 sin^2(angle) / (4a)} (w the net
        # frequency of kernel and data) while the value is O(1), and the
        # panel sums stagnate on that cancellation
        from supershift_lab import evolve
        from supershift_lab.contour_quad import rotated_integral
        from supershift_lab.errors import PanelExhausted

        t, x, kappa = 0.72, -2.0, 2.0
        f = evolve._integrand(harmonic_kernel, t, x, plane_wave(kappa))
        a = harmonic_kernel.a(t)
        with pytest.raises(PanelExhausted, match="stagnated") as info:
            rotated_integral(f, a=a, y1=x, center=x, angle=harmonic_kernel.sector_angle, tol=1e-9)
        exc = info.value
        assert abs(exc.value - harmonic_plane(t, x, kappa)) <= exc.err_estimate
        al, be = np.sin(2 * t) / 2, np.cos(2 * t)
        w = kappa - x * (1.0 - be) / (2.0 * al)
        assert f.growth.freq == pytest.approx(w, rel=1e-12)
        predicted = np.exp(w * w * np.sin(np.pi / 4) ** 2 / (4.0 * a))
        measured = float(str(exc).split("factor ")[1].split()[0])
        assert 0.1 <= measured / predicted <= 10.0

    def test_harmonic_plane_wave_to_075(self, harmonic_kernel):
        # the harmonic plane-wave grid up to t = 0.75, near the focal time pi/4
        # (at tol 1e-9 the line through y1 = x failed 19 of these points on
        # cancellation)
        ts, xs = np.linspace(0.1, 0.75, 14), np.linspace(-2.0, 2.0, 25)
        fld = wavefield(harmonic_kernel, plane_wave(2.0), ts, xs, tol=1e-9)
        assert not fld.failures
        T, X = np.meshgrid(ts, xs, indexing="ij")
        assert np.all(np.abs(fld.values - harmonic_plane(T, X, 2.0)) <= fld.quad_errors)

    def test_grid_straddling_focal_time(self, harmonic_kernel):
        # next to the focal time pi/4 the Gaussian rate a(t) nearly
        # vanishes: the points that cannot be evaluated fail with their
        # reasons, the grid finishes, and no numpy warning escapes
        ts = [np.pi / 4 + s * e for e in (1e-6, 1e-3, 1e-2) for s in (-1.0, 1.0)]
        xs = [-1.0, 0.0, 1.0]
        T, X = np.meshgrid(ts, xs, indexing="ij")
        for f in (plane_wave(2.0), superosc_signal(20, 3.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fld = wavefield(harmonic_kernel, f, ts, xs, tol=1e-9)
            assert fld.failures and all(reason for *_, reason in fld.failures)
            failed = {(t, x) for t, x, n in zip(T.flat, X.flat, fld.nodes.flat) if n < 0}
            assert {(t, x) for t, x, _ in fld.failures} == failed
            assert len(failed) == len(fld.failures)
            assert np.all(np.isfinite(fld.values[..., fld.nodes >= 0]))

    def test_driven_plane_wave(self, driven_kernel):
        # the forced path moves the stationary point: below the focal time pi/4
        # the driven oscillator's grid meets its oracle like the harmonic one
        ts, xs = np.linspace(0.1, 0.75, 8), np.linspace(-2.0, 2.0, 13)
        fld = wavefield(driven_kernel, plane_wave(2.0), ts, xs, tol=1e-9)
        assert not fld.failures
        T, X = np.meshgrid(ts, xs, indexing="ij")
        assert np.all(np.abs(fld.values - driven_plane(T, X, 2.0, 0.7)) <= fld.quad_errors)

    def test_one_coefficient_evaluation_per_time_slice(self, monkeypatch):
        # a, growth and gtilde share one dense coefficient evaluation per t
        kernel = make_kernel(Harmonic(lambda t: 1.0, "omega=1"), t_max=1.1)
        calls = []
        dense = ode_coeff.ChebyshevPanels.__call__
        monkeypatch.setattr(
            ode_coeff.ChebyshevPanels, "__call__",
            lambda self, t: (calls.append(t), dense(self, t))[1],
        )
        ts, xs = np.linspace(0.1, 0.55, 8), np.linspace(-2.0, 2.0, 25)
        fld = wavefield(kernel, plane_wave(2.0), ts, xs, tol=1e-9)
        assert not fld.failures
        assert len(calls) <= len(ts)


class TestCalibration:
    """The error estimate bounds the true error on the plane-wave grids of
    all four potentials and the driven oscillator (the Poschl-Teller l = 2
    grid with its Jost datum), from loose to tight tolerances."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_estimate_bounds_true_error(
        self, tol, free_kernel, electric_kernel, harmonic_kernel, driven_kernel, pt2_kernel
    ):
        cases = [
            (free_kernel, plane_wave(3.0), 1.0, lambda t, x: free_plane(t, x, 3.0)),
            (electric_kernel, plane_wave(2.0), 1.0, lambda t, x: electric_plane(t, x, 2.0)),
            (harmonic_kernel, plane_wave(2.0), 0.75, lambda t, x: harmonic_plane(t, x, 2.0)),
            (driven_kernel, plane_wave(2.0), 0.75, lambda t, x: driven_plane(t, x, 2.0, 0.7)),
            # past the focal time pi/4, where a(t) < 0 and the contour turns down
            (harmonic_kernel, plane_wave(2.0), 1.5, lambda t, x: harmonic_plane(t, x, 2.0)),
            (driven_kernel, plane_wave(2.0), 1.5, lambda t, x: driven_plane(t, x, 2.0, 0.7)),
            (pt2_kernel, jost_signal(2, 2.0), 1.0, lambda t, x: jost_wave(2, t, x, 2.0)),
        ]
        for kernel, f, t_hi, exact in cases:
            ts, xs = np.linspace(0.1, t_hi, 4), np.linspace(-2.0, 2.0, 5)
            fld = wavefield(kernel, f, ts, xs, tol=tol)
            assert not fld.failures, kernel.potential.label()
            err = np.abs(fld.values - exact(ts[:, None], xs[None, :]))
            assert np.all(err <= fld.quad_errors), (kernel.potential.label(), np.max(err / fld.quad_errors))

    @pytest.mark.xfail(
        reason="ROADMAP item 7: the estimate has no coefficient-rounding term, "
        "which a = beta / (4 alpha) amplifies toward the focal time pi/4",
    )
    def test_estimate_bounds_error_next_to_focal_time(self, harmonic_kernel):
        # unit oscillator, kappa = 3, x = -1, tol 1e-9: the error is 3.18
        # times the estimate at pi/4 - 1e-3 and 4.69 times at pi/4 + 1e-3
        # (0.92 at pi/4 + 1e-2, where the estimate holds)
        ratios = []
        for t in (np.pi / 4 - 1e-3, np.pi / 4 + 1e-3):
            res = wavefunction_result(harmonic_kernel, plane_wave(3.0), t, -1.0, 1e-9)
            ratios.append(abs(res.value - harmonic_plane(t, -1.0, 3.0)) / res.err_estimate)
        assert max(ratios) <= 1.0, ratios


class TestPastCaustics:
    """Quadratic kernels for all time: past each zero of alpha, a caustic,
    the kernel takes |alpha| and a factor -i (Buniy, Colombo, Sabadini and
    Struppa, J. Math. Phys. 55 (2014) 113511); next to a caustic the point
    fails with its reason."""

    TS = (0.3, 1.0, 1.5, 1.9, 2.0, 2.9, 3.3, 4.0)

    @pytest.fixture(scope="class")
    def long_kernels(self):
        from supershift_lab.greens import Quadratic

        return (
            make_kernel(Harmonic(lambda t: 1.0, "omega=1"), t_max=5.0),
            make_kernel(Quadratic(lambda t: 1.0, lambda t: 0.7, "driven(E=0.7)"), t_max=5.0),
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["harmonic", "driven"])
    def test_plane_waves_for_all_time(self, long_kernels, which):
        # t up to 4 passes the caustics pi/2 and pi and the focal times
        # pi/4, 3 pi/4 and 5 pi/4; the oracle takes the continuous branch
        # of beta^{-1/2}.  Max error 4.9e-10 and error/estimate 0.972 on
        # both kernels
        kernel = long_kernels[which]
        exact = [
            lambda t, x: harmonic_plane(t, x, 2.0),
            lambda t, x: driven_plane(t, x, 2.0, 0.7),
        ][which]
        ts, xs = np.array(self.TS), np.linspace(-2.0, 2.0, 9)
        fld = wavefield(kernel, plane_wave(2.0), ts, xs, tol=1e-9)
        assert not fld.failures
        err = np.abs(fld.values - exact(ts[:, None], xs[None, :]))
        assert np.all(err <= fld.quad_errors), np.max(err / fld.quad_errors)
        assert err.max() <= 5e-10

    def test_revival_identity_on_superoscillation_stack(self, long_kernels):
        # H = -d^2 + x^2 has the spectrum 2n + 1 and Hermite functions of
        # parity (-1)^n, so U(pi/2) = -i P: Psi(t + pi/2, x) = -i Psi(t, -x)
        # for every datum, here F_20 (kappa = 2) beside its target, which
        # no closed form covers
        kernel = long_kernels[0]
        stack = signal_stack([plane_wave(2.0), superosc_signal(20, 2.0)])
        xs = np.linspace(-2.0, 2.0, 9)
        for t in (0.3, 0.6):
            now = wavefield(kernel, stack, [t], xs, tol=1e-9)
            later = wavefield(kernel, stack, [t + np.pi / 2], xs[::-1], tol=1e-9)
            assert not now.failures and not later.failures
            gap = np.abs(later.values + 1j * now.values)
            assert np.all(gap <= later.quad_errors + now.quad_errors)

    def test_supershift_repeats_a_quarter_period_later(self, long_kernels):
        # on a grid symmetric in x the revival maps every gap |Psi(F_n) -
        # Psi(target)| at (t, x) to the one at (t + pi/2, -x), so d_n on the
        # grid shifted past the caustic pi/2 equal the unshifted ones
        kernel = long_kernels[0]
        ts, xs, ns = np.linspace(0.1, 0.4, 4), np.linspace(-1.0, 1.0, 9), [10, 20, 40]
        stack = signal_stack([plane_wave(2.0)] + [superosc_signal(n, 2.0) for n in ns])
        slack = np.zeros(len(ns))
        reports = []
        for grid in (ts, ts + np.pi / 2):
            rep = supershift_experiment(kernel, ns, 2.0, grid, xs, tol=1e-8)
            assert not rep.failures and rep.strictly_decreasing
            reports.append(rep.distances)
            est = wavefield(kernel, stack, grid, xs, tol=1e-8).quad_errors
            slack += (est[1:] + est[0]).reshape(len(ns), -1).max(axis=1)
        assert reports[0] == pytest.approx(HARM_D, abs=1e-4)
        assert np.all(np.abs(np.subtract(*reports)) <= slack)

    def test_growing_kernel_keeps_every_point(self):
        # the inverted oscillator's alpha = sinh(2t)/2 never vanishes; its
        # coefficients grow like e^{2t} to the solve's end t_max = 10, and
        # the guard reads each time's own panel, so no point fails
        kernel = make_kernel(Harmonic(lambda t: -1.0, "inverted"))
        ts, xs = np.array([0.3, 1.0, 2.0, 3.0, 5.0]), np.linspace(-2.0, 2.0, 9)
        fld = wavefield(kernel, plane_wave(2.0), ts, xs, tol=1e-9)
        assert not fld.failures
        t, x = ts[:, None], xs[None, :]
        exact = np.exp(0.5j * (x * x - 4.0) * np.tanh(2 * t) + 2j * x / np.cosh(2 * t))
        err = np.abs(fld.values - exact / np.sqrt(np.cosh(2 * t)))
        assert np.all(err <= fld.quad_errors)

    def test_caustic_probe(self, long_kernels):
        # t = k pi/2 + delta next to the caustics pi/2, pi and 3 pi/2: a
        # point fails with its reason or lies within its estimate of a
        # 40-digit oracle at the same double t.  Without the coefficient
        # guard 18 of these points, all next to pi, returned values off by
        # up to 1.8 (alpha(pi) reads +1.4e-16, the wrong sign)
        import mpmath as mp

        def oracle(t, x, kappa=2):
            with mp.workdps(40):
                t, x = mp.mpf(t), mp.mpf(x)
                turns = int(mp.floor(2 * t / mp.pi + 0.5))
                al, be = mp.sin(2 * t) / 2, mp.cos(2 * t)
                phase = (kappa * x - (x * x + kappa * kappa) * al) / be
                return complex((-1j) ** turns * mp.expj(phase) / mp.sqrt(abs(be)))

        kernel = long_kernels[0]
        steps = (1e-15, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3)
        deltas = [0.0] + [s * d for d in steps for s in (1, -1)]
        xs = [0.5, -1.5]
        guarded = 0
        for k in (1, 2, 3):
            ts = [k * np.pi / 2 + d for d in deltas]
            fld = wavefield(kernel, plane_wave(2.0), ts, xs, tol=1e-9)
            failed = {(t, x): reason for t, x, reason in fld.failures}
            for i, t in enumerate(ts):
                for j, x in enumerate(xs):
                    if (t, x) in failed:
                        assert failed[(t, x)]
                        guarded += "caustic" in failed[(t, x)]
                        continue
                    assert abs(fld.values[i, j] - oracle(t, x)) <= fld.quad_errors[i, j], (t, x)
            # the points 1e-3 away evaluate; those within 1e-7 fail
            assert all(abs(t - k * np.pi / 2) < 1e-4 for t, _ in failed)
            assert all((t, x) in failed for t in ts[:11] for x in xs)
        assert guarded >= 66

    def test_exact_zero_of_alpha_is_a_point_failure(self, monkeypatch):
        # alpha(t) == 0.0 would divide by zero in a = beta / (4 alpha): the
        # kernel raises an error that names the caustic, the point fails
        # with it, and the grid goes on
        kernel = make_kernel(Harmonic(lambda t: 1.0, "omega=1"), t_max=2.0)
        state = ode_coeff.QuadraticCoeffs.state
        monkeypatch.setattr(
            ode_coeff.QuadraticCoeffs, "state",
            lambda self, t: (0.0, *state(self, t)[1:]) if t == 1.5 else state(self, t),
        )
        fld = wavefield(kernel, plane_wave(2.0), [1.5, 1.6], [0.5], tol=1e-9)
        [(t, x, reason)] = fld.failures
        assert (t, x) == (1.5, 0.5)
        assert reason.startswith("PrecisionExhausted") and "caustic" in reason
        assert np.isnan(fld.values[0, 0]) and fld.quad_errors[0, 0] == np.inf
        for call in (kernel.a, lambda t: greens_value(kernel, t, 0.5, 0.2),
                     lambda t: pde_residual(kernel, t, 0.5, 0.2)):
            with pytest.raises(PrecisionExhausted, match="caustic"):
                call(1.5)
        assert abs(fld.values[1, 0] - harmonic_plane(1.6, 0.5, 2.0)) <= fld.quad_errors[1, 0]


class TestSeedLength:
    """Sech^2-well seeds no wider than 3 / b (b the envelope's linear
    coefficient) and graded toward the cosh zeros at rho(tol): most points
    take one integrand call."""

    @staticmethod
    def _jost_grid(l, tol):
        from supershift_lab.greens import PoschlTeller

        kappa = 2.0
        ts, xs = np.linspace(0.1, 1.0, 5), np.linspace(-2.0, 2.0, 9)
        fld = wavefield(make_kernel(PoschlTeller(l)), jost_signal(l, kappa), ts, xs, tol=tol)
        assert not fld.failures
        exact = jost_wave(l, ts[:, None], xs[None, :], kappa)
        assert np.all(np.abs(fld.values - exact) <= fld.quad_errors)
        return fld

    @pytest.mark.parametrize("l", [1, 2])
    def test_pt_jost_grid_calls_per_point(self, l):
        # 1.18 calls per point on both grids; seeded at the fixed sech^2
        # width 0.995 they took 1.27 and 1.78, at the Gaussian width alone
        # 3.0-3.1
        fld = self._jost_grid(l, 1e-9)
        assert np.mean(fld.rounds + 1) <= 1.25

    @pytest.mark.parametrize("l, fixed_width_nodes", [(1, 582), (2, 649)])
    def test_pt_jost_seed_follows_tol(self, l, fixed_width_nodes):
        # at tol 1e-6 the grading toward the cosh zeros is coarser than at
        # 1e-9: one call per point, and fewer nodes than the fixed sech^2
        # width 0.995 took (446 and 476 per point against 582 and 649)
        fld = self._jost_grid(l, 1e-6)
        assert np.all(fld.rounds == 0)
        assert np.mean(fld.nodes) < fixed_width_nodes

    @pytest.mark.parametrize("l", [1, 2])
    def test_clipped_plane_wave_calls_per_point(self, l):
        # kappa = 3 puts the stationary point x - 6t past the admitted
        # |center| <= 3.53 on most of the grid: the clipped line is not
        # stationary, and the width cap takes the envelope's linear
        # coefficient from that offset (1.47 and 1.41 calls per point; 2.58
        # and 3.10 with the fixed sech^2 width)
        from supershift_lab.greens import PoschlTeller

        kernel, f = make_kernel(PoschlTeller(l)), plane_wave(3.0)
        ts, xs = np.linspace(0.1, 1.0, 8), np.linspace(-2.0, 2.0, 25)
        T, X = np.meshgrid(ts, xs, indexing="ij")
        assert np.count_nonzero(np.abs(X - 6.0 * T) > 3.53) > len(xs)
        fld = wavefield(kernel, f, ts, xs, tol=1e-9)
        ref = wavefield(kernel, f, ts, xs, tol=1e-12)
        assert not fld.failures and not ref.failures
        assert np.all(np.abs(fld.values - ref.values) <= fld.quad_errors + ref.quad_errors)
        assert np.mean(fld.rounds + 1) <= 1.5


class TestResidualField:
    def test_free_plane_wave(self, free_kernel):
        h = 1e-3
        ts = 0.5 + h * np.arange(5)
        xs = 0.3 + h * np.arange(5)
        fld = wavefield(free_kernel, plane_wave(2.0), ts, xs, tol=1e-10)
        assert schrodinger_residual_field(fld, free_kernel) <= 1e-4

    @staticmethod
    def _zero_field(ts, xs):
        shape = (len(ts), len(xs))
        return WaveField(
            ts=np.asarray(ts),
            xs=np.asarray(xs),
            values=np.zeros(shape, dtype=complex),
            quad_errors=np.zeros(shape),
            potential="free",
            initial="zero",
            tol=1e-10,
            radius=np.zeros(shape),
            nodes=np.zeros(shape, dtype=int),
            rounds=np.zeros(shape, dtype=int),
        )

    def test_zero_field(self, free_kernel):
        fld = self._zero_field(np.linspace(0.1, 0.2, 5), np.linspace(0, 1, 5))
        assert schrodinger_residual_field(fld, free_kernel) == 0.0

    def test_pt_patch(self, pt1_kernel):
        h = 5e-3
        ts = 0.4 + h * np.arange(5)
        xs = 0.2 + h * np.arange(5)
        fld = wavefield(pt1_kernel, plane_wave(2.0), ts, xs, tol=1e-9)
        assert schrodinger_residual_field(fld, pt1_kernel) <= 1e-3

    def test_nonuniform_grid_rejected(self, free_kernel):
        ts = np.array([0.1, 0.2, 0.3, 0.4, 0.6])
        fld = self._zero_field(ts, np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="uniform"):
            schrodinger_residual_field(fld, free_kernel)

    def test_grid_below_5x5_rejected(self, free_kernel):
        fld = self._zero_field(np.linspace(0.1, 0.2, 4), np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="5x5"):
            schrodinger_residual_field(fld, free_kernel)

    def test_harmonic_patch_discriminates(self, free_kernel, harmonic_kernel):
        # verify's patch at t = pi/8: the plain stencil's O(h^2) error read
        # 3e-3 here; extrapolated, the correct field reads far below the
        # 1e-3 threshold, and the wrong potential or one value off by 1e-6
        # reads far above it
        h = 2e-3
        ts = np.pi / 8 + h * np.arange(5)
        xs = 0.3 + h * np.arange(5)
        fld = wavefield(harmonic_kernel, plane_wave(3.0), ts, xs, tol=1e-9)
        assert schrodinger_residual_field(fld, harmonic_kernel) <= 1e-5
        assert schrodinger_residual_field(fld, free_kernel) >= 1e-2
        fld.values[2, 1] *= 1.0 + 1e-6
        assert schrodinger_residual_field(fld, harmonic_kernel) >= 1e-2


class TestInitialLimit:
    def test_free_constant_exact(self, free_kernel):
        rep = initial_limit_check(
            free_kernel, constant_signal(), np.linspace(-1, 1, 5), [1e-2, 1e-3], tol=1e-10
        )
        assert rep.final_error < 1e-8

    def test_free_plane_wave_rate(self, free_kernel):
        # |e^{-4it} - 1| ~ 4t for kappa = 2
        rep = initial_limit_check(
            free_kernel, plane_wave(2.0), np.linspace(-2, 2, 9), [1e-2, 1e-3, 1e-4]
        )
        assert rep.decreasing and rep.passed
        for t, e in zip(rep.t_values, rep.errors):
            assert abs(e - 4.0 * t) <= 0.1 * 4.0 * t + 1e-6

    def test_harmonic(self, harmonic_kernel):
        rep = initial_limit_check(
            harmonic_kernel, plane_wave(1.0), np.linspace(-2, 2, 9), [1e-2, 1e-3, 1e-4]
        )
        assert rep.decreasing and rep.final_error <= 1e-2

    def test_point_error_recorded_not_raised(self, pt1_kernel):
        # x = 4.25 puts a pole inside the swept sector at every t; x = 0 still counts
        pw = plane_wave(1.0)
        rep = initial_limit_check(pt1_kernel, pw, [0.0, 4.25], [0.1, 0.01], tol=1e-8)
        assert [(t, x) for t, x, _ in rep.failures] == [(0.1, 4.25), (0.01, 4.25)]
        assert all(r.startswith("DomainMarginError") for _, _, r in rep.failures)
        for t, e in zip(rep.t_values, rep.errors):
            assert e == abs(wavefunction(pt1_kernel, pw, t, 0.0, 1e-8) - 1.0)
        assert rep.decreasing and rep.final_error <= 1e-2 and not rep.passed


class TestSupershift:
    def test_free_true_values(self, free_kernel):
        rep = supershift_experiment(
            free_kernel,
            [10, 20, 40],
            3.0,
            np.linspace(0.1, 0.5, 5),
            np.linspace(-1, 1, 9),
            tol=1e-8,
        )
        assert rep.strictly_decreasing
        for d, ref in zip(rep.distances, FREE_D):
            assert abs(d - ref) <= 1e-4

    def test_harmonic_true_values(self, harmonic_kernel):
        rep = supershift_experiment(
            harmonic_kernel,
            [10, 20, 40],
            2.0,
            np.linspace(0.1, 0.4, 4),
            np.linspace(-1, 1, 9),
            tol=1e-8,
        )
        assert rep.strictly_decreasing
        for d, ref in zip(rep.distances, HARM_D):
            assert abs(d - ref) <= 1e-4

    def test_harmonic_past_focal_time(self, harmonic_kernel):
        # t in [0.9, 1.4], past the focal time pi/4: the supershift holds
        # there too, with a larger constant
        rep = supershift_experiment(
            harmonic_kernel,
            [10, 40, 160, 640],
            2.0,
            np.linspace(0.9, 1.4, 6),
            np.linspace(-1, 1, 9),
            tol=1e-9,
        )
        assert not rep.failures and rep.strictly_decreasing
        assert rep.distances == pytest.approx([194.4430, 122.9114, 7.434986, 1.011062], rel=1e-5)
        # F_10 against its plane-wave combination (coefficient mass 2^10)
        t, x = 1.2, 0.5
        ks = 1.0 - 2.0 * np.arange(11) / 10
        cs = [float(c) for c in superosc_coefficients(10, 2.0)]
        exact = sum(c * harmonic_plane(t, x, k) for c, k in zip(cs, ks))
        r = wavefunction_result(harmonic_kernel, superosc_signal(10, 2.0), t, x, 1e-10)
        assert abs(r.value - exact) <= r.err_estimate + 1024 * 1e-15 * abs(exact)

    def test_point_error_recorded_not_raised(self, pt1_kernel):
        # x = 4.25 puts a pole inside the sector swept to the line through
        # it, where F_10 (frequency 0) and with it the target are
        # integrated.  x = 0 still counts
        pw, fn = plane_wave(2.0), superosc_signal(10, 2.0)
        rep = supershift_experiment(pt1_kernel, [10], 2.0, [0.3], [0.0, 4.25], tol=1e-8)
        assert [(n, t, x) for n, t, x, _ in rep.failures] == [(10, 0.3, 4.25)]
        assert all(r.startswith("DomainMarginError") for *_, r in rep.failures)
        [d] = rep.distances
        _assert_gap_from_stack(pt1_kernel, pw, [fn], 0.3, 0.0, [d])
        assert not rep.strictly_decreasing

    def test_gaps_equal_python_abs_over_wavefield_cells(self, free_kernel):
        # criterion-9 free column: kappa = 3, x = -1, t in [0.1, 0.5]; the
        # experiments' array gaps must round like Python's complex abs over
        # the field they evaluate: the stack of the target and the F_n
        ts, col = np.linspace(0.1, 0.5, 5), [-1.0]
        rep = supershift_experiment(free_kernel, [10, 20, 40], 3.0, ts, col, tol=1e-8)
        stack = signal_stack([plane_wave(3.0)] + [superosc_signal(n, 3.0) for n in (10, 20, 40)])
        ref, *planes = wavefield(free_kernel, stack, ts, col, tol=1e-8).values
        for vals, d in zip(planes, rep.distances):
            assert d == max(abs(complex(v) - complex(r)) for v, r in zip(vals.flat, ref.flat))
        pw = plane_wave(3.0)
        lim = initial_limit_check(free_kernel, pw, col, ts, tol=1e-8)
        f0 = complex(pw(np.array(col) + 0j)[0])
        for t, e in zip(lim.t_values, lim.errors):
            [v] = wavefield(free_kernel, pw, [t], col, tol=1e-8).values.flat
            assert e == abs(complex(v) - f0)

    def test_single_term_family_is_exact(self, free_kernel):
        # combination with the target frequency itself: distance 0 to tol
        rep = supershift_experiment(
            free_kernel, [1], 1.0, [0.3], [0.0, 0.5], tol=1e-10
        )
        # n=1, kappa=1: C_0 = 1, C_1 = 0, k_0 = 1 -> F_1 = e^{iz} exactly
        assert rep.distances[0] <= 1e-9

    def test_node_level_matches_direct_combination(self, free_kernel):
        a = wavefunction(free_kernel, superosc_signal(8, 3.0), 0.3, 0.5, 1e-10)
        b = supershift_combination_direct(free_kernel, 8, 3.0, 0.3, 0.5, 1e-10)
        # result-level rounding is amplified by 3^8 = 6561
        assert abs(a - b) <= 6561 * 1e-10

    def test_node_level_matches_direct_combination_harmonic(self, harmonic_kernel):
        a = wavefunction(harmonic_kernel, superosc_signal(6, 2.0), 0.25, 0.4, 1e-10)
        b = supershift_combination_direct(harmonic_kernel, 6, 2.0, 0.25, 0.4, 1e-10)
        assert abs(a - b) <= 2.0**6 * 1e-9


class TestSignalStack:
    def test_stack_of_one_is_bit_identical(self, free_kernel, harmonic_kernel, pt2_kernel):
        cases = [
            (free_kernel, superosc_signal(20, 3.0), 0.3, -1.0),
            (free_kernel, plane_wave(3.0), 0.5, 0.4),
            (harmonic_kernel, superosc_signal(10, 2.0), 0.4, 0.7),
            (pt2_kernel, jost_signal(2, 2.0), 0.6, -1.1),
            (pt2_kernel, superosc_signal(40, 2.0), 0.5, 1.0),
        ]
        for kernel, f, t, x in cases:
            one = wavefunction_result(kernel, f, t, x, 1e-9)
            stacked = wavefunction_result(kernel, signal_stack([f]), t, x, 1e-9)
            assert stacked.value.tolist() == [one.value]
            assert stacked.err_estimate.tolist() == [one.err_estimate]
            shared = ("truncation_radius", "panels_used", "nodes", "rounds")
            assert [getattr(stacked, k) for k in shared] == [getattr(one, k) for k in shared]

    @pytest.mark.parametrize(
        "case",
        [
            ("free_kernel", 3.0, np.linspace(0.1, 0.5, 5)),
            ("harmonic_kernel", 2.0, np.linspace(0.1, 0.4, 4)),
            ("pt2_kernel", 2.0, np.linspace(0.1, 0.5, 5)),
        ],
        ids=["free", "harmonic", "pt2"],
    )
    def test_stacked_values_within_estimates_of_lone_ones(self, case, request):
        # every order meets tol on the panels of the stack, which refine
        # wherever any order needs it
        name, kappa, ts = case
        kernel, xs = request.getfixturevalue(name), np.linspace(-1.0, 1.0, 9)
        fs = [superosc_signal(n, kappa) for n in (10, 20, 40)]
        stacked = wavefield(kernel, signal_stack(fs), ts, xs, tol=1e-8)
        assert not stacked.failures and stacked.values.shape == (3, len(ts), 9)
        for f, vals, errs in zip(fs, stacked.values, stacked.quad_errors):
            alone = wavefield(kernel, f, ts, xs, tol=1e-8)
            assert not alone.failures
            assert np.all(errs <= 1e-8)
            assert np.all(np.abs(vals - alone.values) <= errs + alone.quad_errors)

    def test_one_kernel_call_per_stacked_integrand_batch(self, pt2_kernel):
        calls = []
        gtilde = pt2_kernel.gtilde
        counted = dataclasses.replace(
            pt2_kernel, gtilde=lambda t, x, z: calls.append(np.size(z)) or gtilde(t, x, z)
        )
        ts, xs = np.linspace(0.1, 0.5, 5), np.linspace(-1.0, 1.0, 9)
        fs = [superosc_signal(n, 2.0) for n in (10, 20, 40)]
        fld = wavefield(counted, signal_stack(fs), ts, xs, tol=1e-8)
        assert not fld.failures
        assert len(calls) == int((fld.rounds + 1).sum())
        assert sum(calls) == int(fld.nodes.sum())
        # the experiment is one field, the stack of the target and the
        # F_n: one kernel call per point and round (45 here; 96 with the
        # target as a field of its own, 186 with a field per order)
        one = wavefield(pt2_kernel, signal_stack([plane_wave(2.0)] + fs), ts, xs, 1e-8)
        calls.clear()
        rep = supershift_experiment(counted, [10, 20, 40], 2.0, ts, xs, tol=1e-8)
        assert not rep.failures and len(calls) == int((one.rounds + 1).sum())

    def test_failed_stacked_point_lists_every_order(self, pt1_kernel):
        rep = supershift_experiment(pt1_kernel, [10, 20], 2.0, [0.3], [0.0, 4.25], tol=1e-8)
        assert [(n, t, x) for n, t, x, _ in rep.failures] == [(10, 0.3, 4.25), (20, 0.3, 4.25)]
        assert all(r.startswith("DomainMarginError") for *_, r in rep.failures)
        fs = [superosc_signal(n, 2.0) for n in (10, 20)]
        _assert_gap_from_stack(pt1_kernel, plane_wave(2.0), fs, 0.3, 0.0, rep.distances)
        assert not rep.strictly_decreasing

    def test_failed_stacked_point_records_each_order(self, free_kernel, monkeypatch):
        # a panel budget above the seed (22 panels) and below the point's
        # need (29): the point fails after a pass, and each order keeps its
        # own panel sum and estimate from the exception
        fs = [superosc_signal(n, 3.0) for n in (10, 20)]
        with monkeypatch.context() as m:
            m.setattr(contour_quad, "_MAX_PANELS", 24)
            fld = wavefield(free_kernel, signal_stack(fs), [0.3], [-1.0], tol=1e-12)
        [(_, _, reason)] = fld.failures
        assert reason.startswith("PanelExhausted") and "budget 24 exhausted" in reason
        assert fld.quad_errors[0, 0, 0] != fld.quad_errors[1, 0, 0]
        for f, v, e in zip(fs, fld.values[:, 0, 0], fld.quad_errors[:, 0, 0]):
            assert abs(v - wavefunction(free_kernel, f, 0.3, -1.0, 1e-12)) <= e

    def test_combined_approximants_share_the_target_field(self, free_kernel):
        # combinations differ in their witness amplitudes: they and the
        # target are one field, under the largest amplitude, and each
        # distance lies within the estimates of the approximant's lone field
        pw, fn = plane_wave(3.0), superosc_signal(8, 3.0)
        approx = [combine_signals([(c, fn), (1.0 - c, pw)]) for c in (10.0, 5.0)]
        assert approx[0].growth != approx[1].growth
        ts, xs = [0.3], [0.0, 0.7]
        rep = continuous_dependence_check(
            free_kernel, pw, approx, [1, 2], 8.0, disk_samples(2.0), ts, xs, tol=1e-8
        )
        assert not rep.failures
        fld = wavefield(free_kernel, signal_stack([pw] + approx), ts, xs, tol=1e-8)
        ref, ref_err = wavefield(free_kernel, pw, ts, xs, tol=1e-8), fld.quad_errors[0]
        for f, vals, errs, d in zip(approx, fld.values[1:], fld.quad_errors[1:], rep.field_distances):
            assert d == max(abs(complex(v) - complex(r)) for v, r in zip(vals.flat, fld.values[0].flat))
            alone = wavefield(free_kernel, f, ts, xs, tol=1e-8)
            lone_d = np.max(np.abs(alone.values - ref.values))
            slack = errs + ref_err + alone.quad_errors + ref.quad_errors
            assert abs(d - lone_d) <= np.max(slack)


class TestAnalyticityProbe:
    def test_free_entire(self, free_kernel):
        v = analyticity_probe(free_kernel, 0.4, 0.3, [0, 1, 1j], tol=1e-9)
        assert abs(v) <= 1e-8

    def test_degenerate_triangle(self, free_kernel):
        v = analyticity_probe(free_kernel, 0.4, 0.3, [1.0, 1.0, 1.0], tol=1e-9)
        assert v == 0j

    def test_harmonic(self, harmonic_kernel):
        v = analyticity_probe(harmonic_kernel, 0.2, 0.5, [1, 2, 1 + 1j], tol=1e-9)
        assert abs(v) <= 1e-6

    def test_vertex_count_checked(self, free_kernel):
        with pytest.raises(ValueError):
            analyticity_probe(free_kernel, 0.4, 0.3, [0, 1])


class TestContinuousDependence:
    def test_identical_signals_give_zeros(self, free_kernel):
        pw = plane_wave(3.0)
        rep = continuous_dependence_check(
            free_kernel,
            pw,
            [pw, pw],
            [1, 2],
            default_weight(3.0),
            disk_samples(3.0),
            [0.2],
            [0.0, 0.5],
        )
        assert rep.metrics == [0.0, 0.0]
        assert rep.field_distances == [0.0, 0.0]

    def test_scaling_linearity(self, free_kernel):
        pw = plane_wave(3.0)
        fn = superosc_signal(8, 3.0)
        f10 = combine_signals([(10.0, fn), (-9.0, pw)])
        samples = disk_samples(2.0)
        t_grid, x_grid = [0.3], [0.0, 0.7]
        r1 = continuous_dependence_check(
            free_kernel, pw, [fn], [8], 8.0, samples, t_grid, x_grid
        )
        r10 = continuous_dependence_check(
            free_kernel, pw, [f10], [8], 8.0, samples, t_grid, x_grid
        )
        # F - pw scaled by 10 scales both columns by 10
        assert r10.metrics[0] == pytest.approx(10 * r1.metrics[0], rel=1e-9)
        assert r10.field_distances[0] == pytest.approx(
            10 * r1.field_distances[0], rel=1e-6
        )

    def test_ratio_stability_free(self, free_kernel):
        pw = plane_wave(3.0)
        approx = [superosc_signal(n, 3.0) for n in (10, 20, 40)]
        rep = continuous_dependence_check(
            free_kernel,
            pw,
            approx,
            [10, 20, 40],
            default_weight(3.0),
            disk_samples(3.0),
            np.linspace(0.1, 0.5, 5),
            np.linspace(-1, 1, 9),
            tol=1e-8,
        )
        assert all(m2 < m1 for m1, m2 in zip(rep.metrics, rep.metrics[1:]))
        assert rep.passed
        assert rep.stable_within <= 3.0

    def test_point_error_recorded_not_raised(self, pt1_kernel):
        # x = 4.25 puts a pole inside the sector swept to the line through
        # it, where F_10 and with it the target are integrated.  x = 0
        # still counts
        pw, fn = plane_wave(2.0), superosc_signal(10, 2.0)
        rep = continuous_dependence_check(
            pt1_kernel, pw, [fn], [10], 6.0, disk_samples(3.0), [0.3], [0.0, 4.25], tol=1e-8
        )
        assert [(n, t, x) for n, t, x, _ in rep.failures] == [(10, 0.3, 4.25)]
        assert all(r.startswith("DomainMarginError") for *_, r in rep.failures)
        _assert_gap_from_stack(pt1_kernel, pw, [fn], 0.3, 0.0, rep.field_distances)
        assert not rep.passed

    def test_no_approximants_evaluate_nothing(self, free_kernel):
        def gtilde(t, x, z):
            raise AssertionError("no field to evaluate")

        kernel = dataclasses.replace(free_kernel, gtilde=gtilde)
        rep = continuous_dependence_check(
            kernel, plane_wave(2.0), [], [], 6.0, disk_samples(3.0), [0.3], [0.0]
        )
        assert (rep.field_distances, rep.failures, rep.passed) == ([], [], True)
