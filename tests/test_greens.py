"""Kernel construction, closed-form identities, and the contract audit.

The sech^2-well reference values are frozen from an mpmath 60-digit
transcription of the kernel: the factors are Q_1^1(w) = -sech(w),
Q_2^1(w) = -3 tanh(w) sech(w), Q_2^2(w) = 3 sech^2(w) with the two-sided
erfc combination for the time factor.
"""

import json

import numpy as np
import pytest

from supershift_lab import greens, special_fn
from supershift_lab.contour_quad import GrowthWitness, rotated_integral
from supershift_lab.crosschecks import epsilon_regularized_integral
from supershift_lab.errors import HorizonExceeded
from supershift_lab.greens import (
    Electric,
    Harmonic,
    PoschlTeller,
    audit_kernel,
    greens_value,
    make_kernel,
    pde_residual,
)
from supershift_lab.initial_data import HolomorphicSignal
from supershift_lab.ode_coeff import solve_electric

PT1_VALUE = 0.3744261043465431 + 0.1877954493573352j  # G(0.5, 0, 1), l=1
PT2_VALUE = 0.2036766716638412 + 0.4077634410054483j  # G(0.4, 0.3, 0.8), l=2


def harmonic_reduced(t, x, z, omega=1.0):
    """Unit-frequency oscillator kernel in trigonometric form."""
    return (
        np.sqrt(omega)
        / np.sqrt(2j * np.pi * np.sin(2 * omega * t))
        * np.exp(
            -omega * (z - x) ** 2 / (2j * np.tan(2 * omega * t))
            - 1j * omega * x * z * np.tan(omega * t)
        )
    )


def inverted_reduced(t, x, z, omega=1.0):
    return (
        np.sqrt(omega)
        / np.sqrt(2j * np.pi * np.sinh(2 * omega * t))
        * np.exp(
            -omega * (z - x) ** 2 / (2j * np.tanh(2 * omega * t))
            + 1j * omega * x * z * np.tanh(omega * t)
        )
    )


class TestFreeKernel:
    def test_point_value(self, free_kernel):
        v = greens_value(free_kernel, 0.25, 0.0, 0.0)
        assert abs(v - 1.0 / np.sqrt(1j * np.pi)) < 1e-15

    def test_unimodular_on_real_line(self, free_kernel, rng):
        for _ in range(20):
            t = rng.uniform(0.05, 2.0)
            x, y = rng.uniform(-3, 3, 2)
            v = greens_value(free_kernel, t, x, y)
            assert abs(abs(v) - 1.0 / (2.0 * np.sqrt(np.pi * t))) < 1e-14

    def test_decomposition_consistency(self, free_kernel, rng):
        t, x = 0.4, 0.7
        z = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-1, 1, 8)
        lhs = greens_value(free_kernel, t, x, z)
        rhs = np.exp(1j * free_kernel.a(t) * (z - x) ** 2) * free_kernel.gtilde(t, x, z)
        assert np.max(np.abs(lhs - rhs)) == 0.0

    def test_conservation_of_constants(self, free_kernel, rng):
        # int G(t, x, y) dy = 1 via the rotated contour
        for _ in range(5):
            t = rng.uniform(0.1, 1.5)
            x = rng.uniform(-2, 2)
            f = HolomorphicSignal(
                eval=lambda z, t=t, x=x: free_kernel.gtilde(t, x, np.asarray(z, dtype=complex)),
                growth=free_kernel.growth(t, x),
                label="gtilde",
            )
            r = rotated_integral(
                f, a=free_kernel.a(t), y1=x, center=x, angle=np.pi / 4, tol=1e-12
            )
            assert abs(r.value - 1.0) < 1e-10


class TestElectricKernel:
    def test_zero_field_reduces_to_free(self, free_kernel):
        k0 = make_kernel(Electric(lambda t: 0.0, "0"), t_max=2.0)
        for t, x, z in ((0.5, 0.3, 1.2 + 0.5j), (0.1, -1.0, 0.4)):
            assert abs(
                greens_value(k0, t, x, z) - greens_value(free_kernel, t, x, z)
            ) < 1e-15

    def test_pde_residual(self, electric_kernel):
        assert pde_residual(electric_kernel, 0.5, 0.0, 0.5) <= 1e-4

    def test_growth_witness_fields(self, electric_kernel):
        # gtilde = e^{i q z} times a factor of modulus 1/(2 sqrt(pi t)):
        # the frequency witness is exact with rate 0
        g = electric_kernel.growth(0.5, 0.3)
        a0 = g.amplitude
        assert a0 == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi * 0.5)))
        assert g.rate == 0.0
        q = solve_electric(lambda t: 1.0, t_max=2.0).q(0.5)
        assert g.freq == q
        assert electric_kernel.growth_imag(0.5, 0.3)[1] == pytest.approx(abs(q))
        z = np.array([3.0 + 2.0j, -20.0 - 15.0j])
        assert np.allclose(
            np.abs(electric_kernel.gtilde(0.5, 0.3, z)), a0 * np.exp(-q * z.imag), rtol=1e-12
        )


class TestHarmonicKernel:
    def test_against_reduced_form_relative(self, harmonic_kernel, rng):
        worst = 0.0
        for _ in range(100):
            t = rng.uniform(0.005, np.pi / 4)
            x = rng.uniform(-2, 2)
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1)
            mine = greens_value(harmonic_kernel, t, x, z)
            ref = harmonic_reduced(t, x, z)
            worst = max(worst, abs(mine - ref) / abs(ref))
        assert worst <= 1e-9

    def test_kernel_valid_past_focal_time(self, harmonic_kernel):
        # beta < 0 on (pi/4, pi/2): the values stay valid up to the zero of
        # alpha, the one horizon, and stop there
        t = np.pi / 4 + 0.2
        v = greens_value(harmonic_kernel, t, 0.3, 0.5)
        assert abs(v - harmonic_reduced(t, 0.3, 0.5)) < 1e-10
        assert harmonic_kernel.a(t) < 0.0
        harmonic_kernel.check_time(t)
        with pytest.raises(HorizonExceeded):
            harmonic_kernel.check_time(np.pi / 2 + 0.01)
        with pytest.raises(HorizonExceeded):
            greens_value(harmonic_kernel, np.pi / 2 + 0.01, 0.3, 0.5)

    def test_inverted_oscillator_kernel(self):
        ki = make_kernel(Harmonic(lambda t: -1.0, "-1"), t_max=1.2)
        for t, x, z in ((0.4, 0.7, -0.3 + 0.2j), (0.9, -1.2, 0.8)):
            assert abs(greens_value(ki, t, x, z) - inverted_reduced(t, x, z)) < 1e-10

    def test_pde_residual(self, harmonic_kernel):
        assert pde_residual(harmonic_kernel, 0.3, 0.5, 0.4 + 0.2j) <= 1e-4

    def test_horizon_is_alpha_zero(self, harmonic_kernel):
        assert abs(harmonic_kernel.horizon - np.pi / 2) < 1e-8


class TestDrivenKernel:
    """V = x^2 + E x = (x + s)^2 - E^2/4, s = E/2: the unit oscillator
    about -s with the energy shifted by -E^2/4."""

    def test_shifted_oscillator_identity(self, driven_kernel, harmonic_kernel, rng):
        e = 0.7
        s = e / 2
        worst = 0.0
        for _ in range(100):
            t = rng.uniform(0.005, np.pi / 2 - 0.05)
            x = rng.uniform(-2, 2)
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1)
            mine = greens_value(driven_kernel, t, x, z)
            ref = np.exp(1j * e * e * t / 4) * greens_value(harmonic_kernel, t, x + s, z + s)
            worst = max(worst, abs(mine - ref) / abs(ref))
        assert worst <= 1e-12


class TestPoschlTellerKernel:
    def test_frozen_oracle_values(self, pt1_kernel, pt2_kernel):
        assert abs(greens_value(pt1_kernel, 0.5, 0.0, 1.0) - PT1_VALUE) < 1e-13
        assert abs(greens_value(pt2_kernel, 0.4, 0.3, 0.8) - PT2_VALUE) < 1e-13

    def test_pde_residual_exercises_full_stack(self, pt1_kernel):
        assert pde_residual(pt1_kernel, 0.4, 0.2, 0.8) <= 1e-4

    def test_reduces_to_free_at_large_separation(self, pt1_kernel, free_kernel):
        # Q decays like sech: the well correction dies off in |x|, |Re z|
        t = 0.5
        v_pt = greens_value(pt1_kernel, t, 8.0, 9.0)
        v_free = greens_value(free_kernel, t, 8.0, 9.0)
        assert abs(v_pt - v_free) < 1e-5

    def test_pole_margin_propagates(self, pt1_kernel):
        from supershift_lab.errors import DomainMarginError

        with pytest.raises(DomainMarginError):
            greens_value(pt1_kernel, 0.5, 0.0, 0.02 + 1j * np.pi / 2)

    def test_requires_positive_l(self):
        with pytest.raises(ValueError):
            PoschlTeller(0)

    def test_contour_past_pole_message(self, pt1_kernel):
        # (pi/2) cos(pi/8) - 4.25 sin(pi/8) = -0.175: the pole is inside
        from supershift_lab.errors import DomainMarginError

        with pytest.raises(DomainMarginError) as exc:
            pt1_kernel.contour_center(4.25, 4.25)
        assert "has the pole set 0.175 inside its swept sector" in str(exc.value)
        with pytest.raises(DomainMarginError, match="comes within 0.074 of the pole set"):
            pt1_kernel.contour_center(3.6, 3.6)


class TestPtKernelCost:
    """Work counts of the Pöschl–Teller kernel, no timing."""

    def test_comparator_erfcx_points_per_node(self, pt1_kernel, monkeypatch):
        # the eps-regularized comparator point of the cross-representation
        # test: almost every node drops its reflected erfcx term
        kappa, t, x = 2.0, 0.3, 0.4
        points, nodes = [], []
        erfcx = special_fn.erfcx
        monkeypatch.setattr(special_fn, "erfcx", lambda z: points.append(np.size(z)) or erfcx(z))

        def integrand(y):
            y = np.asarray(y, dtype=complex)
            nodes.append(y.size)
            return pt1_kernel.gtilde(t, x, y) * np.exp(1j * kappa * y)

        a0, _ = pt1_kernel.growth_imag(t, x)
        f = HolomorphicSignal(integrand, GrowthWitness(a0 * 2.0, 0.0, "imag"), "greens*planewave")
        epsilon_regularized_integral(f, pt1_kernel.a(t), x, 0.0, 1e-5, tol=1e-5)
        assert sum(nodes) > 60_000
        assert sum(points) / sum(nodes) <= 1.2

    def test_one_pass_per_gtilde_call(self, pt2_kernel, monkeypatch):
        calls = {"pt": 0, "legendre": 0}
        pt_term, legendre = greens.pt_weighted_term, greens.assoc_legendre_tanh

        def count(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(greens, "pt_weighted_term", count("pt", pt_term))
        monkeypatch.setattr(greens, "assoc_legendre_tanh", count("legendre", legendre))
        z = 0.4 + np.linspace(-14.0, 14.0, 66) * np.exp(1j * np.pi / 8)
        pt2_kernel.gtilde(0.3, 0.4, z)
        assert calls == {"pt": 1, "legendre": 0}


class TestPdeResidualAllPotentials:
    def test_free(self, free_kernel):
        assert pde_residual(free_kernel, 0.5, 0.3, 1.0) <= 1e-5

    def test_refinement_helps_fast_phase(self, free_kernel):
        # the kernel phase rotates fast here: the plain step-1e-4 stencil
        # reads 4.1e-5, its Richardson extrapolation 1.2e-7
        assert pde_residual(free_kernel, 0.2, 0.0, 2.0) <= 1e-6


class TestAudit:
    @pytest.mark.parametrize(
        "fixture",
        [
            "free_kernel", "electric_kernel", "harmonic_kernel", "driven_kernel",
            "pt1_kernel", "pt2_kernel",
        ],
    )
    def test_audit_passes(self, fixture, request):
        kernel = request.getfixturevalue(fixture)
        report = audit_kernel(kernel)
        assert report.passed, report.to_json()

    def test_small_time_limit_values(self, harmonic_kernel, free_kernel):
        # free: gtilde/sqrt(a) = 1/sqrt(i pi) exactly for every t
        inv = 1.0 / np.sqrt(1j * np.pi)
        g = free_kernel.gtilde(0.37, 0.1, np.array([0.5 + 0.2j]))[0]
        assert abs(g / np.sqrt(free_kernel.a(0.37)) - inv) < 1e-15
        # harmonic at t = 1e-4: within 1e-3 of the limit
        g = harmonic_kernel.gtilde(1e-4, 0.0, np.array([1.0 + 0.4j]))[0]
        assert abs(g / np.sqrt(harmonic_kernel.a(1e-4)) - inv) <= 1e-3

    @pytest.mark.parametrize("omega", [1.0, 2.0, 3.0])
    def test_oscillators_pass(self, omega):
        # the small-time deviation of gtilde/sqrt(a) is ~2.5e-4 omega^2 at
        # t = 1e-4: the limit is followed down to 1e-6, not read at 1e-4
        kernel = make_kernel(Harmonic(lambda t: omega * omega, f"omega={omega:g}"))
        report = audit_kernel(kernel)
        [check] = [c for c in report.checks if c.name == "small_time_limit"]
        assert report.passed, report.to_json()
        assert check.witness_point[0] == 1e-6 and check.max_violation <= 3e-5

    def test_small_time_limit_catches_scaled_kernel(self, harmonic_kernel):
        # gtilde 1.001 times too large is within 1e-3 of the limit at every
        # sampled time, but its deviation does not fall with t
        from dataclasses import replace

        scaled = replace(
            harmonic_kernel, gtilde=lambda t, x, z: 1.001 * harmonic_kernel.gtilde(t, x, z)
        )
        [check] = [c for c in audit_kernel(scaled).checks if c.name == "small_time_limit"]
        assert 1e-4 < check.max_violation <= 1e-3
        assert not check.passed

    def test_pt_growth_bound_on_sector(self, pt2_kernel, rng):
        t, x = 0.3, 0.6
        g = pt2_kernel.growth(t, x)
        a0, b0 = g.amplitude, g.rate
        ang = pt2_kernel.sector_angle
        r = rng.uniform(0, 6, 40)
        th = rng.uniform(-ang, ang, 40)
        z = np.concatenate([r * np.exp(1j * th), -r * np.exp(1j * th)])
        vals = np.abs(pt2_kernel.gtilde(t, x, z))
        assert np.all(vals <= a0 * np.exp(b0 * np.abs(z)) * (1 + 1e-6))

    @pytest.mark.parametrize("fixture", ["pt1_kernel", "pt2_kernel"])
    def test_pt_witnesses_on_rays_to_60(self, fixture, request):
        # the derived rate-0 modulus witness and the imag witness, on rays
        # out to |z| = 60 through admissible contour centers (|s| <= 3.5
        # comes within 0.112 of the pole set at the pi/8 angle)
        kernel = request.getfixturevalue(fixture)
        ang = kernel.sector_angle
        r = np.concatenate([-np.geomspace(60.0, 0.01, 40), [0.0], np.geomspace(0.01, 60.0, 40)])
        z = np.concatenate([
            s + r * np.exp(1j * phi)
            for s in (-3.5, -1.2, 0.0, 2.0, 3.5)
            for phi in (-ang, -0.5 * ang, 0.0, 0.5 * ang, ang)
        ])
        worst = worst_imag = 0.0
        for t in np.linspace(0.05, 1.05, 5):
            for x in np.linspace(-3.5, 3.5, 8):
                vals = np.abs(kernel.gtilde(t, x, z))
                g = kernel.growth(t, x)
                assert g.rate == 0.0 and g.freq == 0.0
                worst = max(worst, vals.max() / g.amplitude)
                a_im, b_im = kernel.growth_imag(t, x)
                worst_imag = max(worst_imag, np.max(vals / (a_im * np.exp(b_im * np.abs(z.imag)))))
        assert worst <= 1.0 and worst_imag <= 1.0

    def test_report_serializes(self, free_kernel):
        report = audit_kernel(free_kernel)
        doc = json.loads(report.to_json())
        assert doc["pass"] is True
        assert {c["name"] for c in doc["checks"]} >= {
            "pde_residual",
            "growth_witness",
            "small_time_limit",
        }

    def test_audit_catches_broken_witness(self, free_kernel):
        from dataclasses import replace

        broken = replace(free_kernel, growth=lambda t, x: GrowthWitness(1e-9, 0.0))
        report = audit_kernel(broken)
        names = {c.name: c.passed for c in report.checks}
        assert not names["growth_witness"]
