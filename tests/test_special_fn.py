"""Error-function layer and sech-well factors against high-precision oracles.

Frozen reference values were produced with mpmath at 60 significant
digits (see oracle helpers below); the library path never touches mpmath.
"""

import mpmath as mp
import numpy as np
import pytest

from supershift_lab.errors import DomainMarginError, EvaluationOverflow
from supershift_lab.special_fn import (
    assoc_legendre_tanh,
    erf_complex,
    erfcx,
    legendre_sum_residual,
    pole_set_distance,
    pt_kernel_term,
    pt_kernel_term_derivatives,
)

# mpmath 60-digit values, rounded to double
ERF_1 = 0.8427007929497149
ERF_I = 1.6504257587975429j
ERFCX_1 = 0.427583576155807
ERFCX_M1 = 5.008980080762283  # reflection 2e - erfcx(1); spec's printed digits were off
R_01_1 = 0.5545063366831208 + 0.6286817897535222j
R_05_1 = 0.8427007929497149 + 1.6504257587975429j


def _oracle_r(t, z, dps=None):
    """mpmath transcription of the defining two-term expression.

    Working precision scales with |z|^2/(4t) because the two terms cancel
    to that exponential order off the right half-plane.
    """
    dps = dps or max(50, int(0.46 * abs(complex(z)) ** 2 / (4 * t)) + 50)
    with mp.workdps(dps):
        zz = mp.mpc(z)
        s = mp.sqrt(t) * mp.expjpi(mp.mpf(1) / 4)
        lam = lambda w: mp.exp(w * w) * mp.erfc(w)
        val = mp.exp(zz) * lam(zz / (2 * s) - s) - mp.exp(-zz) * lam(zz / (2 * s) + s)
        return complex(val)


class TestErf:
    def test_zero(self):
        assert erf_complex(0.0) == 0.0

    def test_frozen_values(self):
        assert abs(erf_complex(1.0) - ERF_1) < 1e-14
        assert abs(erf_complex(1j) - ERF_I) < 1e-14

    def test_odd_and_conjugate_symmetry(self, rng):
        z = rng.uniform(-3, 3, 60) + 1j * rng.uniform(-3, 3, 60)
        v = erf_complex(z)
        assert np.max(np.abs(erf_complex(-z) + v)) < 1e-13
        assert np.max(np.abs(erf_complex(np.conj(z)) - np.conj(v))) < 1e-13

    def test_against_oracle_samples(self, rng):
        pts = rng.uniform(-4, 4, 25) + 1j * rng.uniform(-4, 4, 25)
        for z in pts:
            with mp.workdps(50):
                ref = complex(mp.erf(mp.mpc(z)))
            got = erf_complex(complex(z))
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_small_argument_series_region(self):
        with mp.workdps(50):
            ref = complex(mp.erf(mp.mpc(1e-8, 2e-9)))
        got = erf_complex(1e-8 + 2e-9j)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_overflow_signaled(self):
        with pytest.raises(EvaluationOverflow):
            erf_complex(30j)


class TestErfcx:
    def test_at_zero_exact(self):
        assert erfcx(0.0) == 1.0

    def test_frozen_values(self):
        assert abs(erfcx(1.0) - ERFCX_1) < 1e-14
        assert abs(erfcx(-1.0) - ERFCX_M1) < 2e-14

    def test_reflection_formula(self, rng):
        # both sides representable: keep Re(z^2) moderate
        z = rng.uniform(0.1, 8, 40) + 1j * rng.uniform(-8, 8, 40)
        z = z[np.abs((z * z).real) < 600]
        lhs = erfcx(-z)
        rhs = 2.0 * np.exp(z * z) - erfcx(z)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10

    def test_monotone_decay_on_real_axis(self):
        assert erfcx(10.0).real < erfcx(5.0).real < erfcx(1.0).real
        assert erfcx(30.0).real < 0.02

    def test_right_half_plane_accuracy(self, rng):
        pts = rng.uniform(0, 10, 25) + 1j * rng.uniform(-10, 10, 25)
        for z in pts:
            with mp.workdps(50):
                ref = complex(mp.exp(mp.mpc(z) ** 2) * mp.erfc(mp.mpc(z)))
            got = erfcx(complex(z))
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_overflow_signaled_left(self):
        with pytest.raises(EvaluationOverflow):
            erfcx(-30.0)

    def test_left_half_plane_accuracy(self, rng):
        z = rng.uniform(-12, 0, 200) + 1j * rng.uniform(-12, 12, 200)
        z = z[(z * z).real < 600][:40]
        assert len(z) == 40
        for zz in z:
            with mp.workdps(60):
                ref = complex(mp.exp(mp.mpc(zz) ** 2) * mp.erfc(mp.mpc(zz)))
            assert abs(erfcx(complex(zz)) - ref) <= 1e-12 * abs(ref)

    def test_overflow_band(self):
        # 2 e^{z^2} reaches the double limit between Re(z^2) = 708.6 and 712.9
        with mp.workdps(60):
            ref = complex(mp.exp(mp.mpf(-26.62) ** 2) * mp.erfc(mp.mpf(-26.62)))
        got = erfcx(-26.62)
        assert np.isfinite(got) and abs(got - ref) <= 1e-12 * abs(ref)
        with pytest.raises(EvaluationOverflow):
            erfcx(-26.7)

    @pytest.mark.parametrize("fn", [erfcx, erf_complex])
    def test_scalar_and_array_shapes(self, fn):
        for z in (0.5, 0.5 - 1j, np.float64(0.5), np.array(0.5 + 1j)):
            assert type(fn(z)) is complex
        for shape in ((3,), (2, 3)):
            z = np.linspace(-1, 1, int(np.prod(shape))).reshape(shape) + 0.5j
            out = fn(z)
            assert isinstance(out, np.ndarray) and out.shape == shape
            assert out.flat[-1] == fn(complex(z.flat[-1]))


class TestPtKernelTerm:
    def test_frozen_values(self):
        assert abs(pt_kernel_term(0.1, 1.0) - R_01_1) < 1e-13
        assert abs(pt_kernel_term(0.5, 1.0) - R_05_1) < 1e-13

    def test_even_symmetry(self, rng):
        for _ in range(20):
            t = rng.uniform(0.05, 1.5)
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1)
            assert abs(pt_kernel_term(t, z) - pt_kernel_term(t, -z)) <= 1e-12

    def test_symmetry_against_oracle_both_signs(self):
        # the implementation canonicalizes Re z >= 0, so also check the
        # defining expression itself is even via the high-precision oracle
        t, z = 0.3, 1.2 + 0.4j
        ref_plus = _oracle_r(t, z)
        ref_minus = _oracle_r(t, -z)
        assert abs(ref_plus - ref_minus) < 1e-13
        assert abs(pt_kernel_term(t, z) - ref_plus) < 1e-12
        assert abs(pt_kernel_term(t, -z) - ref_minus) < 1e-12

    def test_left_half_plane_matches_oracle(self):
        # direct double evaluation would need ~e^{445} cancellation here
        t = 1e-4
        z = -1.2952846702217886 - 0.06850617084098401j
        ref = _oracle_r(t, z)
        assert abs(pt_kernel_term(t, z) - ref) <= 1e-11 * abs(ref)

    def test_small_t_asymptotics(self):
        # ratio to 4 sinh(z) sqrt(it) / (z sqrt(pi)) tends to 1 at rate sqrt(t)
        errs = []
        for t in (1e-3, 1e-4, 1e-5):
            s = np.sqrt(t) * np.exp(1j * np.pi / 4)
            ratio = pt_kernel_term(t, 1.0) * np.sqrt(np.pi) / (4.0 * np.sinh(1.0) * s)
            errs.append(abs(ratio - 1.0))
        assert errs[0] > errs[1] > errs[2]
        for t, e in zip((1e-3, 1e-4, 1e-5), errs):
            assert e <= 1.0 * np.sqrt(t)

    def test_derivative_identities_vs_central_differences(self):
        cases = [(0.5, 1.0 + 0.3j), (0.25, 2.0 + 0j), (0.8, -0.7 + 0.2j)]
        h = 1e-5
        for t, z in cases:
            dz, dt = pt_kernel_term_derivatives(t, z)
            dz_fd = (pt_kernel_term(t, z + h) - pt_kernel_term(t, z - h)) / (2 * h)
            dt_fd = (pt_kernel_term(t + h, z) - pt_kernel_term(t - h, z)) / (2 * h)
            assert abs(dz - dz_fd) <= 1e-6 * max(1.0, abs(dz))
            assert abs(dt - dt_fd) <= 1e-6 * max(1.0, abs(dt))

    def test_z_derivative_vanishes_at_origin(self):
        dz, _ = pt_kernel_term_derivatives(0.4, 0.0)
        assert abs(dz) < 1e-14

    def test_growth_bound(self, rng):
        # |R(t, z)| <= 2 erfcx(-sqrt(t)/sqrt(2)) e^{|Re z|}
        for _ in range(30):
            t = rng.uniform(0.05, 2.0)
            z = rng.uniform(-3, 3) + 1j * rng.uniform(-1.2, 1.2)
            bound = 2.0 * erfcx(-np.sqrt(t) / np.sqrt(2.0)).real * np.exp(abs(z.real))
            assert abs(pt_kernel_term(t, z)) <= bound * (1 + 1e-12)

    def test_overflow_propagates(self):
        with pytest.raises(EvaluationOverflow):
            pt_kernel_term(0.5, 800.0)

    def test_weighted_product_matches_direct_and_stays_finite(self, rng):
        from supershift_lab.special_fn import pt_weighted_term

        for _ in range(15):
            l = int(rng.integers(1, 3))
            m = int(rng.integers(1, l + 1))
            t = rng.uniform(0.1, 1.0)
            x = rng.uniform(-2, 2)
            z = rng.uniform(-3, 3) + 1j * rng.uniform(-1, 1)
            direct = assoc_legendre_tanh(l, m, z) * pt_kernel_term(m * m * t, m * (z - x))
            scaled = pt_weighted_term(l, m, t, x, z)
            assert abs(scaled - direct) <= 1e-12 * max(1.0, abs(direct))
        # far out the product must stay finite although R alone overflows
        v = pt_weighted_term(1, 1, 0.3, 0.4, 1900.0)
        assert np.isfinite(v) and abs(v) < 1.0


class TestLegendreFactors:
    def test_condon_shortley_values(self):
        assert abs(assoc_legendre_tanh(1, 1, 0.0) + 1.0) < 1e-15
        assert abs(assoc_legendre_tanh(2, 2, 0.0) - 3.0) < 1e-15
        x = 0.8
        assert abs(assoc_legendre_tanh(1, 1, x) + 1.0 / np.cosh(x)) < 1e-14

    def test_ode_residual_by_finite_differences(self):
        h = 1e-4
        for l, m in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3)):
            for x in (-2.0, 0.0, 2.0):
                q = lambda w: assoc_legendre_tanh(l, m, w)
                qpp = (q(x + h) - 2 * q(x) + q(x - h)) / (h * h)
                res = abs(qpp + (l * (l + 1) / np.cosh(x) ** 2 - m * m) * q(x))
                assert res <= 1e-6

    def test_pole_margin_enforced(self):
        with pytest.raises(DomainMarginError):
            assoc_legendre_tanh(1, 1, 0.05 + 1j * np.pi / 2)
        # just outside the margin is fine
        assoc_legendre_tanh(1, 1, 0.2 + 1j * (np.pi / 2 - 0.25))

    def test_pole_distance(self):
        assert pole_set_distance(1j * np.pi / 2) == 0.0
        assert abs(pole_set_distance(0.0) - np.pi / 2) < 1e-14
        assert abs(pole_set_distance(3.0 + 1j * np.pi) - np.hypot(3.0, np.pi / 2)) < 1e-14

    def test_finite_away_from_poles(self, rng):
        z = rng.uniform(-4, 4, 50) + 1j * rng.uniform(-1.2, 1.2, 50)
        vals = assoc_legendre_tanh(3, 2, z)
        assert np.all(np.isfinite(vals))


class TestLegendreSumIdentity:
    def test_l1_closed_form(self):
        # (1/2) sech z sech x sinh(z-x) = (1/2)(tanh z - tanh x)
        for x, z in ((0.7, 0.3 + 0.5j), (-1.2, 0.4), (0.0, 2.0 - 0.3j)):
            assert legendre_sum_residual(1, x, z) < 1e-13

    def test_coincident_arguments(self):
        assert legendre_sum_residual(3, 0.8, 0.8) < 1e-14

    def test_higher_orders_random_strip(self, rng):
        for l in (2, 3, 4):
            for _ in range(10):
                x = rng.uniform(-2, 2)
                z = rng.uniform(-2, 2) + 1j * rng.uniform(-0.99, 0.99)
                assert legendre_sum_residual(l, x, z) <= 1e-10
