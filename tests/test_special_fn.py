"""Error-function layer and sech-well factors against high-precision oracles.

Frozen reference values were produced with mpmath at 60 significant
digits (see oracle helpers below); the library path never touches mpmath.
"""

from fractions import Fraction
from math import factorial

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import legendre as L
from numpy.polynomial import polynomial as P

from supershift_lab import special_fn
from supershift_lab.crosschecks import erf_complex
from supershift_lab.errors import DomainMarginError, EvaluationOverflow
from supershift_lab.oracles import (
    legendre_sum_residual,
    pt_kernel_term,
    pt_kernel_term_derivatives,
)
from supershift_lab.special_fn import (
    assoc_legendre_tanh,
    erfcx,
    pole_set_distance,
    pt_weighted_term,
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

    With s = sqrt(it), each term grows like e^{Re((z/(2s))^2)} =
    e^{Im(z^2)/(4t)}, times e^{-+Re z} from the shifted arguments, which the
    e^{+-z} factors undo; off the right half-plane the two terms cancel to
    that order.  The working precision covers those nats plus |Re z|, with
    50 guard digits.
    """
    z = complex(z)
    nats = abs((z * z).imag) / (4 * t) + abs(z.real)
    dps = dps or max(50, int(nats / np.log(10)) + 50)
    with mp.workdps(dps):
        zz = mp.mpc(z)
        s = mp.sqrt(t) * mp.expjpi(mp.mpf(1) / 4)
        lam = lambda w: mp.exp(w * w) * mp.erfc(w)
        val = mp.exp(zz) * lam(zz / (2 * s) - s) - mp.exp(-zz) * lam(zz / (2 * s) + s)
        return complex(val)


def _pt_coef(l, m):
    return m * factorial(l - m) / (2.0 * factorial(l + m))


def _pt_terms_direct(l, t, x, z):
    """The orders c_m Q_l^m(x) Q_l^m(z) R(m^2 t, m(z - x)), from the per-order factors."""
    return [
        _pt_coef(l, m)
        * assoc_legendre_tanh(l, m, x)
        * assoc_legendre_tanh(l, m, z)
        * pt_kernel_term(m * m * t, m * (z - x))
        for m in range(1, l + 1)
    ]


def _pt_sum_direct(l, t, x, z):
    """sum_m c_m Q_l^m(x) Q_l^m(z) R(m^2 t, m(z - x)) from the per-order factors."""
    return sum(_pt_terms_direct(l, t, x, z))


def _pt_sum_oracle(l, t, x, z, dps=30):
    """The same sum at mpmath precision, where e^{m |z|} needs no double range."""
    with mp.workdps(dps):
        x, z = mp.mpf(x), mp.mpc(z)
        s = mp.sqrt(t) * mp.expjpi(mp.mpf(1) / 4)
        lam = lambda w: mp.exp(w * w) * mp.erfc(w)

        def q(m, w):
            deriv = P.polyder(L.leg2poly([0] * l + [1]), m)
            return (-1) ** m * mp.sech(w) ** m * mp.polyval(deriv[::-1].tolist(), mp.tanh(w))

        acc = 0
        for m in range(1, l + 1):
            w = m * (z - x)
            r = mp.exp(w) * lam(w / (2 * m * s) - m * s) - mp.exp(-w) * lam(w / (2 * m * s) + m * s)
            acc += _pt_coef(l, m) * q(m, x) * q(m, z) * r
        return complex(acc)


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

    @pytest.mark.parametrize("y", [0.3, 1.0, 3.0, 20.0])
    def test_imaginary_axis(self, y):
        # erf(iy) is purely imaginary
        with mp.workdps(40):
            ref = float(mp.erf(mp.mpc(0, y)).imag)
        for z in (1j * y, -1j * y):
            got = erf_complex(z)
            assert got.real == 0.0
            assert abs(got.imag - np.sign(z.imag) * ref) <= 1e-15 * ref

    @pytest.mark.parametrize("y", [26.65, 26.7])
    def test_finite_beyond_exp_limit(self, y):
        # Re(-z^2) > 709, but |erf z| ~ e^{y^2} / (y sqrt(pi)) is still a double
        with mp.workdps(40):
            ref = float(mp.erf(mp.mpc(0, y)).imag)
        for z in (1j * y, -1j * y):
            got = erf_complex(z)
            assert got.real == 0.0
            assert abs(got.imag - np.sign(z.imag) * ref) <= 1e-13 * ref

    def test_overflow_signaled(self):
        for z in (30j, -27.5j, 0.5 + 27.5j):
            with pytest.raises(EvaluationOverflow):
                erf_complex(z)


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

    @staticmethod
    def _sweep():
        # log-spaced moduli and angles across the closed right half-plane
        mag = np.geomspace(1e-3, 1e6, 37)
        ang = np.linspace(-np.pi / 2, np.pi / 2, 19)
        return (mag[:, None] * np.exp(1j * ang)).ravel()

    @staticmethod
    def _oracle(z):
        with mp.workdps(40):
            w = mp.mpc(z)
            return complex(mp.exp(w * w) * mp.erfc(w))

    def test_accuracy_sweep_right_half_plane(self):
        z = self._sweep()
        ref = np.array([self._oracle(zz) for zz in z])
        assert np.max(np.abs(erfcx(z) - ref) / np.abs(ref)) <= 1e-14

    def test_accuracy_sweep_left_half_plane(self):
        # where the reflection term 2 e^{z^2} dominates, erfcx has condition
        # number ~2|z|^2, so a double z carries |z|^2 eps of error in the
        # phase of e^{z^2} alone: the sweep keeps the points where that is
        # below the tolerance (|z|^2 < 700) or where the term is negligible
        z = -self._sweep()
        z2 = z * z
        z = z[(z2.real < 700) & ((np.abs(z2) < 700) | (z2.real < -40))]
        assert z.size > 400
        ref = np.array([self._oracle(zz) for zz in z])
        assert np.max(np.abs(erfcx(z) - ref) / np.abs(ref)) <= 1e-13

    def test_real_scalar_path_accuracy(self):
        # a real scalar below 26 takes e^{x^2} erfc(x) from the math module
        x = np.concatenate([np.linspace(-26.6, 25.99, 401), np.geomspace(1e-8, 25.9, 60)])
        ref = np.array([self._oracle(v).real for v in x])
        got = np.array([erfcx(float(v)) for v in x])
        assert np.all(got.imag == 0.0)
        assert np.max(np.abs(got.real - ref) / ref) <= 1e-15

    def test_blocks_match_scalar_calls(self, rng):
        # an element must not depend on the length of the array it came in,
        # nor on where a block or the kernel's matrix product splits it
        n = special_fn._BLOCK + 37
        z = rng.uniform(-6, 6, n) + 1j * rng.uniform(-6, 6, n)
        out = erfcx(z)
        assert np.array_equal(out, [erfcx(complex(zz)) for zz in z])
        for size in (special_fn._BLOCK - 1, special_fn._BLOCK, special_fn._BLOCK + 1):
            assert np.array_equal(erfcx(z[:size]), out[:size])
            assert np.array_equal(erfcx(z[n - size :]), out[n - size :])
        block = special_fn._BLOCK
        for split in (1, 7, 8, 9, 1023, block - 1, block, block + 1, 4096):
            parts = np.concatenate([erfcx(z[:split]), erfcx(z[split:])])
            assert np.array_equal(parts, out)

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
    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_nonpositive_time_refused(self, t):
        with pytest.raises(ValueError, match="t > 0"):
            pt_weighted_term(1, t, 0.0, 0.5)

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
        # the one-pass sum over all orders against the per-order factors
        ray = np.exp(1j * np.pi / 8)
        for l in (1, 2, 3, 4) * 6:
            t = rng.uniform(0.1, 1.0)
            x = rng.uniform(-2, 2)
            r = rng.uniform(-40, 40, 6)
            # direct factors stay in double range while m |Re z| < ~700
            z = np.concatenate([
                rng.uniform(-3, 3, 6) + 1j * rng.uniform(-1, 1, 6),
                x + r * ray,
                x + r * np.conj(ray),
                rng.uniform(-600 / l, 600 / l, 6) + 0j,
            ])
            direct = np.array([_pt_sum_direct(l, t, x, zz) for zz in z])
            scaled = pt_weighted_term(l, t, x, z)
            assert np.all(np.abs(scaled - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))
            far = np.array([1900.0, -1900.0, x + 1900.0 * ray, x - 1900.0 * np.conj(ray)])
            oracle = np.array([_pt_sum_oracle(l, t, x, zz) for zz in far])
            scaled = pt_weighted_term(l, t, x, far)
            assert np.all(np.abs(scaled - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))
        # far out the sum must stay finite although R alone overflows
        v = pt_weighted_term(1, 0.3, 0.4, 1900.0)
        assert np.isfinite(v) and abs(v) < 1.0

    def test_far_residual_exponent_against_oracle(self):
        # e1 = w - m zeta z is a difference of two numbers of size m |z|;
        # at |z| = 1900 forming it by subtraction costs ~eps m |z| relative
        ray = np.exp(1j * np.pi / 8)
        for t, x in ((1.0, -1.7), (1.5, 1.9)):
            far = np.array([1900.0, -1900.0, x + 1900.0 * ray, x - 1900.0 * np.conj(ray)])
            for l in (1, 2, 3, 4):
                oracle = np.array([_pt_sum_oracle(l, t, x, zz) for zz in far])
                got = pt_weighted_term(l, t, x, far)
                assert np.all(np.abs(got - oracle) <= 1e-14 * np.maximum(1.0, np.abs(oracle)))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_benchmark_contour_family(self, l, rng):
        # the sech^2 grids' contours: t in [0.1, 1], |x| <= 2, lines through
        # x at +-pi/8 out to |u| = 25.  For l >= 3 the orders cancel, and the
        # direct sum carries the rounding of its largest order, so both are
        # held to the sum of the order magnitudes
        ray = np.exp(1j * np.pi / 8)
        for _ in range(6):
            t, x = rng.uniform(0.1, 1.0), rng.uniform(-2.0, 2.0)
            u = rng.uniform(-25.0, 25.0, 30)
            z = np.concatenate([x + u[:15] * ray, x + u[15:] * np.conj(ray)])
            terms = np.array([_pt_terms_direct(l, t, x, zz) for zz in z])
            got = pt_weighted_term(l, t, x, z)
            assert np.all(np.abs(got - terms.sum(axis=1)) <= 1e-13 * np.abs(terms).sum(axis=1))
        # far out, where the per-order factors leave the double range; the
        # oracle needs no cancellation on these rays
        r = rng.uniform(100.0, 1900.0, 2)
        far = np.concatenate([x + r * ray, x - r * np.conj(ray), [r[0], -r[1]]])
        oracle = np.array([_pt_sum_oracle(l, t, x, zz) for zz in far])
        got = pt_weighted_term(l, t, x, far)
        assert np.all(np.abs(got - oracle) <= 1e-13 * np.abs(oracle))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_node_value_independent_of_its_array(self, l, rng):
        # the CLI's byte-determinism rests on a node's value not depending on
        # the length of the array it comes in, nor on its place there
        t, x = rng.uniform(0.1, 1.0), rng.uniform(-2.0, 2.0)
        n = 4096 + 7
        u = rng.uniform(-25.0, 25.0, n)
        ray = np.exp(1j * np.pi / 8 * np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0))
        z = x + rng.uniform(-1.0, 1.0) + u * ray
        full = pt_weighted_term(l, t, x, z)
        for size in (1, 22, 1012, 4096):
            for off in (0, 1, 7):
                assert np.array_equal(pt_weighted_term(l, t, x, z[off : off + size]), full[off : off + size])
        assert pt_weighted_term(l, t, x, complex(z[3])) == full[3]

    def test_far_x_raises_only_where_an_exponent_overflows(self):
        # Re e1 <= m |x|, so only l |x| > 709 can overflow, and then only at
        # nodes with Re z across 0 from x or between them
        ray = np.exp(1j * np.pi / 8)
        beyond = np.linspace(-5.0, 5.0, 7) * ray
        assert np.all(np.isfinite(pt_weighted_term(3, 0.5, 300.0, 310.0 + beyond)))
        assert np.isfinite(pt_weighted_term(3, 0.5, 300.0, 150.0 + 0.2j))  # e1 = 0
        with pytest.raises(EvaluationOverflow):
            pt_weighted_term(3, 0.5, 300.0, -5.0 + 0.2j)  # e1 = 900
        # past |x| = 709 e^{|x|} alone overflows; Q_1^1(x) and the sum are 0
        with np.errstate(over="ignore"):
            assert np.all(pt_weighted_term(1, 0.5, 750.0, 760.0 + beyond) == 0.0)
            with pytest.raises(EvaluationOverflow):
                pt_weighted_term(1, 0.5, 750.0, 10.0 + 0.5j)

    def test_scalar_and_array_shapes(self):
        z = np.array([[0.5 + 0.2j, -3.0], [40.0, 2.0 - 0.7j]])
        out = pt_weighted_term(2, 0.3, 0.4, z)
        assert out.shape == (2, 2)
        assert type(pt_weighted_term(2, 0.3, 0.4, z[1, 1])) is complex
        assert pt_weighted_term(2, 0.3, 0.4, z[1, 1]) == out[1, 1]

    def test_pole_margin_checked_where_it_can_fail(self):
        far = np.linspace(-30.0, 30.0, 61) + 0.5j
        with pytest.raises(DomainMarginError):
            pt_weighted_term(2, 0.3, 0.4, np.append(far, 0.05 + 1j * np.pi / 2))
        with pytest.raises(DomainMarginError):
            pt_weighted_term(2, 0.3, 0.4, -0.08 + 1j * (np.pi / 2 + 0.02))
        # |Re z| > margin: the pole distance already exceeds the margin
        pt_weighted_term(2, 0.3, 0.4, np.array([0.11 + 1j * np.pi / 2, 0.05 + 0.3j]))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_dropped_reflected_term_is_below_rounding(self, l, rng, monkeypatch):
        # the same pass with every reflected term evaluated, against the
        # default pass that drops it where it is below e^{-42} of the kept one
        t = rng.uniform(0.05, 1.5)
        x = rng.uniform(-2, 2)
        r = rng.uniform(-100, 100, 400)
        ray = np.exp(1j * np.pi / 8)
        z = np.concatenate([r + 0j, x + r * ray, x + r * np.conj(ray)])
        points = []
        erfcx = special_fn.erfcx
        monkeypatch.setattr(special_fn, "erfcx", lambda w: points.append(np.size(w)) or erfcx(w))
        fast = pt_weighted_term(l, t, x, z)
        n_fast = sum(points)
        points.clear()
        monkeypatch.setattr(special_fn, "_DROP_NATS", np.inf)
        full = pt_weighted_term(l, t, x, z)
        assert n_fast < sum(points) == 2 * l * z.size
        s = np.sqrt(t) * np.exp(1j * np.pi / 4)
        kept = 0.0
        for m in range(1, l + 1):
            w = m * (z - x)
            w = np.where(w.real >= 0.0, w, -w)
            kept = kept + np.abs(
                _pt_coef(l, m)
                * assoc_legendre_tanh(l, m, x)
                * assoc_legendre_tanh(l, m, z)
                * np.exp(w)
                * erfcx(w / (2 * m * s) - m * s)
            )
        assert np.all(np.abs(fast - full) <= 4 * np.finfo(float).eps * kept)


def _legendre_coeffs_exact(l):
    """Ascending coefficients of the Legendre polynomial P_l by Bonnet's
    recursion l P_l = (2l - 1) x P_{l-1} - (l - 1) P_{l-2}, in fractions."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if l == 0:
        return prev
    for n in range(2, l + 1):
        nxt = [Fraction(0)] + [Fraction(2 * n - 1, n) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(n - 1, n) * c
        prev, cur = cur, nxt
    return cur


class TestLegendreFactors:
    def test_derivative_coefficients_match_exact_recursion(self):
        # the closed form's coefficients are the exact rationals rounded once
        for l in range(40):
            deriv = _legendre_coeffs_exact(l)
            for m in range(l + 1):
                want = [float(c) for c in deriv]
                deriv = [k * c for k, c in enumerate(deriv)][1:]
                got = special_fn._legendre_deriv_coeffs(l, m)
                assert list(got) == want and all(type(c) is float for c in got), (l, m)
                assert np.signbit(got).tolist() == np.signbit(want).tolist(), (l, m)

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

    @pytest.mark.parametrize("l, m", [(2, 0), (2, 3), (1, -1)])
    def test_order_outside_one_to_l_refused(self, l, m):
        with pytest.raises(ValueError, match="1 <= m <= l"):
            assoc_legendre_tanh(l, m, 0.3)

    def test_pole_margin_enforced(self):
        with pytest.raises(DomainMarginError):
            assoc_legendre_tanh(1, 1, 0.05 + 1j * np.pi / 2)
        # just outside the margin is fine
        assoc_legendre_tanh(1, 1, 0.2 + 1j * (np.pi / 2 - 0.25))

    def test_pole_distance(self):
        assert pole_set_distance(1j * np.pi / 2) == 0.0
        assert abs(pole_set_distance(0.0) - np.pi / 2) < 1e-14
        assert abs(pole_set_distance(3.0 + 1j * np.pi) - np.hypot(3.0, np.pi / 2)) < 1e-14

    def test_pole_distance_matches_brute_force(self, rng):
        k = np.arange(-50, 51)
        poles = 1j * np.pi * (k + 0.5)
        z = np.concatenate([
            rng.uniform(-5, 5, 2000) + 1j * rng.uniform(-100, 100, 2000),
            rng.uniform(-1, 1, 500) + 1j * rng.uniform(-3, 3, 500),
            poles,
            poles + rng.uniform(-1e-3, 1e-3, poles.size),
        ])
        brute = np.abs(z[:, None] - poles[None, :]).min(axis=1)
        got = pole_set_distance(z)
        assert np.all(np.abs(got - brute) <= 1e-15 * np.maximum(1.0, np.abs(z)))
        assert type(pole_set_distance(0.3 + 2.0j)) is float
        # a Python complex takes the math module path: the same distances
        one = np.array([pole_set_distance(complex(v)) for v in z])
        assert np.all(np.abs(one - got) <= 4e-16 * np.maximum(1.0, got))

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
