"""Superoscillating family, witnesses, and the weighted-sup metric.

Extended-precision oracle values (mpmath, 60 digits):
  F_60(1; 3)  = -1.0578195745378955 + 0.1531844351179694j
  sup_{[-1,1]} |F_n(x;3) - e^{i3x}|  =  0.4765, 0.2199, 0.1050  (n=10,20,40)
"""

import mpmath as mp
import numpy as np
import pytest

from supershift_lab.errors import PrecisionExhausted
from supershift_lab.initial_data import (
    HolomorphicSignal,
    combine_signals,
    constant_signal,
    default_weight,
    disk_samples,
    plane_wave,
    signal_stack,
    superosc_signal,
    weighted_sup_distance,
)
from supershift_lab.oracles import (
    superosc_coefficients,
    superosc_frequencies,
    superosc_value,
    superosc_value_float64,
)

F60_AT_1 = -1.0578195745378955 + 0.1531844351179694j


class TestCoefficients:
    def test_small_order_exact(self):
        assert [float(c) for c in superosc_coefficients(1, 3)] == [2.0, -1.0]
        assert [float(c) for c in superosc_coefficients(2, 3)] == [4.0, -4.0, 1.0]

    def test_binomial_sum_is_one(self):
        # the alternating sum must be carried at the coefficient precision
        for n, k in ((5, 3), (20, 3), (60, 6)):
            with mp.workdps(120):
                total = sum(superosc_coefficients(n, k))
                assert abs(total - 1) < mp.mpf("1e-30")

    def test_alternating_signs(self):
        for n, k in ((7, 2.0), (40, 3.0)):
            for l, c in enumerate(superosc_coefficients(n, k)):
                assert (c > 0) == (l % 2 == 0)

    def test_complex_target_supported(self):
        cs = superosc_coefficients(6, 2 + 1j)
        total = complex(sum(cs))
        assert abs(total - 1.0) < 1e-25

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            superosc_coefficients(0, 3)


class TestFrequencies:
    def test_unit_bound_and_endpoints(self):
        for n in (1, 7, 40):
            freqs = superosc_frequencies(n)
            assert freqs[0] == 1.0 and freqs[-1] == -1.0
            assert np.all(np.abs(freqs) <= 1.0)


class TestEvaluation:
    def test_value_at_origin_is_one(self):
        for n, k in ((3, 2.0), (25, 3.0), (60, 5.0)):
            assert abs(superosc_value(n, k, 0.0) - 1.0) < 1e-13

    def test_two_term_case(self):
        # F_1(x; 3) = 2 e^{ix} - e^{-ix}; at pi/2 this is 3i
        assert abs(superosc_value(1, 3, np.pi / 2) - 3j) < 1e-14

    def test_frozen_extended_value(self):
        assert abs(superosc_value(60, 3, 1.0) - F60_AT_1) < 1e-12

    def test_complex_target_value_at_origin(self):
        assert abs(superosc_value(10, 2 + 1j, 0.0) - 1.0) < 1e-13

    def test_double_precision_collapses(self):
        exact = superosc_value(60, 3, 1.0)
        naive = superosc_value_float64(60, 3, 1.0)
        assert abs(naive - exact) / abs(exact) > 1e-2

    def test_extended_path_meets_tolerance_vs_oracle(self):
        with mp.workdps(80):
            z = mp.mpf(1) / 3 + mp.mpc(0, 1) / 7
            ref = complex(
                sum(
                    mp.binomial(35, l)
                    * (mp.mpf(2)) ** (35 - l)
                    * (mp.mpf(-1)) ** l
                    * mp.expj((1 - mp.mpf(2 * l) / 35) * z)
                    for l in range(36)
                )
            )
        got = superosc_value(35, 3, complex(1 / 3, 1 / 7))
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_cancellation_certificate(self):
        cs = superosc_coefficients(40, 3)
        peak = max(abs(c) for c in cs)
        ratio = float(peak / abs(superosc_value(40, 3, 1.0)))
        assert ratio > 1e6

    def test_sup_error_shrinks_with_order(self):
        xs = np.linspace(-1, 1, 41)
        sups = []
        for n in (20, 40):
            sups.append(max(abs(superosc_value(n, 3, x) - np.exp(3j * x)) for x in xs))
        assert sups[1] < sups[0]

    def test_precision_budget_guard(self):
        with pytest.raises(PrecisionExhausted):
            superosc_value(80000, 6.0, 0.5)


class TestSignals:
    def test_plane_wave_witness(self):
        # |e^{i kappa z}| = e^{-Re kappa Im z - Im kappa Re z}: frequency
        # Re kappa, rate |Im kappa|
        pw = plane_wave(3.0)
        assert (pw.growth.amplitude, pw.growth.rate, pw.growth.freq) == (1.0, 0.0, 3.0)
        z = 0.3 + 0.2j
        assert abs(pw(z) - np.exp(3j * z)) < 1e-15
        pw = plane_wave(2.0 - 0.5j)
        assert (pw.growth.rate, pw.growth.freq) == (0.5, 2.0)
        zs = np.concatenate([disk_samples(3.0), 40.0 * disk_samples(1.0)])
        bound = np.exp(0.5 * np.abs(zs) - 2.0 * zs.imag)
        assert np.all(np.abs(pw(zs)) <= bound * (1 + 1e-12))

    @staticmethod
    def _product_form_reference(n, k, zs):
        """(cos w + i k sin w)^n, w = z/n, at 50 digits."""
        with mp.workdps(50):
            km = mp.mpc(k.real, k.imag)
            return np.array(
                [
                    complex((mp.cos(w) + 1j * km * mp.sin(w)) ** n)
                    for w in (mp.mpc(z.real, z.imag) / n for z in zs)
                ]
            )

    def test_superosc_signal_product_form(self):
        zs = np.concatenate(
            [disk_samples(3.0), np.exp(0.25j * np.pi) * np.linspace(-15.0, 15.0, 31)]
        )
        for n in (1, 20, 60, 640, 2560, 10240):
            for k in (2, 3, 2 + 1j, 1.5 - 0.3j):
                sg = superosc_signal(n, k)
                rate = max(1.0, abs(k))
                assert (sg.growth.amplitude, sg.growth.rate) == (1.0, rate)
                vals = sg(zs)
                assert np.all(np.abs(vals) <= np.exp(rate * np.abs(zs)) * (1 + 1e-12))
                # the base's rounding, raised to the n-th power
                ref = self._product_form_reference(n, complex(k), zs)
                rel = np.abs(vals - ref) / np.abs(ref)
                assert np.max(rel) <= 6e-16 * n + 3e-14
                # 0-d and 2-d inputs give the 1-d values
                assert sg(zs[7]) == vals[7]
                assert np.array_equal(sg(zs[:100].reshape(4, 25)), vals[:100].reshape(4, 25))
                # the coefficient sum: slow at n = 640, and too slow beyond
                # it or at k = 1.5 - 0.3i
                if n > 640 or k == 1.5 - 0.3j:
                    continue
                pick = zs[::60] if n == 640 else zs[::5]
                for z, v in zip(pick, sg(pick)):
                    ref = superosc_value(n, k, z)
                    assert abs(v - ref) <= 1e-12 * abs(ref)
        with pytest.raises(ValueError):
            superosc_signal(0, 3)

    def test_combined_signal(self):
        comb = combine_signals([(2.0, plane_wave(1.0)), (-0.5j, constant_signal())])
        z = 0.4 - 0.1j
        assert abs(comb(z) - (2.0 * np.exp(1j * z) - 0.5j)) < 1e-15
        assert comb.growth.amplitude == pytest.approx(2.5)
        # frequencies 1 and 0 at rate 0: centered at 1/2, rate 1/2
        assert (comb.growth.rate, comb.growth.freq) == (0.5, 0.5)

    def test_combined_witness_holds(self):
        terms = [(1.5, plane_wave(2.0)), (2j, plane_wave(-1.0)), (0.3, plane_wave(0.5 + 0.7j))]
        comb = combine_signals(terms)
        w = comb.growth
        # max(w_i + B_i) = 2, min(w_i - B_i) = -1
        assert (w.rate, w.freq) == (1.5, 0.5)
        zs = np.concatenate([disk_samples(3.0), 30.0 * disk_samples(1.0)])
        bound = w.amplitude * np.exp(w.rate * np.abs(zs) - w.freq * zs.imag)
        assert np.all(np.abs(comb(zs)) <= bound * (1 + 1e-12))
        # without frequencies the witness is the plain triangle inequality
        sup = combine_signals([(1.0, superosc_signal(4, 2.0)), (1.0, constant_signal())])
        assert (sup.growth.rate, sup.growth.freq) == (2.0, 0.0)

    def test_signal_stack_rows_and_witness(self):
        fs = [superosc_signal(n, 3.0) for n in (10, 20, 40)]
        stack = signal_stack(fs)
        assert stack.growth == fs[0].growth
        zs = disk_samples(3.0)
        # each row is its member evaluated alone, bit for bit, at any shape
        for z in (zs[5], zs, zs[:72].reshape(8, 9)):
            vals = stack(z)
            assert vals.shape == (3, *np.shape(z)) and vals.dtype == complex
            for row, f in zip(vals, fs):
                assert np.array_equal(row, f(z))
        assert signal_stack(fs[:1])(zs).shape == (1, zs.size)
        # a member with real values gets a complex row
        real = HolomorphicSignal(
            eval=lambda z: np.cos(np.real(z)), growth=fs[0].growth, label="re"
        )
        vals = signal_stack([fs[0], real])(zs)
        assert vals.dtype == complex and np.array_equal(vals[1], np.cos(zs.real))
        # the empty probe ``evolve.wavefield`` reads the leading axis from
        assert stack(np.empty(0, dtype=complex)).shape == (3, 0)

    def test_signal_stack_refuses_empty_and_joins_mixed_witnesses(self):
        with pytest.raises(ValueError, match="at least one"):
            signal_stack([])
        # the supershift experiment's stack: for real kappa the target
        # e^{i kappa z} runs under the witness of the F_n, bit for bit
        fs = [superosc_signal(n, 3.0) for n in (10, 20, 40)]
        assert signal_stack([plane_wave(3.0)] + fs).growth == fs[0].growth
        # orders of different kappa: the wider rate holds
        mixed = signal_stack([superosc_signal(10, 3.0), superosc_signal(10, 2.0)])
        assert mixed.growth == superosc_signal(10, 3.0).growth

    @staticmethod
    def _envelope(w, zs):
        spread = np.abs(zs.imag) if w.kind == "imag" else np.abs(zs)
        return w.amplitude * np.exp(w.rate * spread - w.freq * zs.imag)

    @pytest.mark.parametrize(
        "rows",
        [
            # frequencies 2, -1, 0.5 -+ 0.7 and 0 at amplitudes 1 and 3,
            # modulus and imag kinds
            lambda: [
                plane_wave(2.0),
                combine_signals([(3.0, plane_wave(-1.0))]),
                plane_wave(0.5 + 0.7j),
                constant_signal(),
                superosc_signal(6, 2.0),
            ],
            lambda: [plane_wave(2.5), combine_signals([(0.5j, plane_wave(-0.5 - 0.25j))])],
            lambda: [constant_signal(), combine_signals([(2.0, constant_signal())])],
        ],
        ids=["five-mixed", "two-plane", "all-imag"],
    )
    def test_signal_stack_witness_bounds_every_row(self, rows):
        rows = rows()
        stack = signal_stack(rows)
        w = stack.growth
        assert w.amplitude == max(f.growth.amplitude for f in rows)
        assert (w.kind == "imag") == all(f.growth.kind == "imag" for f in rows)
        zs = np.concatenate([disk_samples(3.0), 30.0 * disk_samples(1.0)])
        bound = self._envelope(w, zs)
        for f, vals in zip(rows, stack(zs)):
            assert np.all(self._envelope(f.growth, zs) <= bound * (1 + 1e-12))
            assert np.all(np.abs(vals) <= bound * (1 + 1e-12))

    def test_equal_witnesses_kept_bit_for_bit(self):
        # the midpoint of the band 3 -+ 0.1 rounds: 0.5 (3.1 - 2.9) != 0.1
        pw = plane_wave(3.0 + 0.1j)
        assert 0.5 * ((3.0 + 0.1) - (3.0 - 0.1)) != 0.1
        assert signal_stack([pw, pw, plane_wave(3.0 + 0.1j)]).growth == pw.growth
        assert combine_signals([(1.0, pw)]).growth == pw.growth
        fs = [superosc_signal(n, 3.0) for n in (10, 20, 40)]
        assert signal_stack(fs).growth == fs[0].growth
        zs = disk_samples(3.0)
        for f in (pw, plane_wave(-2.0), constant_signal(), fs[1], combine_signals([(2j, pw)])):
            one = signal_stack([f])
            assert one.growth == f.growth
            assert np.array_equal(one(zs)[0], f(zs))


class TestMetric:
    def test_identical_signals_zero(self):
        pw = plane_wave(3.0)
        samples = disk_samples(2.0)
        assert weighted_sup_distance(pw, pw, 4.0, samples) == 0.0

    @pytest.mark.parametrize("c_weight", [4.0, 8.0])
    def test_decreasing_along_order(self, c_weight):
        pw = plane_wave(3.0)
        samples = disk_samples(2.0)
        vals = [
            weighted_sup_distance(superosc_signal(n, 3), pw, c_weight, samples)
            for n in (10, 20, 40)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_monotone_in_weight(self):
        sg = superosc_signal(10, 3)
        pw = plane_wave(3.0)
        samples = disk_samples(2.0)
        m2 = weighted_sup_distance(sg, pw, 2.0, samples)
        m8 = weighted_sup_distance(sg, pw, 8.0, samples)
        assert m8 <= m2

    def test_default_weight(self):
        assert default_weight(3.0) == 8.0
        assert default_weight(-2.0) == 6.0

    def test_disk_samples_deterministic(self):
        a = disk_samples(2.5)
        b = disk_samples(2.5)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= 2.5 + 1e-12)
