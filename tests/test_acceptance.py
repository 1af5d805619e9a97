"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest -s tests/test_acceptance.py -v  to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to
calibration.  Criterion 9's absolute bound d_40 <= 1e-2 is asserted as
stated even though the exact closed-form value of d_40 is ~2.9 (free)
and ~0.66 (harmonic) on the stated grids - see the strict-decrease and
oracle-value assertions in test_evolve.py for the verified behavior.
"""

import mpmath as mp
import numpy as np

from supershift_lab.contour_quad import GrowthWitness, rotated_integral
from supershift_lab.crosschecks import (
    analyticity_probe,
    epsilon_regularized_integral,
    truncated_integral,
    wronskian_drift,
)
from supershift_lab.evolve import (
    continuous_dependence_check,
    initial_limit_check,
    schrodinger_residual_field,
    supershift_experiment,
    wavefield,
)
from supershift_lab.greens import greens_value
from supershift_lab.initial_data import (
    HolomorphicSignal,
    default_weight,
    disk_samples,
    plane_wave,
    superosc_signal,
    weighted_sup_distance,
)
from supershift_lab.ode_coeff import solve_electric, solve_harmonic
from supershift_lab.oracles import (
    legendre_sum_residual,
    pt_kernel_term,
    pt_kernel_term_derivatives,
    superosc_value,
    superosc_value_float64,
)
from supershift_lab.special_fn import erfcx

FRESNEL = np.sqrt(np.pi) * np.exp(1j * np.pi / 4)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _sig(fn, amp, rate, kind="modulus"):
    return HolomorphicSignal(eval=fn, growth=GrowthWitness(amp, rate, kind), label="f")


def _rotated(f):
    """int_R e^{i y^2} f(y) dy on the pi/4 line through 0, at tol 1e-12."""
    return rotated_integral(f, a=1.0, y1=0.0, center=0.0, angle=np.pi / 4, tol=1e-12)


def test_criterion_01_fresnel_constant():
    one = _sig(lambda z: np.ones_like(np.asarray(z, dtype=complex)), 1.0, 0.0)
    rot = _rotated(one).value
    worst = abs(rot - FRESNEL)
    for eps in (1e-1, 1e-2, 1e-3):
        v = epsilon_regularized_integral(one, 1.0, 0.0, 0.0, eps, tol=1e-12)
        worst = max(worst, abs(v - np.sqrt(np.pi / (eps - 1j))))
    _report(1, "fresnel-constant", worst <= 1e-10, f"max dev {worst:.2e} <= 1e-10")


def test_criterion_02_representation_equivalence():
    fams = {
        "const": (lambda z: np.ones_like(np.asarray(z, dtype=complex)), 0.0),
        "plane2": (lambda z: np.exp(2j * np.asarray(z, dtype=complex)), 2.0),
        "cos": (lambda z: np.cos(np.asarray(z, dtype=complex)), 1.0),
    }
    worst_eps, worst_trunc = 0.0, 0.0
    for fn, rate in fams.values():
        rot = _rotated(_sig(fn, 1.0, rate)).value
        f_im = _sig(fn, 1.0, rate, "imag")
        v = epsilon_regularized_integral(f_im, 1.0, 0.0, 0.0, 1e-5, tol=3e-5)
        worst_eps = max(worst_eps, abs(v - rot))
        tv = truncated_integral(f_im, 1.0, 0.0, 40.0, 40.0, tol=1e-10)
        worst_trunc = max(worst_trunc, abs(tv - rot))
    ok = worst_eps <= 1e-4 and worst_trunc <= 5e-2
    _report(
        2,
        "representation-equivalence",
        ok,
        f"eps dev {worst_eps:.2e} <= 1e-4, truncation dev {worst_trunc:.2e} <= 5e-2",
    )


def test_criterion_03_free_particle_grid(free_kernel):
    ts = np.linspace(0.1, 1.0, 21)
    xs = np.linspace(-5.0, 5.0, 51)
    fld = wavefield(free_kernel, plane_wave(3.0), ts, xs, tol=1e-10)
    T, X = np.meshgrid(ts, xs, indexing="ij")
    err = float(np.abs(fld.values - np.exp(3j * X - 9j * T)).max())
    _report(3, "free-particle-grid", err <= 1e-8, f"max grid err {err:.2e} <= 1e-8")


def test_criterion_04_coefficient_closed_forms():
    h = solve_harmonic(lambda t: 1.0, t_max=1.65)
    ts = np.linspace(0.0, np.pi / 2, 61)
    dev_h = max(
        max(abs(h.alpha(t) - np.sin(2 * t) / 2) for t in ts),
        max(abs(h.beta(t) - np.cos(2 * t)) for t in ts),
    )
    # the first zero of the dense alpha, bisected to a bracket of one ulp
    lo, hi = 1.5, 1.65
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h.alpha(mid) > 0.0 else (lo, mid)
    dev_T = abs(lo - np.pi / 2)
    drift = wronskian_drift(h, np.linspace(0.01, 1.55, 40))
    # the stated -t^2/6, -t^5/45 pair, the field's phase coefficients q and
    # r, solves the ramp forcing lam(t) = t (constant lam = 1 forces -t/2,
    # -t^3/12; both checked)
    e = solve_electric(lambda t: t, t_max=1.0)
    ts2 = np.linspace(0.0, 1.0, 21)
    dev_e = max(
        max(abs(e.q(t) + t * t / 6) for t in ts2),
        max(abs(e.r(t) + t**5 / 45) for t in ts2),
    )
    ec = solve_electric(lambda t: 1.0, t_max=1.0)
    dev_ec = max(
        max(abs(ec.q(t) + t / 2) for t in ts2),
        max(abs(ec.r(t) + t**3 / 12) for t in ts2),
    )
    ok = dev_h <= 1e-10 and dev_T <= 1e-8 and dev_e <= 1e-10 and dev_ec <= 1e-10 and drift <= 1e-10
    _report(
        4,
        "coefficient-closed-forms",
        ok,
        f"osc {dev_h:.1e}, first alpha zero {dev_T:.1e}, ramp {dev_e:.1e}, "
        f"const {dev_ec:.1e}, wronskian {drift:.1e}",
    )


def test_criterion_05_harmonic_kernel_identity(harmonic_kernel):
    rng = np.random.default_rng(987)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.01, np.pi / 4)
        x = rng.uniform(-2, 2)
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1)
        mine = greens_value(harmonic_kernel, t, x, z)
        ref = (
            np.exp(-((z - x) ** 2) / (2j * np.tan(2 * t)) - 1j * x * z * np.tan(t))
            / np.sqrt(2j * np.pi * np.sin(2 * t))
        )
        worst = max(worst, abs(mine - ref) / abs(ref))
    _report(5, "harmonic-kernel-identity", worst <= 1e-9, f"max rel dev {worst:.2e} <= 1e-9")


def test_criterion_06_special_functions(rng):
    ok_zero = erfcx(0.0) == 1.0

    z = rng.uniform(0.1, 8, 60) + 1j * rng.uniform(-8, 8, 60)
    z = z[np.abs((z * z).real) < 600]
    refl = float(np.max(np.abs(erfcx(-z) - (2 * np.exp(z * z) - erfcx(z))) / np.abs(erfcx(-z))))

    sym = 0.0
    for _ in range(25):
        t = rng.uniform(0.05, 1.5)
        w = rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1)
        sym = max(sym, abs(pt_kernel_term(t, w) - pt_kernel_term(t, -w)))

    dmax = 0.0
    h = 1e-5
    for t, w in ((0.5, 1 + 0.3j), (0.25, 2.0 + 0j), (0.7, -0.4 + 0.6j)):
        dz, dt = pt_kernel_term_derivatives(t, w)
        dz_fd = (pt_kernel_term(t, w + h) - pt_kernel_term(t, w - h)) / (2 * h)
        dt_fd = (pt_kernel_term(t + h, w) - pt_kernel_term(t - h, w)) / (2 * h)
        dmax = max(dmax, abs(dz - dz_fd) / max(1.0, abs(dz)), abs(dt - dt_fd) / max(1.0, abs(dt)))

    lmax = 0.0
    for l in (1, 2, 3, 4):
        for _ in range(6):
            x = rng.uniform(-2, 2)
            w = rng.uniform(-2, 2) + 1j * rng.uniform(-0.99, 0.99)
            lmax = max(lmax, legendre_sum_residual(l, x, w))

    ok = ok_zero and refl <= 1e-10 and sym <= 1e-12 and dmax <= 1e-6 and lmax <= 1e-10
    _report(
        6,
        "special-functions",
        ok,
        f"erfcx(0)==1 {ok_zero}, reflection {refl:.1e}, symmetry {sym:.1e}, "
        f"derivatives {dmax:.1e}, legendre {lmax:.1e}",
    )


def test_criterion_07_pt_pde_residual(pt1_kernel, pt2_kernel):
    worst = 0.0
    h = 5e-3
    for kernel in (pt1_kernel, pt2_kernel):
        ts = 0.4 + h * np.arange(5)
        xs = 0.2 + h * np.arange(5)
        fld = wavefield(kernel, plane_wave(2.0), ts, xs, tol=1e-9)
        worst = max(worst, schrodinger_residual_field(fld, kernel))
    _report(7, "sech-well-pde-residual", worst <= 1e-3, f"max rel residual {worst:.2e} <= 1e-3")


def test_criterion_08_initial_value_limit(
    free_kernel, electric_kernel, harmonic_kernel, pt1_kernel
):
    t_seq = [1e-2, 1e-3, 1e-4]
    # the x-window avoids |x| ~ (pi/2) cot(angle) only where the shifted
    # contour would graze the cosh zeros; at the pi/8 well angle the whole
    # [-2, 2] window is safe
    xs = np.linspace(-2.0, 2.0, 9)
    details = []
    ok = True
    for kernel in (free_kernel, electric_kernel, harmonic_kernel, pt1_kernel):
        rep = initial_limit_check(kernel, plane_wave(2.0), xs, t_seq, tol=1e-8)
        ok = ok and rep.decreasing and rep.final_error <= 1e-2
        details.append(f"{kernel.potential.label()}: {rep.final_error:.1e}")
    _report(8, "initial-value-limit", ok, "; ".join(details))


def test_criterion_09_supershift_persistence(free_kernel, harmonic_kernel):
    free = supershift_experiment(
        free_kernel, [10, 20, 40], 3.0,
        np.linspace(0.1, 0.5, 5), np.linspace(-1, 1, 9), tol=1e-8,
    )
    harm = supershift_experiment(
        harmonic_kernel, [10, 20, 40], 2.0,
        np.linspace(0.1, 0.4, 4), np.linspace(-1, 1, 9), tol=1e-8,
    )
    samples = disk_samples(3.0)
    metrics = {
        "free": [
            weighted_sup_distance(superosc_signal(n, 3.0), plane_wave(3.0), default_weight(3.0), samples)
            for n in (10, 20, 40)
        ],
        "harm": [
            weighted_sup_distance(superosc_signal(n, 2.0), plane_wave(2.0), default_weight(2.0), samples)
            for n in (10, 20, 40)
        ],
    }
    lockstep = all(m2 < m1 for ms in metrics.values() for m1, m2 in zip(ms, ms[1:]))
    decreasing = free.strictly_decreasing and harm.strictly_decreasing
    small_enough = free.distances[-1] <= 1e-2 and harm.distances[-1] <= 1e-2
    detail = (
        f"free d_n {[f'{d:.4g}' for d in free.distances]}, "
        f"harmonic d_n {[f'{d:.4g}' for d in harm.distances]}, "
        f"decreasing {decreasing}, metrics decreasing {lockstep}; "
        f"the d_40 <= 1e-2 bound is unattainable on these grids: the exact "
        f"closed-form distances are 2.9245 / 0.6578 (60-digit plane-wave "
        f"combination oracle, pinned in test_evolve.py)"
    )
    _report(9, "supershift-persistence", decreasing and lockstep and small_enough, detail)


def test_criterion_10_continuous_dependence(free_kernel):
    rep = continuous_dependence_check(
        free_kernel,
        plane_wave(3.0),
        [superosc_signal(n, 3.0) for n in (10, 20, 40)],
        [10, 20, 40],
        default_weight(3.0),
        disk_samples(3.0),
        np.linspace(0.1, 0.5, 5),
        np.linspace(-1, 1, 9),
        tol=1e-8,
    )
    ok = rep.passed and rep.stable_within <= 3.0
    _report(
        10,
        "continuous-dependence",
        ok,
        f"ratios {[f'{r:.3g}' for r in rep.ratios]}, spread x{rep.stable_within:.2f} <= x3",
    )


def test_criterion_11_analyticity_probe(free_kernel, harmonic_kernel):
    v_free = abs(analyticity_probe(free_kernel, 0.4, 0.3, [0, 1, 1j], tol=1e-9))
    v_harm = abs(analyticity_probe(harmonic_kernel, 0.2, 0.5, [1, 2, 1 + 1j], tol=1e-9))
    ok = v_free <= 1e-6 and v_harm <= 1e-5
    _report(
        11,
        "analyticity-probe",
        ok,
        f"free contour {v_free:.2e} <= 1e-6, harmonic {v_harm:.2e} <= 1e-5",
    )


def test_criterion_12_cancellation_certificate():
    exact = superosc_value(60, 3, 1.0)
    with mp.workdps(60):
        ref = complex(
            sum(
                mp.binomial(60, l) * mp.mpf(2) ** (60 - l) * mp.mpf(-1) ** l
                * mp.expj((1 - mp.mpf(2 * l) / 60) * 1)
                for l in range(61)
            )
        )
    ext_err = abs(exact - ref) / abs(ref)
    dbl_err = abs(superosc_value_float64(60, 3, 1.0) - ref) / abs(ref)
    ok = dbl_err > 1e-2 and ext_err <= 1e-12
    _report(
        12,
        "cancellation-certificate",
        ok,
        f"double rel err {dbl_err:.2e} > 1e-2, extended rel err {ext_err:.2e} <= 1e-12",
    )
