"""The benchmark's workloads: inputs from a seed, set-up, one operation, checks.

Each workload makes its inputs from the seed alone.  Seed 0 gives the
nominal inputs; any other seed jitters kappa and the grid bounds within
the ranges below, chosen small enough that the work per operation stays
nearly the same.  The library receives only the generated numbers.

``setup`` is what every CLI invocation pays before its first quadrature
(kernel construction, initial signals) and is what ``setup_s`` times;
``op`` is one certified result, run repeatedly, and calls the library's
public functions through their modules so that a tracer can wrap them.
Oracle values are computed between the two and are not timed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracles
from supershift_lab import cli, contour_quad, evolve, greens, initial_data
from supershift_lab.contour_quad import GrowthWitness
from supershift_lab.errors import SupershiftError
from supershift_lab.initial_data import HolomorphicSignal

KAPPA_JITTER = 0.05  # relative
BOUND_JITTER = 0.05  # absolute, on every grid bound except t_lo
T_LO_JITTER = 0.02


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    points: int = 0  # propagator evaluations, the unit of us_per_point
    notes: list = field(default_factory=list)

    def fail(self, count: int, why: str):
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(why)


def _jitter(rng, seed):
    """x -> x * (1 + U(-r, r)) for kappa, x -> x + U(-r, r) for bounds."""
    if seed == 0:
        return (lambda k: k), (lambda b, r=BOUND_JITTER: b)
    return (
        lambda k: k * (1.0 + rng.uniform(-KAPPA_JITTER, KAPPA_JITTER)),
        lambda b, r=BOUND_JITTER: b + rng.uniform(-r, r),
    )


def jost_signal(l: int, kappa: float) -> HolomorphicSignal:
    """Poschl-Teller Jost datum with the witness bounded on the swept sector."""
    amp = oracles.jost_amplitude(l, kappa, oracles.JOST_TANH_BOUND)
    return HolomorphicSignal(
        eval=lambda z: oracles.jost(l, kappa, z),
        growth=GrowthWitness(amp, abs(kappa), "modulus"),
        label=f"jost:l={l},k={kappa:g}",
    )


def _t_max(t_hi: float) -> float:
    # the CLI's rule for the coefficient-solve span (cli._build_kernel)
    return max(2.0 * t_hi, 1.0)


# -- plane-field ---------------------------------------------------------


@dataclass(frozen=True)
class PlaneCase:
    label: str
    kappa: float
    ts: np.ndarray
    xs: np.ndarray


class PlaneField:
    """Plane-wave-type data on all four potentials, evolve + field outputs."""

    name = "plane-field"
    TOL = 1e-9
    # label: (kappa, t_lo, t_hi, n_t, x_lo, x_hi, n_x)
    NOMINAL = {
        "free": (3.0, 0.1, 1.0, 8, -3.0, 3.0, 25),
        "electric": (2.0, 0.1, 1.0, 8, -2.0, 2.0, 25),
        # below the pi/4 horizon; from t ~ 0.7 at |x| = 2 the rotated sum is
        # cancellation-limited at this tol and the point is reported failed
        "harmonic": (2.0, 0.1, 0.55, 8, -2.0, 2.0, 25),
        "poschl_teller": (2.0, 0.1, 1.0, 8, -2.0, 2.0, 25),
    }

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        jk, jb = _jitter(rng, seed)
        self.out_dir = out_dir
        self.cases = []
        for label, (k, t0, t1, nt, x0, x1, nx) in self.NOMINAL.items():
            ts = np.linspace(jb(t0, T_LO_JITTER), jb(t1), nt)
            xs = np.linspace(jb(x0), jb(x1), nx)
            self.cases.append(PlaneCase(label, float(jk(k)), ts, xs))

    def setup(self):
        one = lambda t: 1.0
        self.kernels, self.signals = [], []
        for c in self.cases:
            t_max = _t_max(c.ts[-1])
            if c.label == "free":
                k, s = greens.make_kernel(greens.Free()), initial_data.plane_wave(c.kappa)
            elif c.label == "electric":
                pot = greens.Electric(one, "const:1")
                k, s = greens.make_kernel(pot, t_max=t_max), initial_data.plane_wave(c.kappa)
            elif c.label == "harmonic":
                pot = greens.Harmonic(one, "omega=1")
                k, s = greens.make_kernel(pot, t_max=t_max), initial_data.plane_wave(c.kappa)
            else:
                k, s = greens.make_kernel(greens.PoschlTeller(2)), jost_signal(2, c.kappa)
            self.kernels.append(k)
            self.signals.append(s)

    def prepare_oracles(self):
        fns = {
            "free": oracles.free_plane,
            "electric": oracles.electric_plane,
            "harmonic": oracles.harmonic_plane,
            "poschl_teller": lambda t, x, k: oracles.pt_jost_wave(2, t, x, k),
        }
        self.oracle = [
            fns[c.label](c.ts[:, None], c.xs[None, :], c.kappa) for c in self.cases
        ]
        return []

    def op(self, tr) -> Tally:
        tally = Tally()
        for c, kernel, signal, ref in zip(self.cases, self.kernels, self.signals, self.oracle):
            size = len(c.ts) * len(c.xs)
            tally.attempted += size
            tally.points += size
            try:
                wf = evolve.wavefield(tr.kernel(kernel), tr.signal(signal), c.ts, c.xs, tol=self.TOL)
            except SupershiftError as exc:
                tally.fail(size, f"{c.label}: {type(exc).__name__}: {exc}")
                continue
            bad = ~(np.abs(wf.values - ref) <= wf.quad_errors)  # NaN fails too
            index = {(t, x): (i, j) for i, t in enumerate(c.ts) for j, x in enumerate(c.xs)}
            for t, x, _ in wf.failures:
                bad[index[(t, x)]] = True
            csv_path = os.path.join(self.out_dir, f"{c.label}_field.csv")
            text = cli.field_csv(wf)
            with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            plot_path = os.path.join(self.out_dir, f"{c.label}_plot.dat")
            cli.emit_plotdata(wf, plot_path)
            # the written CSV must round-trip the values exactly
            rows = [line.split(",") for line in text.splitlines()[1:]]
            back = np.array([complex(float(r[2]), float(r[3])) for r in rows])
            bad |= (back != wf.values.ravel()).reshape(bad.shape)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                tally.fail(
                    int(bad.sum()),
                    f"{c.label}: {int(bad.sum())} points off oracle, first at "
                    f"t={c.ts[i]:.6g} x={c.xs[j]:.6g}: err {abs(wf.values[i, j] - ref[i, j]):.3e} "
                    f"> estimate {wf.quad_errors[i, j]:.3e}",
                )
        return tally


# -- supershift-free -----------------------------------------------------


class SupershiftFree:
    """supershift_experiment + weighted_sup_distance, one grid column per op."""

    name = "supershift-free"
    TOL = 1e-8
    N_VALUES = (10, 20, 40)
    DIST_TOL = 1e-4  # the tests' tolerance on d_n
    # criterion-9 free grid: kappa = 3 on [0.1, 0.5] x [-1, 1], 5 x 9
    KAPPA, T, X = 3.0, (0.1, 0.5, 5), (-1.0, 1.0, 9)
    FREE_D = (10.394027, 6.805639, 2.924525)  # pinned in tests/test_evolve.py

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        jk, jb = _jitter(rng, seed)
        self.seed = seed
        self.out_dir = out_dir
        self.kappa = float(jk(self.KAPPA))
        self.ts = np.linspace(jb(self.T[0], T_LO_JITTER), jb(self.T[1]), self.T[2])
        self.xs = np.linspace(jb(self.X[0]), jb(self.X[1]), self.X[2])
        # one column of the grid per operation: all t, all n.  Always the
        # first column: the node count grows with |x|, and a column that
        # moved with the seed would spread the work between seeds by ~15%.
        self.col = [float(self.xs[0])]

    def setup(self):
        self.kernel = greens.make_kernel(greens.Free())
        self.c_weight = initial_data.default_weight(self.kappa)
        self.samples = initial_data.disk_samples(3.0)
        self.target = initial_data.plane_wave(self.kappa)

    def prepare_oracles(self):
        notes = []
        self.ref_d = oracles.supershift_distances(self.N_VALUES, self.kappa, self.ts, self.col)
        self.ref_m = [
            oracles.superosc_metric(n, self.kappa, self.c_weight, self.samples)
            for n in self.N_VALUES
        ]
        if self.seed == 0:
            full = oracles.supershift_distances(self.N_VALUES, self.kappa, self.ts, self.xs)
            if not np.allclose(full, self.FREE_D, rtol=0.0, atol=1e-6):
                notes.append(f"oracle d_n {full} disagrees with pinned FREE_D {self.FREE_D}")
        return notes

    def op(self, tr) -> Tally:
        tally = Tally(points=len(self.ts) * (1 + len(self.N_VALUES)))
        lines = ["n,d_n,metric_n"]
        tally.attempted += len(self.N_VALUES)
        try:
            rep = evolve.supershift_experiment(
                tr.kernel(self.kernel), self.N_VALUES, self.kappa, self.ts, self.col, tol=self.TOL
            )
            distances = rep.distances
            for n, d, ref in zip(self.N_VALUES, distances, self.ref_d):
                if not abs(d - ref) <= self.DIST_TOL:
                    tally.fail(1, f"d_{n} = {d!r}, oracle {ref!r}")
        except SupershiftError as exc:
            distances = [float("nan")] * len(self.N_VALUES)
            tally.fail(len(self.N_VALUES), f"supershift_experiment: {type(exc).__name__}: {exc}")
        target = tr.signal(self.target)
        for n, d, ref in zip(self.N_VALUES, distances, self.ref_m):
            tally.attempted += 1
            try:
                fn = tr.signal(initial_data.superosc_signal(n, self.kappa))
                m = initial_data.weighted_sup_distance(fn, target, self.c_weight, self.samples)
            except SupershiftError as exc:
                tally.fail(1, f"metric_{n}: {type(exc).__name__}: {exc}")
                continue
            if not abs(m - ref) <= self.DIST_TOL:
                tally.fail(1, f"metric_{n} = {m!r}, oracle {ref!r}")
            lines.append(f"{n},{d:.17g},{m:.17g}")
        with open(os.path.join(self.out_dir, "supershift.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return tally


# -- crossrep-eps --------------------------------------------------------


class CrossrepEps:
    """Rotated value vs the eps-regularized real-line comparator."""

    name = "crossrep-eps"
    # from test_cross_representation_all_potentials
    KAPPA, T, X = 2.0, 0.3, 0.4
    ROT_TOL, EPS, EPS_TOL, AGREE = 1e-6, 1e-5, 1e-5, 1e-4

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        jk, jb = _jitter(rng, seed)
        self.out_dir = out_dir
        self.kappa = float(jk(self.KAPPA))
        self.x = float(jb(self.X))
        self.t = self.T  # the comparator's cost scales with 1/t: not jittered

    def setup(self):
        self.cases = [
            ("free", greens.make_kernel(greens.Free()), initial_data.plane_wave(self.kappa), 1.0),
            (
                "poschl_teller_l1",
                greens.make_kernel(greens.PoschlTeller(1)),
                jost_signal(1, self.kappa),
                1.0 + abs(self.kappa),  # sup of |psi_k| on the real line
            ),
        ]

    def prepare_oracles(self):
        self.oracle = {
            "free": complex(oracles.free_plane(self.t, self.x, self.kappa)),
            "poschl_teller_l1": complex(oracles.pt_jost_wave(1, self.t, self.x, self.kappa)),
        }
        return []

    def op(self, tr) -> Tally:
        tally = Tally()
        t, x = self.t, self.x
        record = {}
        for label, kernel, signal, real_sup in self.cases:
            tally.attempted += 1
            tally.points += 1
            k, s = tr.kernel(kernel), tr.signal(signal)
            try:
                rot = evolve.wavefunction_result(k, s, t, x, tol=self.ROT_TOL)
                a0, _ = kernel.growth_imag(t, x)

                def integrand(y, k=k, s=s):
                    y = np.asarray(y, dtype=complex)
                    return k.gtilde(t, x, y) * s.eval(y)

                f = HolomorphicSignal(
                    eval=tr.wrap("bench.eps_integrand", integrand, lambda a, r: (np.size(a[0]), float("nan"))),
                    growth=GrowthWitness(a0 * 2.0 * real_sup, 0.0, "imag"),
                    label="greens*datum",
                )
                eps_val = contour_quad.epsilon_regularized_integral(
                    f, kernel.a(t), x, 0.0, self.EPS, tol=self.EPS_TOL
                )
            except SupershiftError as exc:
                tally.fail(1, f"{label}: {type(exc).__name__}: {exc}")
                continue
            ref = self.oracle[label]
            ok = (
                abs(rot.value - ref) <= rot.err_estimate
                and abs(eps_val - ref) <= self.AGREE
                and abs(eps_val - rot.value) <= self.AGREE
            )
            if not ok:
                tally.fail(
                    1,
                    f"{label}: rot err {abs(rot.value - ref):.3e} (estimate {rot.err_estimate:.3e}), "
                    f"eps err {abs(eps_val - ref):.3e}",
                )
            record[label] = {"rotated": [rot.value.real, rot.value.imag], "eps": [eps_val.real, eps_val.imag]}
        with open(os.path.join(self.out_dir, "crossrep.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        return tally


WORKLOADS = {w.name: w for w in (PlaneField, SupershiftFree, CrossrepEps)}
