"""Self-tests of the benchmark's oracles and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

Not collected by the repository's own test run (the file name does not
match test_*.py); pass the path explicitly.
"""

import itertools

import numpy as np
import pytest

import oracles
from tracer import Tracer, derived_panels, layer_metrics, self_times


def _residual(psi, pot, t, x, h=1e-3):
    """|i dPsi/dt + d2Psi/dx2 - V Psi| relative to the largest of its three
    terms, by central differences Richardson-extrapolated from steps h and
    h/2 (error O(h^4))."""

    def derivs(h):
        dt = (psi(t + h, x) - psi(t - h, x)) / (2 * h)
        dxx = (psi(t, x + h) - 2 * psi(t, x) + psi(t, x - h)) / (h * h)
        return dt, dxx

    (dt1, dxx1), (dt2, dxx2) = derivs(h), derivs(h / 2)
    dt, dxx = (4 * dt2 - dt1) / 3, (4 * dxx2 - dxx1) / 3
    vpsi = pot(x) * psi(t, x)
    return abs(1j * dt + dxx - vpsi) / max(abs(dt), abs(dxx), abs(vpsi))


ORACLES = {
    "free": (oracles.free_plane, lambda x: 0.0),
    "electric": (oracles.electric_plane, lambda x: x),
    "harmonic": (oracles.harmonic_plane, lambda x: x * x),
    "pt1": (lambda t, x, k: oracles.pt_jost_wave(1, t, x, k), lambda x: oracles.pt_potential(1, x)),
    "pt2": (lambda t, x, k: oracles.pt_jost_wave(2, t, x, k), lambda x: oracles.pt_potential(2, x)),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_solves_schrodinger(name):
    wave, pot = ORACLES[name]
    for t, x, k in itertools.product((0.15, 0.35, 0.55), (-1.7, 0.0, 0.4, 2.0), (1.9, 3.1)):
        r = _residual(lambda tt, xx: wave(tt, xx, k), pot, t, x)
        assert r < 1e-6, (name, t, x, k, r)


def test_jost_tanh_bound_on_swept_sectors():
    r = np.linspace(0.0, 8.0, 2001)
    worst = 0.0
    for x in np.linspace(-oracles.JOST_X_MAX, oracles.JOST_X_MAX, 51):
        for phi in np.linspace(-np.pi / 8, np.pi / 8, 33):
            for sgn in (1.0, -1.0):
                worst = max(worst, np.abs(np.tanh(x + sgn * r * np.exp(1j * phi))).max())
    # r >= 8 puts |Re z| >= 3 for every such sector, where |tanh| <= coth 3
    assert 1.0 / np.tanh(3.0) < oracles.JOST_TANH_BOUND
    assert worst <= oracles.JOST_TANH_BOUND


def test_superosc_oracles_agree_with_pinned_and_library():
    from supershift_lab.initial_data import superosc_value

    d = oracles.supershift_distances(
        (10, 20, 40), 3.0, np.linspace(0.1, 0.5, 5), np.linspace(-1, 1, 9)
    )
    assert np.allclose(d, (10.394027, 6.805639, 2.924525), rtol=0.0, atol=1e-6)
    # product form of F_n (metric oracle) vs the library's coefficient sum
    for z in (0.3 + 0.2j, -1.7 + 0.9j, 2.5 - 0.4j):
        want = complex(superosc_value(20, 3.0, z))
        got = oracles.superosc_metric(20, 3.0, 0.0, [z])
        assert abs(got - abs(want - np.exp(3j * z))) <= 1e-9 * max(1.0, got)


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def test_self_times_on_synthetic_tree():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9];  lone [11, 12]
    tr = Tracer(clock=_Clock([0, 1, 2, 3, 4, 5, 9, 10, 11, 12]))
    root = tr.open("bench.op")
    a = tr.open("a")
    c = tr.open("c")
    tr.close(c)
    tr.close(a)
    b = tr.open("b")
    tr.close(b)
    tr.close(root)
    lone = tr.open("lone")
    tr.close(lone)
    sp = tr.arrays()
    assert list(sp["parent"]) == [-1, root, a, root, -1]
    assert list(self_times(sp["start"], sp["end"], sp["parent"])) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_wrapped_calls_nest_and_charge_every_layer():
    tr = Tracer()
    inner = tr.wrap("special_fn.erfcx", lambda z: np.asarray(z) * 2, lambda a, r: (np.size(a[0]), 0.0))
    outer = tr.wrap("greens.gtilde", lambda z: inner(z) + inner(z))
    sid = tr.open("bench.op")
    outer(np.zeros(7))
    tr.close(sid)
    sp = tr.arrays()
    assert [sp["names"][i] for i in sp["name"]] == [
        "bench.op", "greens.gtilde", "special_fn.erfcx", "special_fn.erfcx"
    ]
    assert list(sp["parent"]) == [-1, 0, 1, 1]
    m = layer_metrics(sp, ops=1)["metrics"]
    assert m["special_fn.erfcx_calls"] == 2 and m["special_fn.erfcx_points"] == 14
    charged = m["bench.self_s"] + m["greens.gtilde_s"] + m["special_fn.erfcx_s"]
    assert charged == pytest.approx(m["trace.wall_s"], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("kind", ["free", "pt2"])
def test_derived_counters_match_quadrature_result(kind):
    from supershift_lab import evolve
    from supershift_lab.greens import Free, PoschlTeller, make_kernel
    from supershift_lab.initial_data import plane_wave

    import workloads

    kernel = make_kernel(Free() if kind == "free" else PoschlTeller(2))
    signal = plane_wave(3.0) if kind == "free" else workloads.jost_signal(2, 2.0)
    ts, xs = [0.2, 0.6], [-0.5, 1.1]
    results = [
        evolve.wavefunction_result(kernel, signal, t, x, 1e-9) for t in ts for x in xs
    ]
    original = evolve.wavefield
    tr = Tracer()
    tr.install()
    try:
        sid = tr.open("bench.op")
        field = evolve.wavefield(tr.kernel(kernel), tr.signal(signal), ts, xs, tol=1e-9)
        tr.close(sid)
    finally:
        tr.uninstall()
    assert evolve.wavefield is original
    sp = tr.arrays()
    names = list(sp["names"])
    assert derived_panels(sp) == [(r.panels_used, r.panels_used) for r in results]
    rot = np.flatnonzero(sp["name"] == names.index("contour_quad.rotated_integral"))
    rad = np.flatnonzero(sp["name"] == names.index("contour_quad.truncation_radius"))
    assert list(sp["parent"][rad]) == list(rot)
    assert list(sp["v"][rad]) == [r.truncation_radius for r in results]
    m = layer_metrics(sp, ops=1)["metrics"]
    assert m["evolve.points"] == 4
    assert m["contour_quad.panels_per_point"] == np.mean([r.panels_used for r in results])
    gt_batches = m["greens.gtilde_calls"]
    assert m["contour_quad.rounds_per_point"] == (gt_batches - 4) / 4
    assert np.array_equal(field.values.ravel(), [r.value for r in results])
