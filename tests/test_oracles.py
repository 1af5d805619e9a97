"""The closed forms of ``supershift_lab.oracles`` checked without the library.

Each closed-form wave must solve i dPsi/dt + d2Psi/dx2 - V Psi = 0 with
its potential written out here, and the Jost datum's witness rests on a
sampled bound of |tanh z| on the sech^2 well's swept sectors.
"""

import itertools

import numpy as np
import pytest

from supershift_lab import oracles

E_DRIVEN = 0.7


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


WAVES = {
    "free": (oracles.free_plane, lambda x: 0.0),
    "electric": (oracles.electric_plane, lambda x: x),
    "harmonic": (oracles.harmonic_plane, lambda x: x * x),
    "driven": (
        lambda t, x, k: oracles.driven_plane(t, x, k, E_DRIVEN),
        lambda x: x * x + E_DRIVEN * x,
    ),
    "jost1": (lambda t, x, k: oracles.jost_wave(1, t, x, k), lambda x: -2.0 / np.cosh(x) ** 2),
    "jost2": (lambda t, x, k: oracles.jost_wave(2, t, x, k), lambda x: -6.0 / np.cosh(x) ** 2),
}


@pytest.mark.parametrize("name", sorted(WAVES))
def test_wave_solves_schrodinger(name):
    wave, pot = WAVES[name]
    for t, x, k in itertools.product((0.15, 0.35, 0.55), (-1.7, 0.0, 0.4, 2.0), (1.9, 3.1)):
        r = _residual(lambda tt, xx: wave(tt, xx, k), pot, t, x)
        assert r < 1e-6, (name, t, x, k, r)


def test_jost_tanh_bound_on_swept_sectors():
    # the double sectors of half-angle pi/8 around each x, out to r = 8
    r = np.linspace(0.0, 8.0, 2001)
    worst = 0.0
    for x in np.linspace(-oracles.JOST_X_MAX, oracles.JOST_X_MAX, 51):
        for phi in np.linspace(-np.pi / 8, np.pi / 8, 33):
            for sgn in (1.0, -1.0):
                worst = max(worst, np.abs(np.tanh(x + sgn * r * np.exp(1j * phi))).max())
    # r >= 8 puts |Re z| >= 8 cos(pi/8) - 2.5 > 3 for every such sector,
    # where |tanh z| <= coth 3
    assert 1.0 / np.tanh(3.0) < oracles.JOST_TANH_BOUND
    assert worst <= oracles.JOST_TANH_BOUND


@pytest.mark.parametrize("l", [1, 2])
def test_jost_signal_witness_holds_on_sectors(l):
    # |psi(z)| <= amplitude e^{rate |z|} at the sampled sector points
    kappa = 2.0
    f = oracles.jost_signal(l, kappa)
    r = np.linspace(0.0, 8.0, 401)
    for x, phi, sgn in itertools.product((-2.5, 0.0, 1.3), (-np.pi / 8, 0.0, np.pi / 8), (1.0, -1.0)):
        z = x + sgn * r * np.exp(1j * phi)
        bound = f.growth.amplitude * np.exp(f.growth.rate * np.abs(z))
        assert np.all(np.abs(f(z)) <= bound)
