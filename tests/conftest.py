import numpy as np
import pytest

from supershift_lab.greens import Electric, Free, Harmonic, PoschlTeller, Quadratic, make_kernel


@pytest.fixture(scope="session")
def free_kernel():
    return make_kernel(Free())


@pytest.fixture(scope="session")
def electric_kernel():
    return make_kernel(Electric(lambda t: 1.0, "const:1"), t_max=2.0)


@pytest.fixture(scope="session")
def harmonic_kernel():
    # omega = 1: horizon pi/2 (first alpha zero); a(t) = beta/(4 alpha)
    # turns negative at the focal time pi/4 (first beta zero)
    return make_kernel(Harmonic(lambda t: 1.0, "omega=1"), t_max=1.7)


@pytest.fixture(scope="session")
def driven_kernel():
    # V = x^2 + 0.7 x: the omega = 1 oscillator about x = -0.35, shifted
    # in energy by -0.7^2/4; horizon pi/2, focal time pi/4
    driven = Quadratic(lambda t: 1.0, lambda t: 0.7, "driven(omega=1,E=0.7)")
    return make_kernel(driven, t_max=1.7)


@pytest.fixture(scope="session")
def pt1_kernel():
    return make_kernel(PoschlTeller(1))


@pytest.fixture(scope="session")
def pt2_kernel():
    return make_kernel(PoschlTeller(2))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
