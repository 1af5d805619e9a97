"""Memory guard: a real-line comparator call keeps its temporaries small.

``_panel_sums`` hands each integrand call at most ``_BATCH_NODES`` nodes,
and the Pöschl–Teller kernel's temporaries have that length (times the
order l).  With 250k nodes per call the ε comparator at the
cross-representation point (κ=2, t=0.3, x=0.4, ε=1e-5, tol 1e-5) peaked
at 73 MiB of traced allocations; with 4,096 nodes it takes ~5 MiB, most
of it the per-panel arrays of ``_adaptive_panels``.  This test pins the
peak below 16 MiB, so a much larger cap or a new temporary as long as the
whole window shows here.
"""

import tracemalloc

import numpy as np

from supershift_lab.contour_quad import GrowthWitness
from supershift_lab.crosschecks import epsilon_regularized_integral
from supershift_lab.initial_data import HolomorphicSignal
from supershift_lab.oracles import jost_datum

PEAK_MIB = 16.0


def test_pt_comparator_peak(pt1_kernel):
    kappa, t, x = 2.0, 0.3, 0.4
    a0, _ = pt1_kernel.growth_imag(t, x)

    def integrand(y):
        # the l=1 Jost datum (tanh y - i kappa) e^{i kappa y}, at most
        # 1 + kappa on the real line
        y = np.asarray(y, dtype=complex)
        return pt1_kernel.gtilde(t, x, y) * jost_datum(1, kappa, y)

    f = HolomorphicSignal(
        eval=integrand,
        growth=GrowthWitness(2.0 * a0 * (1.0 + kappa), 0.0, "imag"),
        label="greens*jost",
    )
    tracemalloc.start()
    try:
        epsilon_regularized_integral(f, pt1_kernel.a(t), x, 0.0, 1e-5, tol=1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_MIB * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
