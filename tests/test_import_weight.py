"""Import-weight guard: the library loads only the scipy parts it uses.

Importing ``scipy.integrate`` alone costs 0.2-0.4 s and ~26 MB, which
shows directly in the benchmark's ``setup_s`` and ``peak_rss_mb``; this
test pins that no kernel build pulls in such a subpackage.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.sparse", "scipy.linalg")

SCRIPT = """
import sys
import supershift_lab
from supershift_lab.greens import Electric, Free, Harmonic, PoschlTeller, make_kernel

make_kernel(Free())
make_kernel(Electric(lambda t: 1.0, "const:1"), t_max=2.0)
make_kernel(Harmonic(lambda t: 1.0, "omega=1"), t_max=1.7)
make_kernel(PoschlTeller(2))
print(" ".join(sorted(sys.modules)))
"""


def test_kernel_builds_skip_heavy_scipy_subpackages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "supershift_lab.greens" in out
    assert [m for m in HEAVY if m in out] == []
