"""The benchmark's own self-tests, run against the library in ``src/``.

``bench/`` wraps library names from outside (``contour_quad.erfcx``,
``contour_quad.truncation_radius``, ``evolve.wavefunction_result``, ...)
and asserts that grid values equal per-point values; running its
self-tests here keeps library changes from silently breaking that
contract.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
