"""Import-weight guard: the library loads no scipy, no mpmath and no numpy.ma.

Importing ``scipy.special`` costs 0.3-0.4 s and ~25 MB, ``scipy.integrate``
0.2-0.4 s and ~26 MB, ``mpmath`` ~35 ms and ``numpy.ma``, which the first
``np.unique`` call imports, ~6 ms; each shows directly in the benchmark's
``setup_s``, ``wall_s`` or ``peak_rss_mb`` and in every CLI run.  This
test pins that the import (``supershift_lab.oracles`` and ``cli``
included), the four kernel builds and the CLI's build of a ``table``
lambda, a numpy spline, one grid point per kernel, one real-line
comparator call (from ``supershift_lab.crosschecks``), one kernel audit
and one point each of the three grid experiments (supershift distances,
two orders stacked on one contour; continuous dependence with its
initial-data metric; the initial-value limit) load none of them: no
module imports scipy, and mpmath stays a lazy import of the
extended-precision sums in ``oracles``, the only module that imports it.
``initial_data`` and ``oracles`` import each other, so each of the two,
and ``evolve``, which ``oracles`` uses, must also import cleanly when it
comes first; so must ``greens``, which imports ``contour_quad`` for the
``GrowthWitness`` its kernels return, and ``crosschecks``, which imports
the runtime modules.

``crosschecks`` holds second routes and checks that the run path never
calls, so neither the package import nor a CLI run loads it.
``contour_quad`` still hands out its ε comparator by name, and nothing
else of ``crosschecks``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.sparse", "scipy.linalg")

SCRIPT = """
import sys
import supershift_lab
import supershift_lab.oracles
from supershift_lab import cli
from supershift_lab.crosschecks import epsilon_regularized_integral
from supershift_lab.evolve import (
    continuous_dependence_check,
    initial_limit_check,
    supershift_experiment,
    wavefield,
)
from supershift_lab.greens import Electric, Free, Harmonic, PoschlTeller, audit_kernel, make_kernel
from supershift_lab.initial_data import (
    default_weight,
    disk_samples,
    plane_wave,
    superosc_signal,
)

kernels = [
    make_kernel(Free()),
    make_kernel(Electric(lambda t: 1.0, "const:1"), t_max=2.0),
    make_kernel(Harmonic(lambda t: 1.0, "omega=1"), t_max=1.7),
    make_kernel(PoschlTeller(2)),
    cli._build_kernel(*cli._potential_from_config({"kind": "harmonic", "lambda": {
        "kind": "table", "t": [0.0, 0.5, 1.0, 1.5], "values": [1.0, 1.2, 0.9, 1.1]}}), [0.3]),
]
for kernel in kernels:
    field = wavefield(kernel, plane_wave(2.0), [0.3], [0.4], tol=1e-8)
    assert not field.failures, field.failures
epsilon_regularized_integral(plane_wave(0.0), 1.0, 0.0, eps=1e-3, tol=1e-8)
free = kernels[0]
assert audit_kernel(free).passed
assert not supershift_experiment(free, [10, 20], 3.0, [0.3], [0.4]).failures
assert not continuous_dependence_check(
    free, plane_wave(3.0), [superosc_signal(10, 3.0)], [10], default_weight(3.0),
    disk_samples(3.0), [0.3], [0.4],
).failures
assert not initial_limit_check(free, plane_wave(3.0), [0.4], [0.01]).failures
print(" ".join(sorted(sys.modules)))
"""


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout


def _loaded_modules():
    return _run(SCRIPT).split()


def test_kernel_builds_skip_heavy_scipy_subpackages():
    out = _loaded_modules()
    assert "supershift_lab.greens" in out
    assert [m for m in HEAVY if m in out] == []
    assert [m for m in out if m == "scipy" or m.startswith("scipy.")] == []
    assert [m for m in out if m == "mpmath" or m.startswith("mpmath.")] == []
    # np.unique's first call imports numpy.ma, ~6 ms
    assert [m for m in out if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


def _imports_mpmath(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "mpmath" or n.startswith("mpmath.") for n in names):
            return True
    return False


def test_only_oracles_imports_mpmath():
    modules = sorted((SRC / "supershift_lab").glob("*.py"))
    assert [p.name for p in modules if _imports_mpmath(p)] == ["oracles.py"]


@pytest.mark.parametrize("module", ["oracles", "initial_data", "evolve", "greens", "crosschecks"])
def test_module_imports_first(module):
    out = _run(f"import supershift_lab.{module} as m; print(m.__name__)")
    assert out.split() == [f"supershift_lab.{module}"]


def test_run_path_skips_crosschecks(tmp_path):
    out = _run(
        "import sys\n"
        "import supershift_lab\n"
        "from supershift_lab import cli\n"
        "code = cli.main(['evolve', '--potential', 'free', '--initial', 'plane:k=3',\n"
        f"                 '--output', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    modules = out.split()
    assert "supershift_lab.cli" in modules and "supershift_lab.evolve" in modules
    assert "supershift_lab.crosschecks" not in modules


def test_contour_quad_hands_out_only_the_comparator():
    from supershift_lab import contour_quad, crosschecks

    assert contour_quad.epsilon_regularized_integral is crosschecks.epsilon_regularized_integral
    assert not hasattr(contour_quad, "truncated_integral")
