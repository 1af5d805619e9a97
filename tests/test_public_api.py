"""Ceiling on the package's public API.

The quality aim says the names ``import supershift_lab`` exposes should
only go down: at most 37 public names today, 8 of them submodules.  The
count runs in a fresh interpreter, since a test that imports another
submodule (``crosschecks``) adds it to the package's namespace.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import types
import supershift_lab as lab
names = [n for n in dir(lab) if not n.startswith("_")]
print(len(names), sum(isinstance(getattr(lab, n), types.ModuleType) for n in names))
"""


def test_public_names_at_most_37():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout
    names, modules = map(int, out.split())
    assert names <= 37, names
    assert modules <= 8, modules
