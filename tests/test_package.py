"""The package namespace: `__all__` resolved lazily from its submodules."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter, where no test has imported a submodule yet
_FRESH = """import sys
import parkhopf
assert not [m for m in sys.modules if m.startswith("parkhopf.")]
names = {}
exec("from parkhopf import *", names)
assert sorted(parkhopf._HOME) == sorted(parkhopf.__all__)
for name, short in parkhopf._HOME.items():
    assert names[name] is getattr(sys.modules[f"parkhopf.{short}"], name), name
try:
    parkhopf.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("parkhopf.no_such_name resolved")
assert set(parkhopf.__all__) <= set(dir(parkhopf))
print("ok")
"""


def test_package_exports_resolve_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _FRESH],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"ok\n", b"")
