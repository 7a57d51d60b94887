"""Import cost: the package loads only the scipy submodules it executes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import truthval

SRC = str(Path(truthval.__file__).resolve().parents[1])

HEAVY_SCIPY = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.sparse",
    "scipy.spatial",
    "scipy.ndimage",
)


@pytest.mark.parametrize("statement", ["import truthval.cli, truthval.oracle", "import truthval"])
def test_no_heavy_scipy_submodule_is_imported(statement):
    probe = (
        f"import sys\n{statement}\n"
        f"print(' '.join(m for m in {HEAVY_SCIPY!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert loaded == []
