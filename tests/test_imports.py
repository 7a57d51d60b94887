"""Import cost: the package loads only the scipy submodules a run executes."""

import json
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

IMPORTS = ["import truthval.cli, truthval.oracle", "import truthval"]


def _loaded_scipy(statement: str) -> list[str]:
    """``scipy`` and its public subpackages, as far as they are in
    ``sys.modules`` after a fresh process runs ``statement``."""
    probe = (
        f"import sys\n{statement}\n"
        "print(' '.join(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
        "    if m.split('.')[0] == 'scipy' and not m.startswith('scipy._')})))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout.split()


def _cli_run(tmp_path, cfg: dict) -> str:
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(cfg))
    args = ["--config", str(config), "--out", str(out)]
    return f"from truthval.cli import main\nassert main({args!r}) == 0"


def _linear(n_points: int) -> dict:
    return {"generator": "linear", "n_points": n_points, "weights": [1.0, -0.5]}


LINREG = {
    "seed": 3,
    "model": {"family": "bayes-linreg", "n_features": 2},
    "sources": [_linear(10), _linear(6)],
    "validation": _linear(20),
}
BERNOULLI = {
    "seed": 1,
    "repeats": 2,
    "model": {"family": "beta-bernoulli"},
    "sources": [
        {"generator": "bernoulli", "n_points": 8, "p": 0.7},
        {"generator": "bernoulli", "n_points": 5, "p": 0.4},
    ],
    "validation": {"generator": "bernoulli", "n_points": 12, "p": 0.7},
}
GP = {
    "seed": 2,
    "model": {"family": "gp"},
    "sources": [{"generator": "friedman", "n_points": 8}, {"generator": "friedman", "n_points": 5}],
    "validation": {"generator": "friedman", "n_points": 10},
}


@pytest.mark.parametrize("statement", IMPORTS)
def test_no_heavy_scipy_submodule_is_imported(statement):
    loaded = _loaded_scipy(statement)
    assert [m for m in HEAVY_SCIPY if m in loaded] == []


@pytest.mark.parametrize("statement", IMPORTS)
def test_import_loads_no_scipy(statement):
    loaded = _loaded_scipy(statement)
    assert loaded == [], f"{statement!r} loaded {loaded}"


def test_one_repeat_linear_regression_run_loads_no_scipy(tmp_path):
    loaded = _loaded_scipy(_cli_run(tmp_path, LINREG))
    assert loaded == [], f"the run loaded {loaded}"


def test_sampled_linear_regression_grid_loads_no_scipy(tmp_path):
    # The shape of the 20-source benchmark: a strategy grid on raw outputs,
    # whose points share the coalitions without the swept source.
    cfg = {
        **LINREG,
        "estimator": {"kind": "sampled", "permutations": 10},
        "standardize_outputs": False,
        "sweep": {"axis": "strategy-grid", "source": 0, "values": ["truthful", "duplicate"]},
    }
    loaded = _loaded_scipy(_cli_run(tmp_path, cfg))
    assert loaded == [], f"the run loaded {loaded}"


@pytest.mark.parametrize("dvf", ["cardinality", "info-gain"])
def test_linear_regression_baseline_run_loads_no_scipy(tmp_path, dvf):
    # The stacked baseline formulas are numpy alone.
    loaded = _loaded_scipy(_cli_run(tmp_path, {**LINREG, "validation": None, "dvf": dvf}))
    assert loaded == [], f"the {dvf} run loaded {loaded}"


@pytest.mark.parametrize(
    "cfg, wanted, unwanted",
    [
        (BERNOULLI, "scipy.special", "scipy.linalg"),
        (GP, "scipy.linalg", "scipy.special"),
    ],
    ids=["beta-bernoulli", "gp"],
)
def test_run_loads_only_the_scipy_it_executes(tmp_path, cfg, wanted, unwanted):
    loaded = _loaded_scipy(_cli_run(tmp_path, cfg))
    assert wanted in loaded and unwanted not in loaded, f"the run loaded {loaded}"
