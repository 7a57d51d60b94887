"""Smoke test: every demo the README points to runs to completion."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_readme_lists_exactly_the_demos():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\S+\.py)`", section)
    assert sorted(listed) == [d.name for d in sorted((ROOT / "demos").glob("*.py"))]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
