"""Smoke test: the narrative demos run to completion against the package.

Demo 04 is left out: it runs a full head-to-head comparison (about 40 s)
and writes a results directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_benchmark_suite.py", "02_rbf_surrogate.py", "03_surrogate_run.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.split("_")[0] for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
