"""The benchmark's contract with the package, at its self-test size.

Each workload's traced child (``perfbench/child.py``) runs once in a fresh
process, as ``perfbench/run.py`` runs it: the experiment must not raise,
every run's output checks must hold, and the traced counts must agree
with the run's own (``check_fidelity``), every charged evaluation counted
as one ``BenchmarkFunction.evaluate`` call. A change that breaks the
tracer's patches, or that charges the objective by another path, fails
here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = perfbench_run()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_child_passes_its_checks_and_counts_every_charged_evaluation(workload, tmp_path):
    config = run.workload_config(workload, 1, True)
    job = {"root": str(ROOT), "config": {**config, "out": str(tmp_path / "out")},
           "traced": True, "fault": None}
    done = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), json.dumps(job)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    reply = json.loads(done.stdout.strip().splitlines()[-1])
    assert reply["error"] is None
    assert reply["runs"] and all(r["problems"] == [] for r in reply["runs"])
    assert run.check_fidelity([reply["layers"]], [reply]) == []
