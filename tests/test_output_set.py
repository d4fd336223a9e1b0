"""The fixed output set of ``tools/output_set.py`` still has the digests
recorded in ``tools/output_set.sha256``, so a change that claims to leave
outputs byte-identical is checked by the suite, not by hand.

The digests depend on the environment as well as on the code: the record's
``#`` lines name it, and where a fresh run names another environment the
test skips and says what differs. A change that alters outputs on purpose
rewrites the record (see the tool's docstring)."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _split(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines()
    return ([line for line in lines if line.startswith("#")],
            [line for line in lines if not line.startswith("#")])


def test_output_set_matches_recorded_digests(tmp_path):
    run = subprocess.run([sys.executable, str(TOOLS / "output_set.py"), str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    env, digests = _split(run.stdout)
    recorded_env, recorded = _split((TOOLS / "output_set.sha256").read_text())
    if env != recorded_env:
        pytest.skip(f"environment differs from the record: {sorted(set(recorded_env) - set(env))}"
                    f" recorded, {sorted(set(env) - set(recorded_env))} here")
    assert len(recorded) == 45
    assert digests == recorded
