"""Smoke runs of the example scripts that drive the public study API.

``examples/fault_tolerant_tuning.py`` (crash injection + recovery),
``examples/straggler_mitigation.py`` (heavy-tail stragglers + speculation)
and ``examples/heterogeneous_fleet_tuning.py`` (mixed-fleet placement) are
the end-user callers of the fault subsystem and the A/B makespan studies;
each must run to completion (about a second apiece) with exit code 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "fault_tolerant_tuning.py",
        "straggler_mitigation.py",
        "heterogeneous_fleet_tuning.py",
    ],
)
def test_fault_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
