"""Smoke runs of the example scripts that drive the public fault API.

``examples/fault_tolerant_tuning.py`` (crash injection + recovery) and
``examples/straggler_mitigation.py`` (heavy-tail stragglers + speculation)
are the fault subsystem's end-user callers; each must run to completion
(about a second apiece) with exit code 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["fault_tolerant_tuning.py", "straggler_mitigation.py"]
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
