"""A study's import closure holds no scipy, no test machinery, no numpy.ma.

Importing ``scipy.special`` (which pulls in ``numpy.testing`` and
``unittest``) once cost about half of a study's start-up, for a single
normal-CDF call in expected improvement, and ``np.quantile`` in the
straggler detector imported ``numpy.ma`` in the middle of every study with
speculation armed.  The runtime needs numpy's core only; each probe runs a
short study in a fresh interpreter and fails if any of those modules is
loaded again.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

FORBIDDEN_PREFIXES = ("scipy", "unittest", "numpy.testing", "numpy.ma")

_PROBE = textwrap.dedent(
    """
    import json
    import sys

    import repro
    import repro.core
    import repro.core.tuner
    import repro.optimizers
    from repro.cloud import Cluster
    from repro.core import ExecutionEngine, TunaSampler, TuningLoop
    from repro.faults import SpeculationPolicy
    from repro.optimizers import build_optimizer
    from repro.systems import PostgreSQLSystem
    from repro.workloads import TPCC

    system = PostgreSQLSystem()
    optimizer = build_optimizer(
        "smac", system.knob_space, seed=3, n_initial_design=3, n_candidates=40
    )
    sampler = TunaSampler(
        optimizer,
        ExecutionEngine(system, TPCC, seed=3),
        Cluster(n_workers=10, seed=3),
        seed=3,
    )
    TuningLoop(sampler, max_samples={max_samples}, {loop_kwargs}).run()
    print(json.dumps(sorted(sys.modules)))
    """
)

#: Probe name -> (sample budget, extra ``TuningLoop`` keyword arguments).
PROBES = {
    "smac-batch-2": (16, "batch_size=2"),
    "smac-batch-4-speculation": (40, "batch_size=4, speculation=SpeculationPolicy()"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_study_imports_no_scipy_test_machinery_or_numpy_ma(probe):
    max_samples, loop_kwargs = PROBES[probe]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _PROBE.format(max_samples=max_samples, loop_kwargs=loop_kwargs),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "repro.optimizers.smac" in modules
    leaked = [
        name
        for name in modules
        if any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in FORBIDDEN_PREFIXES
        )
    ]
    assert leaked == []
