"""The three study workloads of the end-to-end benchmark.

Each workload is one full, seeded TUNA study (``TunaSampler`` + SMAC on the
asynchronous driver, closed loop: the driver submits only while in-flight
samples are below ``batch_size``).  They exist because they load different
layers of the stack:

* ``paper-mssales-10`` -- the paper's headline setting.  Host time goes to
  SMAC refits, noise-adjuster retrains and the candidate pool; placement and
  the engine are negligible, so a placement change must not move it.
* ``fleet-mixed-500`` -- a 500-worker mixed fleet.  Greedy O(n^2) placement
  and the 525-feature noise adjuster dominate; SMAC is small.
* ``chaos-durable-50`` -- every fault family armed, plus the event log and a
  checkpoint every wave: the only workload with durability writes and fault
  paths beside the same tuner reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cloud import Cluster, FleetSpec
from repro.core import RetryPolicy, TunaSampler, TuningLoop
from repro.core.execution import ExecutionEngine
from repro.core.validation import CorruptResultModel, ResultValidator
from repro.faults import (
    CompositePartitionModel,
    LognormalTailModel,
    PartitionOutageModel,
    SpeculationPolicy,
    StallModel,
    TransientCrashModel,
)
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload


@dataclass(frozen=True)
class StudySpec:
    """Static shape of one workload's study."""

    system: str
    workload: str
    fleet: Tuple[Tuple[str, str, int], ...]
    batch_size: int
    max_samples: int
    chaos: bool = False


#: Sample budgets are sized so that several studies fit one benchmark run
#: while each workload's dominant layer stays dominant.
SPECS: Dict[str, StudySpec] = {
    "paper-mssales-10": StudySpec(
        system="postgres",
        workload="mssales",
        fleet=(("westus2", "Standard_D8s_v5", 10),),
        batch_size=10,
        max_samples=150,
    ),
    "fleet-mixed-500": StudySpec(
        system="postgres",
        workload="tpcc",
        fleet=(
            ("westus2", "Standard_D16s_v5", 150),
            ("eastus", "Standard_D8s_v5", 200),
            ("centralus", "Standard_D8s_v4", 150),
        ),
        batch_size=50,
        max_samples=120,
    ),
    "chaos-durable-50": StudySpec(
        system="postgres",
        workload="tpcc",
        fleet=(("westus2", "Standard_D8s_v5", 50),),
        batch_size=20,
        max_samples=150,
        chaos=True,
    ),
}

#: Deployment protocol of the paper (section 6): the chosen configuration
#: runs on this many never-seen nodes.
DEPLOY_NODES = 10

#: Lease timeout of the chaos workload, as in the gray-degradation study:
#: longer than a mean stall, far shorter than a mean outage.
CHAOS_LEASE_HOURS = 0.15


@dataclass
class Study:
    """Everything built before ``run()``: the part timed as set-up."""

    spec: StudySpec
    seed: int
    system: object
    workload: object
    cluster: Cluster
    sampler: TunaSampler
    loop: TuningLoop


def _chaos_kwargs(seed: int, workdir: str) -> Dict:
    """All four fault families, speculation, retries, leases, validation,
    and durability (event log + a checkpoint every wave)."""
    return dict(
        fault_model=LognormalTailModel(seed=seed + 1, rate=0.06, scale=6.0, sigma=0.6),
        speculation=SpeculationPolicy(),
        crash_model=TransientCrashModel(seed=seed + 2, rate=0.08),
        retry_policy=RetryPolicy(),
        partition_model=CompositePartitionModel(
            [
                StallModel(seed=seed + 3, rate=0.05, mean_stall_hours=0.1),
                PartitionOutageModel(seed=seed + 4, rate=0.03, mean_outage_hours=2.0),
            ]
        ),
        lease_timeout=CHAOS_LEASE_HOURS,
        validation=ResultValidator(),
        corruption_model=CorruptResultModel(seed=seed + 5, rate=0.05),
        event_log=os.path.join(workdir, "events.jsonl"),
        checkpoint_path=os.path.join(workdir, "study.ckpt"),
        checkpoint_every=1,
    )


def build_study(name: str, seed: int, workdir: str) -> Study:
    """Build system, fleet, optimizer, sampler and loop for one study;
    durable state (the chaos workload's event log and checkpoint) goes
    to ``workdir``."""
    spec = SPECS[name]
    system = get_system(spec.system)
    workload = get_workload(spec.workload)
    cluster = Cluster(seed=seed, fleet=FleetSpec.of(spec.fleet))
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer("smac", system.knob_space, seed=seed)
    sampler = TunaSampler(optimizer, execution, cluster, seed=seed)
    extra = _chaos_kwargs(seed, workdir) if spec.chaos else {}
    loop = TuningLoop(
        sampler, max_samples=spec.max_samples, batch_size=spec.batch_size, **extra
    )
    return Study(spec, seed, system, workload, cluster, sampler, loop)
