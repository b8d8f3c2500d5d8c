"""A/B makespan studies: one mitigation against its reference arm.

Each study runs the same tuning workload twice on the same seeds, fleet,
optimizer and **accepted**-sample budget, changing one thing between the
arms, so the makespan gap is attributable to that change alone:

==========================  ===================  ======================
entry point                 reference arm        treated arm
==========================  ===================  ======================
``run_straggler_study``     no speculation       speculative re-execution
``run_resilience_study``    fault-free           crashes + retry/backoff
``run_graydeg_study``       fault-free           gray faults + leases,
                                                 fencing and quarantine
``run_mixed_fleet_study``   FIFO placement       heterogeneity-aware
==========================  ===================  ======================

Every comparison reports one ratio, reference makespan over treated
makespan: above 1 the treatment is a speedup (speculation, placement);
under injected faults it is the share of the fault-free makespan retained.
A fault model is stateful, so every arm gets a freshly built one from the
same master seed: both arms face the same fault *process*, and their
trajectories diverge only once the treatment changes the submission
sequence.
"""

from __future__ import annotations

import textwrap
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.cloud.cluster import Cluster
from repro.cloud.fleet import FleetSpec
from repro.core.async_engine import RetryPolicy
from repro.core.execution import ExecutionEngine
from repro.core.samplers import TunaSampler
from repro.core.tuner import TuningLoop, TuningResult
from repro.core.validation import CorruptResultModel, ResultValidator
from repro.faults import (
    CompositePartitionModel,
    PartitionOutageModel,
    SpeculationPolicy,
    StallModel,
    build_crash_model,
    build_fault_model,
)
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload


@dataclass
class MakespanArm:
    """One tuning run of a comparison."""

    label: str
    result: TuningResult
    samples_per_sku: Dict[str, int]
    samples_per_region: Dict[str, int]

    @property
    def makespan_hours(self) -> float:
        return self.result.wall_clock_hours

    @property
    def n_samples(self) -> int:
        return self.result.n_samples

    @property
    def engine_stats(self) -> Dict[str, Any]:
        """Fault-path counts of the families armed in this run (empty when none)."""
        return self.result.engine_stats or {}


@dataclass
class MakespanComparison:
    """A treated arm against its reference on the same seeds and budget."""

    title: str
    reference: MakespanArm
    treated: MakespanArm

    @property
    def makespan_ratio(self) -> float:
        """Reference makespan over treated makespan (>1 = treated finished first)."""
        return self.reference.makespan_hours / self.treated.makespan_hours


def _run_arm(
    label: str,
    loop_kwargs: Dict[str, Any],
    *,
    seed: int,
    max_samples: int,
    batch_size: int,
    system_name: str,
    workload_name: str,
    optimizer_name: str,
    n_workers: int = 10,
    fleet_groups: Optional[Sequence[Tuple[str, str, int]]] = None,
    **sampler_kwargs: Any,
) -> MakespanArm:
    """One seeded study: ``n_workers`` alike, or the ``fleet_groups`` fleet."""
    system = get_system(system_name)
    workload = get_workload(workload_name)
    fleet = FleetSpec.of(fleet_groups) if fleet_groups is not None else None
    cluster = Cluster(n_workers=n_workers, seed=seed, fleet=fleet)
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer(optimizer_name, system.knob_space, seed=seed)
    sampler = TunaSampler(optimizer, execution, cluster, seed=seed, **sampler_kwargs)
    result = TuningLoop(
        sampler, max_samples=max_samples, batch_size=batch_size, **loop_kwargs
    ).run()
    per_sku: Counter = Counter()
    per_region: Counter = Counter()
    for sample in sampler.datastore.all_samples():
        vm = cluster.worker(sample.worker_id)
        per_sku[vm.sku.name] += 1
        per_region[vm.region.name] += 1
    return MakespanArm(label, result, dict(per_sku), dict(per_region))


#: Default heavy-tail parameters for the straggler study: stragglers are
#: *rare* (6 %) but *severe* (median tail stretch 7x, capped at 40x) — the
#: regime where a handful of events dominates the baseline makespan and
#: speculation has the most to recover, matching the long-tail shape of
#: interference-prone clusters.  Episodes are pinned to (worker, ~one-run
#: time windows), so both arms face the same fault field.
DEFAULT_HEAVY_TAIL: Dict = {
    "rate": 0.06,
    "scale": 6.0,
    "sigma": 0.6,
    "window_hours": 0.1,
}

#: Default crash regime: 8 % of submissions fail mid-run — enough that an
#: unprotected study would lose a meaningful fraction of its measurements,
#: while a working retry policy absorbs nearly all of it, since a retried
#: run costs one extra evaluation on an otherwise-idle worker.
DEFAULT_CRASH_REGIME: Dict = {"rate": 0.08}

#: Default composite gray regime: stalls are frequent-but-short, outages
#: rare-but-long (the case leases exist for), and one in twenty
#: measurements comes back as NaN/Inf garbage.
DEFAULT_GRAY_REGIME: Dict = {
    "stall_rate": 0.05,
    "mean_stall_hours": 0.1,
    "outage_rate": 0.03,
    "mean_outage_hours": 2.0,
    "corruption_rate": 0.05,
}

#: Default mixed fleet: current-generation large SKUs in the quiet region,
#: reference SKUs in the noisier one, previous-generation SKUs in the region
#: with the long tail of slow hosts (§6.2).  10 workers, like the paper.
DEFAULT_MIXED_FLEET: Tuple[Tuple[str, str, int], ...] = (
    ("westus2", "Standard_D16s_v5", 3),
    ("eastus", "Standard_D8s_v5", 4),
    ("centralus", "Standard_D8s_v4", 3),
)


def run_straggler_study(
    fault: str = "lognormal",
    fault_kwargs: Optional[Dict] = None,
    n_workers: int = 10,
    batch_size: int = 8,
    max_samples: int = 60,
    seed: int = 37,
    system_name: str = "postgres",
    workload_name: str = "tpcc",
    optimizer_name: str = "random",
    budgets: Tuple[int, ...] = (1, 3, 6),
    speculation: Optional[SpeculationPolicy] = None,
) -> MakespanComparison:
    """Speculation off (reference) vs on (treated) under an injected fault model.

    ``batch_size < n_workers`` on purpose: the in-flight watermark leaves a
    couple of workers idle on average, which is the capacity speculative
    duplicates race on — exactly how a real cluster would reserve headroom
    for mitigation.
    """
    if fault_kwargs is None and fault == "lognormal":
        fault_kwargs = DEFAULT_HEAVY_TAIL
    setup = dict(
        n_workers=n_workers,
        batch_size=batch_size,
        max_samples=max_samples,
        seed=seed,
        system_name=system_name,
        workload_name=workload_name,
        optimizer_name=optimizer_name,
        budgets=budgets,
    )

    def loop_kwargs(policy: "SpeculationPolicy | bool | None") -> Dict[str, Any]:
        model = build_fault_model(fault, seed=seed, **(fault_kwargs or {}))
        return {"fault_model": model, "speculation": policy}

    policy = speculation if speculation is not None else True
    return MakespanComparison(
        f"Straggler mitigation under the {fault!r} fault model",
        _run_arm("no-speculation", loop_kwargs(None), **setup),
        _run_arm("speculation", loop_kwargs(policy), **setup),
    )


def run_resilience_study(
    crash: str = "transient",
    crash_kwargs: Optional[Dict] = None,
    retry_policy: Optional[RetryPolicy] = None,
    n_workers: int = 10,
    batch_size: int = 8,
    max_samples: int = 60,
    seed: int = 37,
    system_name: str = "postgres",
    workload_name: str = "tpcc",
    optimizer_name: str = "random",
    budgets: Tuple[int, ...] = (1, 3, 6),
) -> MakespanComparison:
    """Fault-free (reference) vs crash-with-recovery (treated).

    Failed runs are resubmitted to a different worker with capped
    exponential backoff, dead workers are drained from the fleet, and
    exhausted retry budgets surface as crash-penalty samples; the ratio is
    the share of the fault-free makespan the recovery machinery retains.
    """
    if crash_kwargs is None and crash == "transient":
        crash_kwargs = DEFAULT_CRASH_REGIME
    setup = dict(
        n_workers=n_workers,
        batch_size=batch_size,
        max_samples=max_samples,
        seed=seed,
        system_name=system_name,
        workload_name=workload_name,
        optimizer_name=optimizer_name,
        budgets=budgets,
    )
    recovered = {
        "crash_model": build_crash_model(crash, seed=seed, **(crash_kwargs or {})),
        "retry_policy": retry_policy or RetryPolicy(),
    }
    return MakespanComparison(
        f"Crash resilience under the {crash!r} crash model",
        _run_arm("fault-free", {}, **setup),
        _run_arm("crash+recovery", recovered, **setup),
    )


def run_graydeg_study(
    regime: Optional[Dict] = None,
    lease_timeout: float = 0.15,
    retry_policy: Optional[RetryPolicy] = None,
    n_workers: int = 10,
    batch_size: int = 8,
    max_samples: int = 60,
    seed: int = 37,
    system_name: str = "postgres",
    workload_name: str = "tpcc",
    optimizer_name: str = "random",
    budgets: Tuple[int, ...] = (1, 3, 6),
) -> MakespanComparison:
    """Fault-free (reference) vs gray faults with recovery (treated).

    The treated arm suffers stalls, partitions and corrupted results with
    liveness leases, result validation and retries armed.  The default
    ``lease_timeout`` (0.15 h) is deliberately longer than the mean stall
    (0.1 h) and far shorter than the mean outage (2 h): ordinary stalls
    mostly ride out their lease, real partitions get fenced early enough
    that each episode costs one lease plus one re-measurement instead of
    the whole silence.
    """
    regime = dict(DEFAULT_GRAY_REGIME if regime is None else regime)
    setup = dict(
        n_workers=n_workers,
        batch_size=batch_size,
        max_samples=max_samples,
        seed=seed,
        system_name=system_name,
        workload_name=workload_name,
        optimizer_name=optimizer_name,
        budgets=budgets,
    )
    partitions = CompositePartitionModel(
        [
            StallModel(
                seed=seed,
                rate=regime["stall_rate"],
                mean_stall_hours=regime["mean_stall_hours"],
            ),
            PartitionOutageModel(
                seed=seed + 1,
                rate=regime["outage_rate"],
                mean_outage_hours=regime["mean_outage_hours"],
            ),
        ]
    )
    recovered = {
        "partition_model": partitions,
        "lease_timeout": lease_timeout,
        "validation": ResultValidator(),
        "corruption_model": CorruptResultModel(
            seed=seed + 2, rate=regime["corruption_rate"]
        ),
        "retry_policy": retry_policy or RetryPolicy(),
    }
    return MakespanComparison(
        "Gray-failure tolerance under the composite stall+partition+"
        "corruption regime",
        _run_arm("fault-free", {}, **setup),
        _run_arm("gray+recovery", recovered, **setup),
    )


def run_mixed_fleet_study(
    fleet_groups: Sequence[Tuple[str, str, int]] = DEFAULT_MIXED_FLEET,
    system_name: str = "postgres",
    workload_name: str = "tpcc",
    optimizer_name: str = "random",
    max_samples: int = 80,
    batch_size: int = 10,
    seed: int = 23,
) -> MakespanComparison:
    """FIFO (reference) vs heterogeneity-aware placement (treated).

    Tunes over a heterogeneous multi-region fleet; only the scheduler's
    placement policy differs, so the makespan gap is what
    heterogeneity-aware placement (prefer free fast workers, spread samples
    across regions) buys over naive round-robin.
    """
    setup = dict(
        fleet_groups=fleet_groups,
        system_name=system_name,
        workload_name=workload_name,
        optimizer_name=optimizer_name,
        max_samples=max_samples,
        batch_size=batch_size,
        seed=seed,
    )
    fleet = ", ".join(f"{count}x {sku}@{region}" for region, sku, count in fleet_groups)
    return MakespanComparison(
        f"Heterogeneous mixed-region fleet ({fleet}) — placement comparison",
        _run_arm("fifo", {}, placement="fifo", **setup),
        _run_arm("heterogeneity", {}, placement="heterogeneity", **setup),
    )


def format_makespan_report(comparison: MakespanComparison) -> str:
    """Text report: each arm's samples, makespan, per-SKU split and engine counts."""
    arms = (comparison.reference, comparison.treated)
    lines = [
        comparison.title,
        "",
        f"{'arm':>16} {'samples':>8} {'makespan (h)':>13}  samples per SKU",
    ]
    for arm in arms:
        per_sku = ", ".join(
            f"{sku}={count}" for sku, count in sorted(arm.samples_per_sku.items())
        )
        lines.append(
            f"{arm.label:>16} {arm.n_samples:>8} {arm.makespan_hours:>13.3f}  {per_sku}"
        )
    for arm in arms:
        if arm.engine_stats:
            counts = ", ".join(f"{k}={v:g}" for k, v in arm.engine_stats.items())
            lines += ["", textwrap.fill(f"{arm.label}: {counts}", subsequent_indent="  ")]
    lines += [
        "",
        f"makespan ratio, {arms[0].label} over {arms[1].label}: "
        f"{comparison.makespan_ratio:.3f}x",
    ]
    return "\n".join(lines)
