"""Microbenchmark — heterogeneity-aware placement on a mixed-region fleet.

Like the async-engine benchmark, this file guards a *performance property*
of the reproduction rather than a figure of the paper: on a fleet mixing
fast (D16s_v5), reference (D8s_v5) and previous-generation (D8s_v4) SKUs
across three regions, the scheduler's heterogeneity-aware placement —
throughput-normalised queue depth plus region diversity — must reach the
same sample budget in measurably less simulated wall-clock than naive FIFO
round-robin placement.  Both runs share seeds, fleet, optimizer and budget,
so the makespan gap is attributable to placement alone.

The benchmark also re-asserts the homogeneous reduction at reduced scale: a
multi-group fleet spec whose groups all name one region/SKU must reproduce
the plain homogeneous cluster's trajectory bit-for-bit under the same seeds.

All makespans are *simulated* hours — deterministic for a fixed seed, so
the asserted speedup is exact, not a flaky wall-clock measurement.

A second, wall-clock gate guards placement's *host* cost: the median time of
one ``assign`` call (budget 10) on 3-region fleets of 100, 300 and 1,000
workers, and the log-log slope of that time against fleet size.  Placement
selects from per-region sorted heads, so the slope must stay near-linear
(<= 1.2); a full greedy rank of every eligible worker would scale as ~2.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_heterogeneous.py -q -s
"""

import time

import numpy as np
from bench_artifacts import write_bench_json

from repro.cloud import Cluster, FleetSpec
from repro.core import ExecutionEngine, MultiFidelityTaskScheduler, TunaSampler, TuningLoop
from repro.experiments import run_mixed_fleet_study
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC

MAX_SAMPLES = 80
SEED = 23
#: FIFO-over-aware makespan ratio the mixed fleet must sustain (measured
#: 1.13-1.28x across seeds; the run is deterministic at SEED).
SPEEDUP_TARGET = 1.10
#: Fleet sizes of the placement-scaling gate, and the assign budget.
SCALING_FLEETS = (100, 300, 1000)
SCALING_BUDGET = 10
SCALING_CALLS = 200
#: Ceiling on the log-log slope of assign time vs fleet size.
SCALING_SLOPE_MAX = 1.2


def _trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget)
        for s in sampler.datastore.all_samples()
    ]


def _run_gate(fleet=None, seed=SEED + 1, max_samples=25):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=10, seed=seed, fleet=fleet)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    optimizer = RandomSearchOptimizer(system.knob_space, seed=seed)
    sampler = TunaSampler(optimizer, execution, cluster, seed=seed)
    TuningLoop(sampler, max_samples=max_samples, batch_size=1).run()
    return sampler


def _scaling_scheduler(n_workers):
    """A scheduler over a 3-region, 3-SKU fleet of ``n_workers``."""
    third = n_workers // 3
    fleet = FleetSpec.of(
        [
            ("westus2", "Standard_D16s_v5", third),
            ("eastus", "Standard_D8s_v5", third),
            ("centralus", "Standard_D8s_v4", n_workers - 2 * third),
        ]
    )
    return MultiFidelityTaskScheduler(Cluster(seed=SEED, fleet=fleet), seed=SEED)


def _assign_ms():
    """Median host ms of one ``assign`` per fleet size in ``SCALING_FLEETS``.

    Calls on the different fleet sizes are interleaved, so machine-speed
    drift during the measurement lands on every size alike instead of
    tilting the slope.
    """
    schedulers = [_scaling_scheduler(n) for n in SCALING_FLEETS]
    config = PostgreSQLSystem().knob_space.default_configuration()
    times = [[] for _ in SCALING_FLEETS]
    for _ in range(SCALING_CALLS):
        for scheduler, samples in zip(schedulers, times):
            start = time.perf_counter()
            chosen = scheduler.assign(config, SCALING_BUDGET, [])
            samples.append(time.perf_counter() - start)
            scheduler.reserve([vm.vm_id for vm in chosen])  # queues grow, as in a study
    return [1e3 * float(np.median(samples)) for samples in times]


def test_bench_heterogeneous_placement(once):
    def run():
        comparison = run_mixed_fleet_study(max_samples=MAX_SAMPLES, seed=SEED)

        # Homogeneous reduction gate: a fleet spec split into several groups
        # of one and the same SKU/region is still the homogeneous cluster.
        split_fleet = FleetSpec.of(
            [
                ("westus2", "Standard_D8s_v5", 4),
                ("westus2", "Standard_D8s_v5", 6),
            ]
        )
        plain = _run_gate(fleet=None)
        split = _run_gate(fleet=split_fleet)

        return {
            "comparison": comparison,
            "reduction_identical": _trajectory(plain) == _trajectory(split),
            "assign_ms": _assign_ms(),
        }

    result = once(run)
    comparison = result["comparison"]
    aware, fifo = comparison.treated, comparison.reference

    print("\nHeterogeneous fleet placement (10 workers, 3 regions, 3 SKUs)")
    for summary in (aware, fifo):
        per_sku = ", ".join(
            f"{sku.removeprefix('Standard_')}={count}"
            for sku, count in sorted(summary.samples_per_sku.items())
        )
        print(
            f"  {summary.label:>14}: {summary.n_samples:>3} samples"
            f" -> {summary.makespan_hours:6.3f} simulated hours  ({per_sku})"
        )
    print(
        f"  makespan speedup over FIFO: {comparison.makespan_ratio:.2f}x"
        f" (target {SPEEDUP_TARGET}x)"
    )
    print(f"  one-SKU fleet reduces to homogeneous path: {result['reduction_identical']}")
    assign_ms = result["assign_ms"]
    slope = float(np.polyfit(np.log(SCALING_FLEETS), np.log(assign_ms), 1)[0])
    print(f"  assign (budget {SCALING_BUDGET}) median host ms by fleet size:")
    for n_workers, ms in zip(SCALING_FLEETS, assign_ms):
        print(f"    {n_workers:>5} workers: {ms:7.3f} ms")
    print(f"  log-log slope: {slope:.2f} (ceiling {SCALING_SLOPE_MAX})")

    write_bench_json(
        "heterogeneous",
        {
            "makespan_speedup": comparison.makespan_ratio,
            "speedup_target": SPEEDUP_TARGET,
            "heterogeneity_makespan_hours": aware.makespan_hours,
            "fifo_makespan_hours": fifo.makespan_hours,
            "heterogeneity_samples": aware.n_samples,
            "fifo_samples": fifo.n_samples,
            "samples_per_sku": aware.samples_per_sku,
            "samples_per_region": aware.samples_per_region,
            "reduction_identical": result["reduction_identical"],
            "assign_ms_1k": assign_ms[-1],
            "assign_scaling_slope": slope,
            "assign_scaling_slope_max": SCALING_SLOPE_MAX,
        },
        parameters={
            "seed": SEED,
            "max_samples": MAX_SAMPLES,
            "n_workers": 10,
            "scaling_fleets": list(SCALING_FLEETS),
            "scaling_budget": SCALING_BUDGET,
            "scaling_calls": SCALING_CALLS,
        },
    )

    assert result["reduction_identical"], (
        "a multi-group fleet of a single region/SKU must reproduce the "
        "homogeneous cluster trajectory bit-for-bit under a fixed seed"
    )
    assert aware.n_samples >= MAX_SAMPLES
    assert fifo.n_samples >= MAX_SAMPLES
    assert comparison.makespan_ratio >= SPEEDUP_TARGET, (
        f"heterogeneity-aware placement only {comparison.makespan_ratio:.2f}x "
        f"faster than naive FIFO placement (target {SPEEDUP_TARGET}x)"
    )
    assert slope <= SCALING_SLOPE_MAX, (
        f"assign host time grows as fleet^{slope:.2f} "
        f"(ceiling {SCALING_SLOPE_MAX}): placement has gone superlinear"
    )
