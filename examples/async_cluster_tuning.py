#!/usr/bin/env python3
"""Asynchronous batched tuning: keep all 10 workers busy at once.

`TuningLoop` drives the discrete-event cluster engine.  At the default
`batch_size=1` (lockstep) it evaluates one optimizer suggestion at a time,
so most of the cluster idles: a budget-1 sample occupies a single worker
while the other nine wait.  A larger `batch_size` keeps several
configurations in flight at once, the optimizer hands out batches via
constant-liar fantasies, and the run's wall-clock is the makespan of the
busiest worker.

This example runs the same TUNA pipeline both ways at the same sample
budget and prints the simulated wall-clock each mode needed.

Run with:  python examples/async_cluster_tuning.py
"""

from repro import (
    Cluster,
    ExecutionEngine,
    TunaSampler,
    TuningLoop,
    build_optimizer,
    get_system,
    get_workload,
)

SEED = 42
N_WORKERS = 10
SAMPLE_BUDGET = 60


def tune(batch_size):
    system = get_system("postgres")
    workload = get_workload("tpcc")
    cluster = Cluster(n_workers=N_WORKERS, seed=SEED)
    execution = ExecutionEngine(system, workload, seed=SEED)
    optimizer = build_optimizer("smac", system.knob_space, seed=SEED)
    sampler = TunaSampler(optimizer, execution, cluster, seed=SEED)
    result = TuningLoop(
        sampler, max_samples=SAMPLE_BUDGET, batch_size=batch_size
    ).run()
    return result, workload


def main() -> None:
    sequential, workload = tune(batch_size=1)
    batched, _ = tune(batch_size=N_WORKERS)

    print(f"TUNA on postgres/tpcc, {N_WORKERS} workers, {SAMPLE_BUDGET}-sample budget")
    print(
        f"  sequential : {sequential.n_samples:3d} samples in "
        f"{sequential.wall_clock_hours:5.2f} simulated hours "
        f"({sequential.n_iterations} iterations)"
    )
    print(
        f"  async x{N_WORKERS:2d}  : {batched.n_samples:3d} samples in "
        f"{batched.wall_clock_hours:5.2f} simulated hours "
        f"({batched.n_iterations} iterations)"
    )
    print(
        f"  wall-clock speedup: "
        f"{sequential.wall_clock_hours / batched.wall_clock_hours:.1f}x"
    )
    unit = workload.objective.unit
    print(f"  best catalog value, sequential: {sequential.best_catalog_value:.0f} {unit}")
    print(f"  best catalog value, async     : {batched.best_catalog_value:.0f} {unit}")


if __name__ == "__main__":
    main()
