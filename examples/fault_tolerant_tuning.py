#!/usr/bin/env python3
"""Crash faults, durable event log, and checkpoint/resume.

This example exercises the whole crash-fault subsystem end to end:

1. A tuning study runs with seeded fail-stop crash injection (transient
   mid-run errors) and a retry policy — failed runs are resubmitted to a
   different worker with capped exponential backoff, while every event
   (submit/complete/fail/retry/sample/checkpoint) is appended to a durable
   JSONL write-ahead log.
2. The study is *killed* at a wave boundary (``stop_after_waves``), exactly
   like a tuning process dying mid-run.
3. It is resurrected with :meth:`TuningLoop.resume` from the event log's
   last checkpoint and runs to completion.
4. An uninterrupted twin (same seeds, no kill) runs for comparison, and the
   two sample trajectories are diffed — the diff must be empty: recovery is
   bit-for-bit, not merely approximate.

Run with:  python examples/fault_tolerant_tuning.py
"""

import os
import tempfile

from repro.cloud import Cluster
from repro.core import (
    EventLog,
    ExecutionEngine,
    RetryPolicy,
    StudyInterrupted,
    TunaSampler,
    TuningLoop,
)
from repro.faults import build_crash_model
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC

SEED = 90
MAX_SAMPLES = 40
BATCH_SIZE = 5
KILL_AFTER_WAVES = 3


def make_sampler() -> TunaSampler:
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=10, seed=SEED)
    execution = ExecutionEngine(system, TPCC, seed=SEED)
    optimizer = RandomSearchOptimizer(system.knob_space, seed=SEED)
    return TunaSampler(optimizer, execution, cluster, seed=SEED)


def trajectory(sampler: TunaSampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget, s.crashed)
        for s in sampler.datastore.all_samples()
    ]


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="fault_tolerant_tuning_")
    log_path = os.path.join(workdir, "events.jsonl")
    ckpt_path = os.path.join(workdir, "study.ckpt")

    def crash_kwargs() -> dict:
        # Built per study: a crash model carries its RNG streams.
        return dict(
            crash_model=build_crash_model("transient", seed=3),
            retry_policy=RetryPolicy(max_retries=2, backoff_hours=0.05),
        )

    # -- arm 1: run with crash injection, kill mid-study ------------------
    print(f"[1] durable study with crash injection -> {log_path}")
    try:
        TuningLoop(
            make_sampler(),
            max_samples=MAX_SAMPLES,
            batch_size=BATCH_SIZE,
            event_log=log_path,
            checkpoint_path=ckpt_path,
            stop_after_waves=KILL_AFTER_WAVES,
            **crash_kwargs(),
        ).run()
        raise SystemExit("the kill switch never fired — nothing to resume")
    except StudyInterrupted as exc:
        print(f"    killed: {exc}")

    # -- arm 2: resurrect from the event log and finish --------------------
    print("[2] resuming from the event log's last checkpoint")
    resumed_loop = TuningLoop.resume(log_path)
    resumed = resumed_loop.run()
    print(
        f"    resumed study finished: {resumed.n_samples} samples, "
        f"makespan {resumed.wall_clock_hours:.3f} h"
    )

    # -- arm 3: uninterrupted twin on the same seeds -----------------------
    print("[3] uninterrupted twin (same seeds, no kill)")
    twin_sampler = make_sampler()
    twin = TuningLoop(
        twin_sampler,
        max_samples=MAX_SAMPLES,
        batch_size=BATCH_SIZE,
        **crash_kwargs(),
    ).run()
    print(
        f"    twin finished: {twin.n_samples} samples, "
        f"makespan {twin.wall_clock_hours:.3f} h"
    )

    # -- the acceptance test: recovered == uninterrupted, bit for bit ------
    recovered = trajectory(resumed_loop.sampler)
    uninterrupted = trajectory(twin_sampler)
    diff = [
        (i, a, b)
        for i, (a, b) in enumerate(zip(recovered, uninterrupted))
        if a != b
    ]
    if len(recovered) != len(uninterrupted):
        diff.append(("length", len(recovered), len(uninterrupted)))
    print()
    print(f"recovered-vs-uninterrupted trajectory diff: {diff!r}")
    assert not diff, "resume must reproduce the uninterrupted trajectory"
    assert resumed.wall_clock_hours == twin.wall_clock_hours
    assert resumed.best_config == twin.best_config
    print("-> empty: the resumed study is bit-for-bit the uninterrupted one")

    stats = resumed.engine_stats or {}
    print(
        "crash bookkeeping: "
        f"{stats.get('n_failures', 0)} failures injected, "
        f"{stats.get('n_retries', 0)} retries, "
        f"{stats.get('n_exhausted', 0)} retry budgets exhausted, "
        f"{stats.get('n_workers_dead', 0)} workers lost."
    )
    events = EventLog.replay(log_path)
    kinds = {}
    for event in events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    print(f"event log replays cleanly: {len(events)} events {kinds}")


if __name__ == "__main__":
    main()
