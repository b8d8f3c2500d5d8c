"""The engine's per-slot bookkeeping, pinned against golden trajectories.

Each pinned study arms a fault cocktail that drives every slot transition
of :class:`~repro.core.async_engine.AsyncExecutionEngine` — speculative
clones racing their original, crashes with retries, lease expiries with
zombie reports, quarantined values with re-measures — and is reduced to one
SHA-256 over two things:

* every event-log record after the ``open`` header, with provenance and
  filesystem fields dropped (git SHA, UTC timestamp, checkpoint paths, and
  the checkpoint's content digest, which hashes the pickled engine's
  private attribute layout rather than the trajectory);
* ``TuningResult.engine_stats``.

The event log records each submit, completion, failure, retry, clone,
cancel, suspicion, fence, zombie and quarantine with its item sequence,
worker and simulated time, so any change in how a slot moves through its
lifecycle moves the digest.  The digests were recorded before the engine's
bookkeeping was folded into one slot record, and must not change.

The same studies check the counter table against the event log: each
``engine_stats`` count equals the number of its event-log records.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cloud import Cluster, FleetSpec
from repro.core import EventLog, ExecutionEngine, RetryPolicy, TunaSampler, TuningLoop
from repro.core.validation import (
    CorruptResultModel,
    ResultValidator,
    build_corruption_model,
)
from repro.faults import (
    CompositePartitionModel,
    LognormalTailModel,
    PartitionOutageModel,
    SpeculationPolicy,
    StallModel,
    TransientCrashModel,
    build_crash_model,
    build_fault_model,
    build_partition_model,
)
from repro.optimizers import RandomSearchOptimizer, build_optimizer
from repro.systems import PostgreSQLSystem, get_system
from repro.workloads import TPCC, get_workload

#: Record fields that carry provenance or filesystem state, not trajectory.
UNPINNED_FIELDS = frozenset({"git_sha", "generated_at", "path", "sha256", "checkpoint"})

#: Digest per seed of the composite chaos cocktails (same seeds, knobs and
#: study shape as tests/chaos/test_chaos_schedules.py).
GOLDEN_CHAOS = {
    2: "93ea36f265aba0b9b6a6be8a86c0b22b6df50cd4cf59b2d86d99f77b84c7983a",
    19: "6e3e09f81f54b9f8b92b8a1db2bfb5a1962bebebb3dabc84de92e431ed05c97b",
    46: "80dc6a4e6470f9f84b46d2d53d62e23349f6a0ca11bb6693b350fc01d083d176",
    73: "630e60475b0d83c2afa352b4bbf78c283c843806feea2598eddc1604f11e728a",
    88: "4b9e9a95f77694f9aba7c392fc05dbeb4aae389243b29bab86e046b380f4f17d",
}

#: Digest of the durable 50-worker chaos study.
GOLDEN_DURABLE = "a0ac0ff53354b6c7bffb2fb4b2f2a3113666f74be910487cfffc6ca0bf3a45ae"


#: ``engine_stats`` count -> the event-log record kind it counts.
STAT_EVENTS = {
    "n_retries": "retry",
    "n_duplicates_submitted": "speculate",
    "n_failures": "fail",
    "n_suspected": "suspect",
    "n_zombies_rejected": "zombie_rejected",
    "n_quarantined": "quarantined",
    "n_items_cancelled": "cancel",
}


def study_digest(log_path, engine_stats):
    digest = hashlib.sha256()
    for event in EventLog.replay(log_path)[1:]:
        record = {k: v for k, v in event.items() if k not in UNPINNED_FIELDS}
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
    digest.update(json.dumps(engine_stats, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def chaos_kwargs(seed):
    """The composite cocktail of the chaos suite, frozen here."""
    rng = np.random.default_rng(seed)
    return dict(
        fault_model=build_fault_model("lognormal", seed=seed),
        speculation=bool(rng.random() < 0.5),
        crash_model=build_crash_model("transient", seed=seed + 1),
        partition_model=build_partition_model(
            "partition" if rng.random() < 0.5 else "flaky", seed=seed + 2
        ),
        lease_timeout=float(rng.uniform(0.02, 0.2)),
        corruption_model=build_corruption_model("corrupt_result", seed=seed + 3),
        validation=True,
        retry_policy=RetryPolicy(max_retries=int(rng.integers(2, 5))),
    )


def run_chaos_study(seed, workdir):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=12, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    opt = RandomSearchOptimizer(system.knob_space, seed=seed)
    sampler = TunaSampler(opt, execution, cluster, seed=seed)
    log_path = str(workdir / "events.jsonl")
    result = TuningLoop(
        sampler,
        max_samples=40,
        batch_size=6,
        event_log=EventLog(log_path),
        **chaos_kwargs(seed),
    ).run()
    return log_path, result.engine_stats


def run_durable_study(seed, workdir):
    """A chaos-durable-50-shaped study: PostgreSQL/TPC-C on 50 D8s_v5,
    batch 20, SMAC, every fault family armed, event log and a checkpoint
    every wave."""
    system = get_system("postgres")
    cluster = Cluster(
        seed=seed, fleet=FleetSpec.of((("westus2", "Standard_D8s_v5", 50),))
    )
    execution = ExecutionEngine(system, get_workload("tpcc"), seed=seed)
    optimizer = build_optimizer("smac", system.knob_space, seed=seed)
    sampler = TunaSampler(optimizer, execution, cluster, seed=seed)
    log_path = str(workdir / "events.jsonl")
    result = TuningLoop(
        sampler,
        max_samples=150,
        batch_size=20,
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
        lease_timeout=0.15,
        validation=ResultValidator(),
        corruption_model=CorruptResultModel(seed=seed + 5, rate=0.05),
        event_log=log_path,
        checkpoint_path=str(workdir / "study.ckpt"),
        checkpoint_every=1,
    ).run()
    return log_path, result.engine_stats


@pytest.fixture(scope="module", params=sorted(GOLDEN_CHAOS))
def chaos_study(request, tmp_path_factory):
    """One chaos cocktail run per seed, shared by the pin and the counts."""
    seed = request.param
    return seed, run_chaos_study(seed, tmp_path_factory.mktemp(f"chaos{seed}"))


@pytest.fixture(scope="module")
def durable_study(tmp_path_factory):
    return run_durable_study(1, tmp_path_factory.mktemp("durable"))


def assert_counts_match_event_log(log_path, engine_stats):
    kinds = [event["kind"] for event in EventLog.replay(log_path)]
    for stat, kind in STAT_EVENTS.items():
        if stat in engine_stats:
            assert engine_stats[stat] == kinds.count(kind), (stat, kind)


def test_chaos_cocktail_trajectory_is_pinned(chaos_study):
    seed, (log_path, engine_stats) = chaos_study
    assert study_digest(log_path, engine_stats) == GOLDEN_CHAOS[seed]


def test_chaos_cocktail_counts_match_event_log(chaos_study):
    _, (log_path, engine_stats) = chaos_study
    assert_counts_match_event_log(log_path, engine_stats)


def test_durable_chaos_study_trajectory_is_pinned(durable_study):
    assert study_digest(*durable_study) == GOLDEN_DURABLE


def test_durable_chaos_study_counts_match_event_log(durable_study):
    log_path, engine_stats = durable_study
    assert set(STAT_EVENTS) <= set(engine_stats)
    assert_counts_match_event_log(log_path, engine_stats)
