"""Chaos suite: randomized composite fault schedules against the full loop.

Each scenario arms a seeded cocktail of crash, straggler, partition and
corruption models (plus speculation and retries) and runs a complete
``TuningLoop`` study.  The point is not any single fault path but the
*composition*: whatever interleaving a seed produces, the study must finish
on the surviving workers, the optimizer must see exactly one accepted and
finite result per sample slot, and no fenced or quarantined value may leak
into the datastore.  A final scenario re-checks the signature guarantee —
the all-``"none"`` cocktail with the validator armed is bit-for-bit inert.
"""

import math

import numpy as np
import pytest

from repro.cloud import Cluster
from repro.core import (
    EventLog,
    ExecutionEngine,
    RetryPolicy,
    TunaSampler,
    TuningLoop,
    build_corruption_model,
)
from repro.faults import build_crash_model, build_fault_model, build_partition_model
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC

#: Seeds driving both the scenario knobs and the injected fault streams.
CHAOS_SEEDS = [2, 19, 46, 73, 88]


def build_sampler(seed, n_workers):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    opt = RandomSearchOptimizer(system.knob_space, seed=seed)
    return TunaSampler(opt, execution, cluster, seed=seed), cluster


def chaos_kwargs(seed):
    """Derive a composite fault cocktail from the scenario seed."""
    rng = np.random.default_rng(seed)
    kwargs = dict(
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
    return kwargs


class TestChaosSchedules:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_study_survives_a_composite_schedule(self, seed, tmp_path):
        log_path = str(tmp_path / "events.jsonl")
        sampler, cluster = build_sampler(seed, n_workers=12)
        max_samples = 40
        loop = TuningLoop(
            sampler,
            max_samples=max_samples,
            batch_size=6,
            event_log=EventLog(log_path),
            **chaos_kwargs(seed),
        )
        result = loop.run()

        # The study ran to completion on whatever workers survived.
        samples = sampler.datastore.all_samples()
        assert result.n_samples >= max_samples
        assert len(samples) == result.n_samples
        assert result.best_config is not None

        # Every value the optimizer saw is finite: nothing fenced, zombie
        # or quarantined leaked through.
        assert all(math.isfinite(s.value) for s in samples)

        # The event log agrees with the reported stats, and exactly one
        # accepted completion backs each datastore sample.
        events = EventLog.replay(log_path)
        stats = result.engine_stats
        by_kind = {}
        for event in events:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
        assert by_kind.get("suspect", 0) == stats["n_suspected"]
        assert by_kind.get("zombie_rejected", 0) == stats["n_zombies_rejected"]
        assert by_kind.get("quarantined", 0) == stats["n_quarantined"]
        assert (
            stats["n_quarantined"]
            == stats["n_quarantine_retries"] + stats["n_quarantine_penalized"]
        )
        # Every datastore sample is backed by exactly one accepted
        # completion or one exhausted-budget crash-penalty landing.
        accepted = [e for e in events if e["kind"] == "complete"]
        assert len(accepted) + stats["n_exhausted"] == len(samples)
        # No item completes twice, and no fenced epoch ever completes.
        completed_items = [e["item"] for e in accepted]
        assert len(set(completed_items)) == len(completed_items)
        fenced = {e["item"] for e in events if e["kind"] == "lease_fence"}
        assert fenced.isdisjoint(completed_items)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_chaos_schedules_are_reproducible(self, seed):
        def run():
            sampler, _ = build_sampler(seed, n_workers=12)
            result = TuningLoop(
                sampler, max_samples=30, batch_size=6, **chaos_kwargs(seed)
            ).run()
            return (
                [(s.worker_id, s.value, s.iteration) for s in
                 sampler.datastore.all_samples()],
                result.wall_clock_hours,
                result.engine_stats,
            )

        assert run() == run()

    def test_none_cocktail_with_validation_is_bit_for_bit_inert(self):
        def run(**extra):
            sampler, cluster = build_sampler(7, n_workers=10)
            result = TuningLoop(
                sampler, max_samples=30, batch_size=5, **extra
            ).run()
            trajectory = [
                (s.worker_id, s.value, s.iteration, s.budget, s.crashed)
                for s in sampler.datastore.all_samples()
            ]
            clocks = [vm.clock_hours for vm in cluster.workers]
            return trajectory, result.wall_clock_hours, clocks

        plain = run()
        armed = run(
            crash_model="none",
            partition_model="none",
            corruption_model="none",
            lease_timeout=0.25,
            validation=True,
            retry_policy=RetryPolicy(),
        )
        assert plain == armed
