"""Tests for heterogeneous-fleet execution, placement and tell batching.

Covers per-worker durations (SKU baseline performance stretches slow
workers' timelines), the heterogeneity-aware scheduler ranking (free fast
workers first, queue-depth normalisation, region diversity), the naive FIFO
baseline, the one-SKU mixed-fleet reduction to the homogeneous path, and the
optimizer-side batching of ``tell``s per event-loop wave.
"""

import pytest
from sequential_oracle import run_iteration

from repro.cloud import Cluster, FleetSpec
from repro.configspace import Configuration
from repro.core import (
    AsyncExecutionEngine,
    ExecutionEngine,
    MultiFidelityTaskScheduler,
    TunaSampler,
    TuningLoop,
    WorkRequest,
)
from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
from repro.optimizers.base import Optimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC

MIXED_GROUPS = [
    ("westus2", "Standard_D16s_v5", 2),  # speed 1.45
    ("eastus", "Standard_D8s_v5", 2),    # speed 1.0
    ("centralus", "Standard_D8s_v4", 2), # speed 0.75
]


def make_mixed(seed=0, groups=MIXED_GROUPS):
    system = PostgreSQLSystem()
    cluster = Cluster(seed=seed, fleet=FleetSpec.of(groups))
    execution = ExecutionEngine(system, TPCC, seed=seed)
    optimizer = RandomSearchOptimizer(system.knob_space, seed=seed)
    return system, cluster, execution, optimizer


def sample_trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget)
        for s in sampler.datastore.all_samples()
    ]


class FixedOptimizer(Optimizer):
    def __init__(self, space, config, seed=None):
        super().__init__(space, seed=seed)
        self._config = config

    def ask(self) -> Configuration:
        return self._config


class TestPerWorkerDurations:
    def test_duration_scales_inversely_with_speed(self):
        _, cluster, execution, _ = make_mixed()
        base = execution.wall_clock_hours_per_evaluation
        fast, ref, slow = cluster.workers[0], cluster.workers[2], cluster.workers[4]
        assert execution.duration_hours_for(ref) == base
        assert execution.duration_hours_for(fast) == pytest.approx(base / 1.45)
        assert execution.duration_hours_for(slow) == pytest.approx(base / 0.75)

    def test_request_duration_is_the_slowest_worker(self):
        _, cluster, execution, _ = make_mixed()
        base = execution.wall_clock_hours_per_evaluation
        assert execution.request_duration_hours(cluster.workers) == pytest.approx(
            base / 0.75
        )
        assert execution.request_duration_hours([]) == 0.0

    def test_event_loop_uses_per_worker_durations(self):
        _, cluster, execution, _ = make_mixed()
        engine = AsyncExecutionEngine(execution, cluster)
        config = PostgreSQLSystem().knob_space.default_configuration()
        fast, slow = cluster.workers[0], cluster.workers[4]
        items = engine.submit(WorkRequest(config, 2, [fast, slow], 0))
        assert items[0].finish_hours == pytest.approx(engine.duration_for(fast))
        assert items[1].finish_hours == pytest.approx(engine.duration_for(slow))
        assert items[1].finish_hours > items[0].finish_hours
        engine.next_completed_request()
        # The makespan is dictated by the slow worker's stretched run.
        assert engine.makespan_hours == pytest.approx(engine.duration_for(slow))

    def test_mixed_fleet_makespan_exceeds_fast_only_fleet(self):
        # Same sample count on an all-fast fleet vs a mixed one: the mixed
        # fleet's slow SKU lengthens the run.
        def run(groups, seed=3):
            _, cluster, execution, optimizer = make_mixed(seed=seed, groups=groups)
            sampler = TunaSampler(
                optimizer, execution, cluster, seed=seed, budgets=(1, 2, 6)
            )
            return TuningLoop(sampler, max_samples=30, batch_size=6).run()

        fast_only = run([("westus2", "Standard_D16s_v5", 6)])
        mixed = run(MIXED_GROUPS)
        assert mixed.wall_clock_hours > fast_only.wall_clock_hours


class TestHeterogeneityAwarePlacement:
    def _scheduler(self, placement="heterogeneity", groups=MIXED_GROUPS, seed=0):
        _, cluster, _, _ = make_mixed(groups=groups)
        return cluster, MultiFidelityTaskScheduler(
            cluster, seed=seed, placement=placement
        )

    def _config(self):
        return PostgreSQLSystem().knob_space.default_configuration()

    def test_unknown_placement_rejected(self):
        _, cluster, _, _ = make_mixed()
        with pytest.raises(ValueError):
            MultiFidelityTaskScheduler(cluster, placement="lifo")

    def test_free_fast_workers_win(self):
        cluster, scheduler = self._scheduler()
        chosen = scheduler.assign(self._config(), 2, [])
        assert {vm.vm_id for vm in chosen} == {"worker-0", "worker-1"}
        assert all(vm.sku.name == "Standard_D16s_v5" for vm in chosen)

    def test_queue_depth_beats_raw_speed(self):
        # A fast worker with one queued sample has expected wait
        # 2/1.45 = 1.38, losing to a free reference worker (1.0) and even to
        # a free slow worker (1/0.75 = 1.33).
        cluster, scheduler = self._scheduler()
        scheduler.reserve(["worker-0", "worker-1"])
        chosen = scheduler.assign(self._config(), 2, [])
        assert {vm.vm_id for vm in chosen} == {"worker-2", "worker-3"}
        scheduler.reserve([vm.vm_id for vm in chosen])
        # Next pick: free slow (1.33) beats queued fast (1.38).
        third = scheduler.assign(self._config(), 1, [])
        assert third[0].sku.name == "Standard_D8s_v4"

    def test_samples_spread_across_regions(self):
        # Two equal-speed regions: once one region holds a sample of the
        # configuration, the other region is preferred for the next one.
        groups = [("westus2", "Standard_D8s_v5", 2), ("eastus", "Standard_D8s_v5", 2)]
        cluster, scheduler = self._scheduler(groups=groups)
        config = self._config()
        first = scheduler.assign(config, 1, [])
        second = scheduler.assign(config, 2, [vm.vm_id for vm in first])
        assert cluster.region_of(second[0].vm_id) != cluster.region_of(first[0].vm_id)

    def test_fifo_round_robin_ignores_speed(self):
        cluster, scheduler = self._scheduler(placement="fifo")
        picks = [scheduler.assign(self._config(), 1, [])[0].vm_id for _ in range(6)]
        assert picks == [f"worker-{i}" for i in range(6)]

    def test_homogeneous_ranking_matches_legacy_order(self):
        # On a homogeneous cluster the heterogeneity-aware key must consume
        # the RNG identically and order identically to the legacy
        # (reserved, load, random) key: same seeds => same choices.
        groups = [("westus2", "Standard_D8s_v5", 6)]
        _, aware = self._scheduler(groups=groups, seed=11)
        _, fresh = self._scheduler(groups=groups, seed=11)
        config = self._config()
        used_a, used_b = [], []
        for _ in range(4):
            pick_a = aware.assign(config, len(used_a) + 1, used_a)
            pick_b = fresh.assign(config, len(used_b) + 1, used_b)
            assert [vm.vm_id for vm in pick_a] == [vm.vm_id for vm in pick_b]
            used_a += [vm.vm_id for vm in pick_a]
            used_b += [vm.vm_id for vm in pick_b]


class TestMixedFleetRuns:
    def test_one_sku_mixed_fleet_reduces_to_homogeneous_lockstep(self):
        # A fleet spec split into several groups of a single region/SKU is
        # the homogeneous cluster: the lockstep (batch_size=1) run must
        # reproduce the plain homogeneous sequential trajectory bit-for-bit.
        system = PostgreSQLSystem()

        def build(fleet, seed=5):
            cluster = Cluster(n_workers=10, seed=seed, fleet=fleet)
            execution = ExecutionEngine(system, TPCC, seed=seed)
            optimizer = SMACOptimizer(
                system.knob_space, seed=seed, n_initial_design=5,
                n_candidates=40, n_local=10, n_trees=4,
            )
            return TunaSampler(optimizer, execution, cluster, seed=seed)

        split = FleetSpec.of(
            [("westus2", "Standard_D8s_v5", 3), ("westus2", "Standard_D8s_v5", 7)]
        )
        sequential = build(None)
        TuningLoop(sequential, max_samples=25).run()
        lockstep = build(split)
        TuningLoop(lockstep, max_samples=25, batch_size=1).run()
        assert sample_trajectory(sequential) == sample_trajectory(lockstep)

    def test_mixed_fleet_async_run_meets_budget_and_distinct_nodes(self):
        _, cluster, execution, optimizer = make_mixed(seed=13)
        sampler = TunaSampler(
            optimizer, execution, cluster, seed=13, budgets=(1, 2, 6)
        )
        result = TuningLoop(sampler, max_samples=30, batch_size=6).run()
        assert result.n_samples >= 30
        for config in sampler.datastore.configs():
            workers = sampler.datastore.workers_used(config)
            assert len(set(workers)) == len(workers)

    def test_lockstep_wall_clock_charges_slowest_assigned_worker(self):
        system = PostgreSQLSystem()
        cluster = Cluster(
            seed=0, fleet=FleetSpec.of([("centralus", "Standard_D8s_v4", 4)])
        )
        execution = ExecutionEngine(system, TPCC, seed=0)
        config = system.knob_space.default_configuration()
        optimizer = FixedOptimizer(system.knob_space, config, seed=0)
        sampler = TunaSampler(
            optimizer, execution, cluster, seed=0, budgets=(1, 2, 4)
        )
        report = run_iteration(sampler, 0)
        assert report.wall_clock_hours == pytest.approx(
            execution.wall_clock_hours_per_evaluation / 0.75
        )


class TestTellBatching:
    def _space(self):
        return PostgreSQLSystem().knob_space

    def test_tell_batch_matches_sequential_tells(self):
        space = self._space()
        a = RandomSearchOptimizer(space, seed=0)
        b = RandomSearchOptimizer(space, seed=0)
        configs = a.ask_batch(3)
        for config in configs:
            b.fantasize(config)
        for i, config in enumerate(configs):
            a.tell(config, float(i), budget=2.0)
        b.tell_batch([(config, float(i), 2.0) for i, config in enumerate(configs)])

        assert a.n_pending == b.n_pending == 0
        assert [obs.cost for obs in a.observations] == [
            obs.cost for obs in b.observations
        ]
        assert [obs.budget for obs in a.observations] == [
            obs.budget for obs in b.observations
        ]

    def test_tell_batch_bumps_data_version_once(self):
        space = self._space()
        opt = RandomSearchOptimizer(space, seed=0)
        configs = [space.sample(opt._rng) for _ in range(3)]
        before = opt.data_version
        opt.tell_batch([(config, 1.0, 1.0) for config in configs])
        assert opt.data_version == before + 1
        assert opt.n_observations == 3

    def test_tell_batch_rejects_non_finite_costs_atomically(self):
        space = self._space()
        opt = RandomSearchOptimizer(space, seed=0)
        configs = [space.sample(opt._rng) for _ in range(2)]
        with pytest.raises(ValueError):
            opt.tell_batch([(configs[0], 1.0, 1.0), (configs[1], float("nan"), 1.0)])
        assert opt.n_observations == 0  # nothing was recorded

    def test_empty_tell_batch_is_a_noop(self):
        opt = RandomSearchOptimizer(self._space(), seed=0)
        before = opt.data_version
        opt.tell_batch([])
        assert opt.data_version == before

    def test_wave_completion_drains_simultaneous_requests(self):
        # Two equal-duration single-node requests submitted together finish
        # at the same instant and must come back as one wave.
        system = PostgreSQLSystem()
        cluster = Cluster(n_workers=4, seed=0)
        execution = ExecutionEngine(system, TPCC, seed=0)
        engine = AsyncExecutionEngine(execution, cluster)
        space = system.knob_space
        a = WorkRequest(space.default_configuration(), 1, [cluster.workers[0]], 0)
        b = WorkRequest(space.default_configuration(), 1, [cluster.workers[1]], 1)
        engine.submit(a)
        engine.submit(b)
        wave = engine.next_completed_requests()
        assert [request for request, _ in wave] == [a, b]
        assert engine.n_in_flight_items == 0

    def test_wave_excludes_later_finishers(self):
        _, cluster, execution, _ = make_mixed()
        engine = AsyncExecutionEngine(execution, cluster)
        space = PostgreSQLSystem().knob_space
        fast = WorkRequest(space.default_configuration(), 1, [cluster.workers[0]], 0)
        slow = WorkRequest(space.default_configuration(), 1, [cluster.workers[4]], 1)
        engine.submit(fast)
        engine.submit(slow)
        first_wave = engine.next_completed_requests()
        assert [request for request, _ in first_wave] == [fast]
        second_wave = engine.next_completed_requests()
        assert [request for request, _ in second_wave] == [slow]

    def test_async_smac_run_with_waves_retracts_all_fantasies(self):
        system = PostgreSQLSystem()
        cluster = Cluster(n_workers=10, seed=7)
        execution = ExecutionEngine(system, TPCC, seed=7)
        optimizer = SMACOptimizer(
            system.knob_space, seed=7, n_initial_design=5,
            n_candidates=40, n_local=10, n_trees=4,
        )
        sampler = TunaSampler(optimizer, execution, cluster, seed=7)
        result = TuningLoop(sampler, max_samples=30, batch_size=10).run()
        assert result.n_samples >= 30
        assert optimizer.n_pending == 0
        assert all(not obs.metadata.get("fantasy") for obs in optimizer.observations)
