"""Tests for crash-fault injection, retry/backoff recovery and degradation.

Covers the crash subsystem's signature guarantee (``crash_model="none"``
and ``retry_policy=None`` reproduce existing trajectories bit-for-bit), the
retry machinery (rerouting, backoff, budget exhaustion, crash-penalty
surfacing), permanent node death (fleet drain, graceful degradation down to
a single survivor), the speculation x crash interplay, and the event-loop
cancellation/purge audit.
"""

import numpy as np
import pytest

from repro.cloud import Cluster
from repro.core import (
    AsyncExecutionEngine,
    ClusterEventLoop,
    ExecutionEngine,
    RetryPolicy,
    TunaSampler,
    TuningLoop,
    WorkRequest,
)
from repro.faults import (
    CrashDecision,
    CrashModel,
    NoCrashModel,
    SpeculationPolicy,
    FaultModel,
    build_crash_model,
    build_fault_model,
)
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


def make_setup(seed, n_workers=10):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    opt = RandomSearchOptimizer(system.knob_space, seed=seed)
    return system, cluster, execution, opt


def sample_trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget, s.crashed)
        for s in sampler.datastore.all_samples()
    ]


def run_tuna(seed=5, batch_size=5, max_samples=40, n_workers=10, budgets=None, **loop_kwargs):
    _, cluster, execution, opt = make_setup(seed, n_workers=n_workers)
    sampler_kwargs = {} if budgets is None else {"budgets": budgets}
    sampler = TunaSampler(opt, execution, cluster, seed=seed, **sampler_kwargs)
    result = TuningLoop(
        sampler, max_samples=max_samples, batch_size=batch_size, **loop_kwargs
    ).run()
    return sampler, result, cluster


class ScriptedCrash(CrashModel):
    """Fails the n-th submission(s) at a fixed fraction of their window."""

    name = "scripted"

    def __init__(self, fail_at=(), worker_dead=False, fraction=0.5):
        super().__init__(seed=0)
        self.fail_calls = set(fail_at)
        self.worker_dead = worker_dead
        self.fraction = fraction
        self.calls = 0

    def decide(self, context):
        call = self.calls
        self.calls += 1
        if call not in self.fail_calls:
            return CrashDecision(failed=False)
        return CrashDecision(
            failed=True,
            fail_at_hours=context.start_hours
            + self.fraction * context.duration_hours,
            worker_dead=self.worker_dead,
            kind="node-death" if self.worker_dead else "transient",
        )


class ScriptedDeaths(CrashModel):
    """Permanent fail-stop of specific workers at scripted simulated times."""

    name = "scripted-deaths"

    def __init__(self, deaths):
        super().__init__(seed=0)
        self.deaths = dict(deaths)

    def decide(self, context):
        death = self.deaths.get(context.worker_id)
        if death is None or context.finish_hours <= death:
            return CrashDecision(failed=False)
        return CrashDecision(
            failed=True,
            fail_at_hours=max(context.start_hours, death),
            worker_dead=True,
            kind="node-death",
        )


def make_engine(crash_model, retry_policy=None, n_workers=4, seed=1, **kwargs):
    _, cluster, execution, _ = make_setup(seed, n_workers=n_workers)
    engine = AsyncExecutionEngine(
        execution,
        cluster,
        crash_model=crash_model,
        retry_policy=retry_policy,
        **kwargs,
    )
    return engine, cluster


def submit_singles(engine, cluster, workers):
    space = PostgreSQLSystem().knob_space
    requests = []
    for i, worker_index in enumerate(workers):
        config = space.sample(np.random.default_rng(i))
        request = WorkRequest(config, 1, [cluster.workers[worker_index]], i)
        engine.submit(request)
        requests.append(request)
    return requests


def drain(engine):
    completed = {}
    while engine.n_in_flight_requests:
        request, samples = engine.next_completed_request()
        completed[id(request)] = samples
    return completed


class TestNoneModelEquivalence:
    """The signature guarantee: 'none' crash model == no model, bit for bit."""

    def test_plain_trajectories_identical(self):
        plain_sampler, plain_result, plain_cluster = run_tuna()
        null_sampler, null_result, null_cluster = run_tuna(
            crash_model="none", retry_policy=RetryPolicy()
        )
        assert sample_trajectory(plain_sampler) == sample_trajectory(null_sampler)
        assert plain_result.wall_clock_hours == null_result.wall_clock_hours
        assert plain_result.best_config == null_result.best_config
        for vm_a, vm_b in zip(plain_cluster.workers, null_cluster.workers):
            assert vm_a.clock_hours == vm_b.clock_hours

    def test_instance_and_name_are_equivalent(self):
        by_name, _, _ = run_tuna(crash_model="none")
        by_instance, _, _ = run_tuna(crash_model=NoCrashModel())
        assert sample_trajectory(by_name) == sample_trajectory(by_instance)

    def test_null_crash_model_on_top_of_faults_and_speculation(self):
        """The PR 4 guarded trajectory (faults + speculation) must survive
        arming the null crash model and a retry policy unchanged."""
        def kwargs():
            return dict(fault_model=build_fault_model("lognormal", seed=7), speculation=True)

        base_sampler, base_result, _ = run_tuna(**kwargs())
        null_sampler, null_result, _ = run_tuna(
            crash_model="none", retry_policy=RetryPolicy(), **kwargs()
        )
        assert sample_trajectory(base_sampler) == sample_trajectory(null_sampler)
        assert base_result.wall_clock_hours == null_result.wall_clock_hours

    def test_engine_stats_absent_without_crash_model(self):
        _, result, _ = run_tuna(crash_model="none")
        assert result.engine_stats is None


class TestInjectedRunsAreReproducible:
    def test_same_seed_same_trajectory(self):
        a_sampler, a_result, _ = run_tuna(
            crash_model=build_crash_model("transient", seed=3), retry_policy=RetryPolicy()
        )
        b_sampler, b_result, _ = run_tuna(
            crash_model=build_crash_model("transient", seed=3), retry_policy=RetryPolicy()
        )
        assert sample_trajectory(a_sampler) == sample_trajectory(b_sampler)
        assert a_result.wall_clock_hours == b_result.wall_clock_hours
        assert a_result.engine_stats == b_result.engine_stats


class TestLoopValidation:
    def test_active_crash_model_requires_async_batches(self):
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(sampler, max_samples=5, crash_model="transient")
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(
                sampler,
                max_samples=5,
                batch_size=1,
                crash_model="transient",
            )

    def test_engine_rejects_lockstep_crash_injection(self):
        _, cluster, execution, _ = make_setup(0)
        with pytest.raises(ValueError, match="lockstep"):
            AsyncExecutionEngine(
                execution, cluster, lockstep=True, crash_model=ScriptedCrash()
            )

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_hours=1.0, max_backoff_hours=0.5)
        policy = RetryPolicy(
            backoff_hours=0.1, backoff_factor=2.0, max_backoff_hours=0.3
        )
        assert policy.delay_hours(0) == 0.1
        assert policy.delay_hours(1) == 0.2
        assert policy.delay_hours(5) == 0.3  # capped


class TestRetryRecovery:
    def test_transient_failure_is_retried_on_a_different_worker(self):
        engine, cluster = make_engine(
            ScriptedCrash(fail_at=[0]), retry_policy=RetryPolicy()
        )
        requests = submit_singles(engine, cluster, [0, 1])
        completed = drain(engine)
        assert engine.engine_stats()["n_failures"] == 1
        assert engine.engine_stats()["n_retries"] == 1
        assert engine.engine_stats()["n_exhausted"] == 0
        crashed_slot = completed[id(requests[0])]
        assert len(crashed_slot) == 1
        assert not crashed_slot[0].crashed  # the retry delivered a real value
        assert crashed_slot[0].worker_id != "worker-0"  # rerouted

    def test_backoff_delays_the_resubmission(self):
        policy = RetryPolicy(max_retries=1, backoff_hours=0.25, backoff_factor=1.0)
        engine, cluster = make_engine(
            ScriptedCrash(fail_at=[0], fraction=0.5), retry_policy=policy
        )
        submit_singles(engine, cluster, [0])
        drain(engine)
        # The failure hit at 0.5 * duration, so the retry started no earlier
        # than fail + backoff, and the makespan (set by the retry's real
        # completion) reflects the delay.
        fail_at = 0.5 * engine.duration_for(cluster.workers[0])
        assert engine.engine_stats()["n_retries"] == 1
        assert engine.makespan_hours >= fail_at + 0.25

    def test_zero_retry_budget_surfaces_the_penalty_immediately(self):
        engine, cluster = make_engine(
            ScriptedCrash(fail_at=[0]), retry_policy=RetryPolicy(max_retries=0)
        )
        requests = submit_singles(engine, cluster, [0])
        completed = drain(engine)
        assert engine.engine_stats()["n_retries"] == 0
        assert engine.engine_stats()["n_exhausted"] == 1
        sample = completed[id(requests[0])][0]
        assert sample.crashed
        assert sample.details.get("fail_stop") is True
        assert sample.value == engine.execution.crash_penalty()

    def test_no_retry_policy_surfaces_the_penalty_immediately(self):
        engine, cluster = make_engine(ScriptedCrash(fail_at=[0]), retry_policy=None)
        requests = submit_singles(engine, cluster, [0])
        completed = drain(engine)
        assert engine.engine_stats()["n_exhausted"] == 1
        assert completed[id(requests[0])][0].crashed

    def test_exhausting_the_budget_after_repeated_failures(self):
        # Submission 0 fails, its retry (submission 1) fails too; with
        # max_retries=1 the slot surfaces as a crash-penalty sample.
        engine, cluster = make_engine(
            ScriptedCrash(fail_at=[0, 1]), retry_policy=RetryPolicy(max_retries=1)
        )
        requests = submit_singles(engine, cluster, [0])
        completed = drain(engine)
        assert engine.engine_stats()["n_failures"] == 2
        assert engine.engine_stats()["n_retries"] == 1
        assert engine.engine_stats()["n_exhausted"] == 1
        assert completed[id(requests[0])][0].crashed

    def test_failed_items_do_not_define_the_makespan(self):
        engine, cluster = make_engine(
            ScriptedCrash(fail_at=[0], fraction=0.9), retry_policy=None
        )
        submit_singles(engine, cluster, [0, 1])
        drain(engine)
        # Only worker-1's real completion counts; the failure event on
        # worker-0 advanced ``now`` but not the makespan.
        assert engine.makespan_hours == pytest.approx(
            engine.duration_for(cluster.workers[1])
        )


class TestNodeDeath:
    def test_death_drains_the_worker_from_the_fleet(self):
        engine, cluster = make_engine(
            ScriptedCrash(fail_at=[0], worker_dead=True),
            retry_policy=RetryPolicy(),
        )
        requests = submit_singles(engine, cluster, [0, 1])
        completed = drain(engine)
        assert engine.engine_stats()["n_workers_dead"] == 1
        assert engine.loop.is_dead("worker-0")
        assert engine.loop.n_dead == 1
        assert all(vm.vm_id != "worker-0" for vm in engine.loop.idle_workers())
        # The lost slot was recovered on a survivor.
        assert not completed[id(requests[0])][0].crashed

    def test_submission_to_a_decided_dead_worker_fails_instantly(self):
        engine, cluster = make_engine(
            ScriptedCrash(fail_at=[0], worker_dead=True, fraction=0.3),
            retry_policy=None,
        )
        space = PostgreSQLSystem().knob_space
        config_a = space.sample(np.random.default_rng(0))
        config_b = space.sample(np.random.default_rng(1))
        engine.submit(WorkRequest(config_a, 1, [cluster.workers[0]], 0))
        # The death is decided but not yet observed; more work routed to the
        # dying worker must error out instantly and take the recovery path
        # rather than raising mid-fanout.
        item = engine.submit(WorkRequest(config_b, 1, [cluster.workers[0]], 1))[0]
        assert item.failed
        assert item.failure_kind == "node-death"
        assert item.finish_hours == item.start_hours
        drain(engine)
        # The worker died once, even though two failures carried the death.
        assert engine.engine_stats()["n_workers_dead"] == 1
        assert engine.engine_stats()["n_failures"] == 2

    def test_study_completes_on_the_last_survivor(self):
        """Graceful degradation: all workers but one die early; the study
        runs to its sample budget on the survivor, and promotions whose
        rung budget exceeds the live fleet are parked, not crashed."""
        deaths = {"worker-0": 0.02, "worker-1": 0.03}
        sampler, result, cluster = run_tuna(
            seed=11,
            n_workers=3,
            batch_size=2,
            max_samples=10,
            budgets=(1, 2),
            crash_model=ScriptedDeaths(deaths),
            retry_policy=RetryPolicy(),
        )
        assert result.n_samples == 10
        assert result.engine_stats["n_workers_dead"] == 2
        assert sampler.scheduler.n_alive == 1
        # Everything after the deaths ran on the survivor.
        survivors = {s.worker_id for s in sampler.datastore.all_samples()[-5:]}
        assert survivors == {"worker-2"}

    def test_scheduler_mark_dead_bookkeeping(self):
        _, cluster, execution, opt = make_setup(0, n_workers=3)
        sampler = TunaSampler(opt, execution, cluster, seed=0, budgets=(1, 2))
        scheduler = sampler.scheduler
        assert scheduler.n_alive == 3
        scheduler.mark_dead("worker-1")
        scheduler.mark_dead("worker-1")  # idempotent
        assert scheduler.n_alive == 2
        assert scheduler.is_dead("worker-1")
        assert all(
            vm.vm_id != "worker-1"
            for vm in scheduler.eligible_workers(
                PostgreSQLSystem().knob_space.default_configuration(), []
            )
        )
        with pytest.raises(KeyError):
            scheduler.mark_dead("worker-99")


class TestSpeculationCrashInterplay:
    def _engine(self, crash_model, stretch_at=0, factor=10.0, n_workers=6):
        class ScriptedStretch(FaultModel):
            name = "scripted"

            def __init__(self):
                super().__init__(seed=0)
                self.calls = 0

            def stretch(self, context):
                call = self.calls
                self.calls += 1
                return factor if call == stretch_at else 1.0

        _, cluster, execution, _ = make_setup(1, n_workers=n_workers)
        policy = SpeculationPolicy(quantile=0.5, slack=1.2, min_history=3)
        engine = AsyncExecutionEngine(
            execution,
            cluster,
            fault_model=ScriptedStretch(),
            speculation=policy,
            crash_model=crash_model,
            retry_policy=RetryPolicy(),
        )
        return engine, cluster

    def test_clone_crash_with_surviving_original_costs_nothing(self):
        # Submissions 0-3 are the originals; the straggler's clone is the
        # 5th consult (call 4).  The clone dies; the straggling original
        # still delivers its sample — a pure duplicate loss, no retry.
        engine, cluster = self._engine(ScriptedCrash(fail_at=[4]))
        requests = submit_singles(engine, cluster, [0, 1, 2, 3])
        completed = drain(engine)
        assert engine.engine_stats()["n_duplicates_submitted"] == 1
        assert engine.engine_stats()["n_speculative_failures"] == 1
        assert engine.engine_stats()["n_retries"] == 0
        straggler_samples = completed[id(requests[0])]
        assert len(straggler_samples) == 1
        assert not straggler_samples[0].crashed
        assert straggler_samples[0].worker_id == "worker-0"

    def test_original_crash_with_winning_clone_delivers_the_sample(self):
        # The straggling original (call 0) dies late (fraction 0.95 of its
        # 10x window); the clone launched at the detection crossing wins
        # the slot.
        engine, cluster = self._engine(
            ScriptedCrash(fail_at=[0], fraction=0.95)
        )
        requests = submit_singles(engine, cluster, [0, 1, 2, 3])
        completed = drain(engine)
        straggler_samples = completed[id(requests[0])]
        assert len(straggler_samples) == 1
        assert not straggler_samples[0].crashed
        assert straggler_samples[0].details.get("speculative") is True
        assert engine.engine_stats()["n_retries"] == 0

    def test_original_and_clone_both_crash_triggers_recovery(self):
        # Original (call 0) and its clone (call 4) both die: the slot is
        # lost and enters the retry path on a third worker.
        engine, cluster = self._engine(
            ScriptedCrash(fail_at=[0, 4], fraction=0.95)
        )
        requests = submit_singles(engine, cluster, [0, 1, 2, 3])
        completed = drain(engine)
        assert engine.engine_stats()["n_failures"] == 2
        assert engine.engine_stats()["n_speculative_failures"] == 1
        assert engine.engine_stats()["n_retries"] == 1
        straggler_samples = completed[id(requests[0])]
        assert len(straggler_samples) == 1
        assert not straggler_samples[0].crashed

    def test_speculative_tuning_run_with_crashes_stays_consistent(self):
        sampler, result, _ = run_tuna(
            seed=7,
            crash_model=build_crash_model("transient", seed=13),
            retry_policy=RetryPolicy(),
            fault_model=build_fault_model("lognormal", seed=7),
            speculation=True,
        )
        assert result.n_samples == 40
        samples = sampler.datastore.all_samples()
        assert len(samples) == 40
        # One result per slot: distinct-node budget holds for every config.
        for config in sampler.datastore.configs():
            workers = sampler.datastore.workers_used(config)
            assert len(workers) == len(set(workers))
        # Merged stats carry both subsystems.
        assert "n_duplicates_submitted" in result.engine_stats
        assert "n_failures" in result.engine_stats


class TestCancellationAudit:
    """Regression audit for cancel/purge bookkeeping under recovery."""

    def _loop(self):
        cluster = Cluster(n_workers=3, seed=0)
        return cluster, ClusterEventLoop(cluster)

    def _request(self, cluster):
        space = PostgreSQLSystem().knob_space
        return WorkRequest(space.default_configuration(), 1, list(cluster.workers), 0)

    def test_cancelled_heap_head_never_surfaces_via_peek(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        first = loop.submit(request, cluster.workers[0], 1.0)
        second = loop.submit(request, cluster.workers[1], 2.0)
        third = loop.submit(request, cluster.workers[2], 3.0)
        # Cancel the two earliest: both sit at the heap head in turn, and
        # peek must purge through them to the live item.
        loop.cancel(first)
        loop.cancel(second)
        assert loop.peek_finish() == 3.0
        assert loop.next_completion() is third
        assert loop.peek_finish() is None

    def test_cancel_of_evaluated_item_raises(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        item = loop.submit(request, cluster.workers[0], 1.0)
        loop.next_completion()
        item.sample = object()
        with pytest.raises(RuntimeError, match="already-completed"):
            loop.cancel(item)

    def test_cancel_of_popped_unevaluated_item_raises(self):
        """A failed item is popped without ever being evaluated; it must be
        just as uncancellable as an evaluated one."""
        cluster = Cluster(n_workers=3, seed=0)
        loop = ClusterEventLoop(cluster, crash_model=ScriptedCrash(fail_at=[0]))
        request = self._request(cluster)
        item = loop.submit(request, cluster.workers[0], 1.0)
        popped = loop.next_completion()
        assert popped is item and item.failed and item.sample is None
        with pytest.raises(RuntimeError, match="already-completed"):
            loop.cancel(item)

    def test_failed_item_advances_now_but_not_makespan(self):
        cluster = Cluster(n_workers=3, seed=0)
        loop = ClusterEventLoop(
            cluster, crash_model=ScriptedCrash(fail_at=[0], fraction=0.5)
        )
        request = self._request(cluster)
        loop.submit(request, cluster.workers[0], 1.0)
        failed = loop.next_completion()
        assert failed.failed
        assert loop.now == 0.5
        assert loop.makespan == 0.0
