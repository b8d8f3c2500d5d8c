"""Tests for asynchronous batched execution and its wall-clock accounting.

Covers the discrete-event core (:class:`ClusterEventLoop`), the request-level
engine (:class:`AsyncExecutionEngine`), the batch-size-1 equivalence gate
(lockstep mode must reproduce the sequential oracle bit-for-bit), and the
regression fixes that rode along: zero-sample promotion iterations cost no
wall-clock, promotions are transactional, and deployment relative range uses
the shared metric definition.
"""

import numpy as np
import pytest
from sequential_oracle import run_iteration, run_sequential

from repro.cloud import Cluster
from repro.configspace import Configuration
from repro.core import (
    AsyncExecutionEngine,
    ClusterEventLoop,
    DeploymentResult,
    ExecutionEngine,
    NaiveDistributedSampler,
    RetryPolicy,
    TraditionalSampler,
    TunaSampler,
    TuningLoop,
    WorkRequest,
)
from repro.core import async_engine
from repro.faults import CrashDecision, CrashModel
from repro.ml.metrics import relative_range
from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
from repro.optimizers.base import Optimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


def make_setup(seed, optimizer="random", **smac_kwargs):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=10, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    if optimizer == "random":
        opt = RandomSearchOptimizer(system.knob_space, seed=seed)
    else:
        kwargs = dict(n_initial_design=5, n_candidates=60, n_local=20, n_trees=6)
        kwargs.update(smac_kwargs)
        opt = SMACOptimizer(system.knob_space, seed=seed, **kwargs)
    return system, cluster, execution, opt


def sample_trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget)
        for s in sampler.datastore.all_samples()
    ]


class FixedOptimizer(Optimizer):
    """Always suggests the same configuration (drives the dedup/zero-sample paths)."""

    def __init__(self, space, config, seed=None):
        super().__init__(space, seed=seed)
        self._config = config

    def ask(self) -> Configuration:
        return self._config


class TestClusterEventLoop:
    def _loop(self, n_workers=3):
        cluster = Cluster(n_workers=n_workers, seed=0)
        return cluster, ClusterEventLoop(cluster)

    def _request(self, cluster, vms=None, iteration=0):
        space = PostgreSQLSystem().knob_space
        vms = list(cluster.workers if vms is None else vms)
        return WorkRequest(space.default_configuration(), 1, vms, iteration)

    def test_items_start_on_independent_worker_timelines(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        w0, w1 = cluster.workers[0], cluster.workers[1]
        a = loop.submit(request, w0, 1.0)
        b = loop.submit(request, w0, 1.0)  # queues behind a on the same worker
        c = loop.submit(request, w1, 1.0)  # independent timeline
        assert (a.start_hours, a.finish_hours) == (0.0, 1.0)
        assert (b.start_hours, b.finish_hours) == (1.0, 2.0)
        assert (c.start_hours, c.finish_hours) == (0.0, 1.0)

    def test_completions_pop_in_finish_then_submission_order(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        loop.submit(request, cluster.workers[0], 2.0)
        loop.submit(request, cluster.workers[1], 1.0)
        loop.submit(request, cluster.workers[2], 1.0)
        finishes = [loop.next_completion() for _ in range(3)]
        assert [item.vm.vm_id for item in finishes] == ["worker-1", "worker-2", "worker-0"]
        assert loop.makespan == 2.0
        assert loop.n_in_flight == 0

    def test_submission_after_completion_respects_causality(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        loop.submit(request, cluster.workers[0], 2.0)
        loop.next_completion()
        assert loop.now == 2.0
        # worker-1 was idle the whole time, but the orchestrator only decided
        # to submit at t=2, so the item cannot start earlier.
        item = loop.submit(request, cluster.workers[1], 1.0)
        assert item.start_hours == 2.0

    def test_lockstep_starts_at_global_clock(self):
        # The engine's lockstep precondition (nothing in flight, nothing
        # retried) makes every submission start at the orchestrator clock.
        cluster, loop = self._loop()
        request = self._request(cluster)
        a = loop.submit(request, cluster.workers[0], 1.0)
        loop.next_completion()
        b = loop.submit(request, cluster.workers[0], 1.0)
        assert (a.start_hours, b.start_hours) == (0.0, 1.0)

    def test_errors(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        with pytest.raises(RuntimeError):
            loop.next_completion()
        with pytest.raises(ValueError):
            loop.submit(request, cluster.workers[0], 0.0)
        foreign = cluster.provision_fresh_nodes(1)[0]
        with pytest.raises(KeyError):
            loop.submit(request, foreign, 1.0)


class TestAsyncExecutionEngine:
    def test_request_completes_with_all_samples(self):
        _, cluster, execution, _ = make_setup(0)
        engine = AsyncExecutionEngine(execution, cluster)
        config = PostgreSQLSystem().knob_space.default_configuration()
        request = WorkRequest(config, 3, cluster.workers[:3], iteration=0)
        engine.submit(request)
        done, samples = engine.next_completed_request()
        assert done is request
        assert len(samples) == 3
        assert {s.worker_id for s in samples} == {"worker-0", "worker-1", "worker-2"}
        assert engine.n_in_flight_items == 0
        assert engine.makespan_hours == pytest.approx(engine.duration_hours)

    def test_completion_interleaves_requests(self):
        _, cluster, execution, _ = make_setup(0)
        engine = AsyncExecutionEngine(execution, cluster)
        space = PostgreSQLSystem().knob_space
        big = WorkRequest(space.default_configuration(), 2, cluster.workers[:2], 0)
        engine.submit(big)
        # Submitted later, but lands on idle workers with the same duration,
        # so it finishes at the same simulated time; the earlier submission
        # completes first (deterministic tie-break).
        small = WorkRequest(space.sample(np.random.default_rng(0)), 1, [cluster.workers[5]], 1)
        engine.submit(small)
        first, _ = engine.next_completed_request()
        second, _ = engine.next_completed_request()
        assert first is big
        assert second is small

    def test_per_worker_clocks_follow_their_own_timelines(self):
        _, cluster, execution, _ = make_setup(0)
        engine = AsyncExecutionEngine(execution, cluster)
        config = PostgreSQLSystem().knob_space.default_configuration()
        before = {vm.vm_id: vm.clock_hours for vm in cluster.workers}
        engine.submit(WorkRequest(config, 1, [cluster.workers[0]], 0))
        engine.next_completed_request()
        # Only the busy worker's clock moved (by the workload duration).
        assert cluster.workers[0].clock_hours > before["worker-0"]
        assert cluster.workers[1].clock_hours == before["worker-1"]
        # finalize() catches every worker (and the cluster clock) up to the
        # makespan.
        makespan = engine.finalize()
        for vm in cluster.workers:
            assert vm.clock_hours == pytest.approx(before[vm.vm_id] + makespan)
        assert cluster.clock_hours == pytest.approx(makespan)

    def test_finalize_refuses_in_flight_work(self):
        _, cluster, execution, _ = make_setup(0)
        engine = AsyncExecutionEngine(execution, cluster)
        config = PostgreSQLSystem().knob_space.default_configuration()
        engine.submit(WorkRequest(config, 1, [cluster.workers[0]], 0))
        with pytest.raises(RuntimeError):
            engine.finalize()

    def test_empty_request_rejected(self):
        _, cluster, execution, _ = make_setup(0)
        engine = AsyncExecutionEngine(execution, cluster)
        config = PostgreSQLSystem().knob_space.default_configuration()
        with pytest.raises(ValueError):
            engine.submit(WorkRequest(config, 1, [], 0))


class FailOnCall(CrashModel):
    """Fails the n-th submission halfway through its window."""

    name = "fail-on-call"

    def __init__(self, call):
        super().__init__(seed=0)
        self.call = call
        self.calls = 0

    def decide(self, context):
        call = self.calls
        self.calls += 1
        if call != self.call:
            return CrashDecision(failed=False)
        return CrashDecision(
            failed=True,
            fail_at_hours=context.start_hours + 0.5 * context.duration_hours,
            kind="transient",
        )


class TestConfigExclusionEviction:
    """The per-config exclusion map is bounded by CONFIG_EXCLUSION_CAPACITY."""

    @pytest.fixture(autouse=True)
    def _capacity_two(self, monkeypatch):
        monkeypatch.setattr(async_engine, "CONFIG_EXCLUSION_CAPACITY", 2)

    @staticmethod
    def _configs(n):
        space = PostgreSQLSystem().knob_space
        return [space.sample(np.random.default_rng(i)) for i in range(n)]

    def test_quiescent_configs_go_oldest_first_and_open_ones_stay(self):
        _, cluster, execution, _ = make_setup(0)
        engine = AsyncExecutionEngine(execution, cluster)
        a, b, c, d, e = self._configs(5)
        workers = cluster.workers

        engine.submit(WorkRequest(a, 1, [workers[0]], 0))
        engine.next_completed_request()
        engine.submit(WorkRequest(b, 1, [workers[1]], 1))
        assert list(engine._exclusions) == [a, b]
        assert engine.n_evicted_exclusions == 0

        # Over capacity: the quiescent config goes, the open one stays.
        engine.submit(WorkRequest(c, 1, [workers[2]], 2))
        assert list(engine._exclusions) == [b, c]
        assert engine.n_evicted_exclusions == 1

        # Every tracked config has an open request: nothing is evictable,
        # so the map overshoots its capacity instead.
        engine.submit(WorkRequest(d, 1, [workers[3]], 3))
        assert list(engine._exclusions) == [b, c, d]
        assert engine.n_evicted_exclusions == 1

        for _ in range(3):
            engine.next_completed_request()
        engine.submit(WorkRequest(e, 1, [workers[4]], 4))
        assert list(engine._exclusions) == [d, e]
        assert engine.n_evicted_exclusions == 3

    def _retry_worker_of_evicted_config(self, used_workers_fn):
        """Land config ``a`` on worker-0, evict it, then re-submit it on
        worker-1 with a crash: returns the worker its retry ran on."""
        _, cluster, execution, _ = make_setup(0)
        landed = {}
        engine = AsyncExecutionEngine(
            execution,
            cluster,
            crash_model=FailOnCall(3),
            retry_policy=RetryPolicy(max_retries=1),
            used_workers_fn=used_workers_fn(landed),
        )
        a, b, c = self._configs(3)
        for iteration, (config, worker) in enumerate([(a, 0), (b, 1), (c, 2)]):
            engine.submit(WorkRequest(config, 1, [cluster.workers[worker]], iteration))
            request, samples = engine.next_completed_request()
            landed[request.config] = [s.worker_id for s in samples]
        assert a not in engine._exclusions
        assert engine.n_evicted_exclusions == 1

        engine.submit(WorkRequest(a, 1, [cluster.workers[1]], 3))
        _, samples = engine.next_completed_request()
        assert engine.engine_stats()["n_retries"] == 1
        return samples[0].worker_id

    def test_retry_of_an_evicted_config_avoids_its_landed_workers(self):
        retried_on = self._retry_worker_of_evicted_config(
            lambda landed: lambda config: landed.get(config, [])
        )
        assert retried_on not in ("worker-0", "worker-1")
        # Without the landed-worker fallback the eviction forgot worker-0,
        # and the retry's placement prefers it.
        forgetful = self._retry_worker_of_evicted_config(lambda landed: None)
        assert forgetful == "worker-0"


class TestBatchOneEquivalence:
    """The gate: batch-size-1 lockstep mode ≡ the sequential oracle, bit for bit."""

    @pytest.mark.parametrize("optimizer", ["random", "smac"])
    def test_tuna_batch1_matches_sequential(self, optimizer):
        _, cluster_a, execution_a, opt_a = make_setup(5, optimizer)
        seq = TunaSampler(opt_a, execution_a, cluster_a, seed=5)
        result_seq = run_sequential(seq, max_samples=35)

        _, cluster_b, execution_b, opt_b = make_setup(5, optimizer)
        batched = TunaSampler(opt_b, execution_b, cluster_b, seed=5)
        result_b1 = TuningLoop(batched, max_samples=35, batch_size=1).run()

        assert sample_trajectory(seq) == sample_trajectory(batched)
        assert result_seq.wall_clock_hours == pytest.approx(result_b1.wall_clock_hours)
        assert result_seq.n_iterations == result_b1.n_iterations
        assert result_seq.best_config == result_b1.best_config
        # Worker clocks advanced identically in both modes.
        for vm_a, vm_b in zip(cluster_a.workers, cluster_b.workers):
            assert vm_a.clock_hours == pytest.approx(vm_b.clock_hours)

    def test_traditional_batch1_matches_sequential(self):
        _, cluster_a, execution_a, opt_a = make_setup(3, "smac")
        seq = TraditionalSampler(opt_a, execution_a, cluster_a, seed=3)
        run_sequential(seq, n_iterations=12)

        _, cluster_b, execution_b, opt_b = make_setup(3, "smac")
        batched = TraditionalSampler(opt_b, execution_b, cluster_b, seed=3)
        TuningLoop(batched, n_iterations=12, batch_size=1).run()

        assert sample_trajectory(seq) == sample_trajectory(batched)

    def test_naive_batch1_matches_sequential(self):
        _, cluster_a, execution_a, opt_a = make_setup(4)
        seq = NaiveDistributedSampler(opt_a, execution_a, cluster_a, seed=4)
        run_sequential(seq, n_iterations=4)

        _, cluster_b, execution_b, opt_b = make_setup(4)
        batched = NaiveDistributedSampler(opt_b, execution_b, cluster_b, seed=4)
        TuningLoop(batched, n_iterations=4, batch_size=1).run()

        assert sample_trajectory(seq) == sample_trajectory(batched)


class TestAsyncRun:
    def test_ten_worker_batch_finishes_faster_than_sequential(self):
        _, cluster_a, execution_a, opt_a = make_setup(9)
        seq = TunaSampler(opt_a, execution_a, cluster_a, seed=9)
        result_seq = TuningLoop(seq, max_samples=40).run()

        _, cluster_b, execution_b, opt_b = make_setup(9)
        batched = TunaSampler(opt_b, execution_b, cluster_b, seed=9)
        result_async = TuningLoop(batched, max_samples=40, batch_size=10).run()

        assert result_async.n_samples >= 40
        # Makespan of the busiest worker, not n_iterations x eval_cost.
        assert result_async.wall_clock_hours < result_seq.wall_clock_hours / 2
        assert batched.datastore.n_samples == result_async.n_samples

    def test_async_smac_run_retracts_all_fantasies(self):
        _, cluster, execution, opt = make_setup(7, "smac")
        sampler = TunaSampler(opt, execution, cluster, seed=7)
        TuningLoop(sampler, max_samples=30, batch_size=5).run()
        # Every in-flight fantasy was replaced by its real tell when the
        # request completed and the run drained.
        assert opt.n_pending == 0
        assert all(not obs.metadata.get("fantasy") for obs in opt.observations)

    def test_async_respects_distinct_node_budgets(self):
        _, cluster, execution, opt = make_setup(13)
        sampler = TunaSampler(opt, execution, cluster, seed=13)
        TuningLoop(sampler, max_samples=50, batch_size=10).run()
        for config in sampler.datastore.configs():
            workers = sampler.datastore.workers_used(config)
            assert len(set(workers)) == len(workers)

    def test_wall_clock_budget_in_async_mode(self):
        _, cluster, execution, opt = make_setup(11)
        sampler = TunaSampler(opt, execution, cluster, seed=11)
        per_eval = execution.wall_clock_hours_per_evaluation
        result = TuningLoop(sampler, wall_clock_hours=per_eval * 3.5, batch_size=10).run()
        # Submission stops once the makespan passes the budget; in-flight
        # work drains, so the overshoot is bounded by one batch round.
        assert result.wall_clock_hours >= per_eval * 3.5
        assert result.wall_clock_hours <= per_eval * 6


class TestZeroSampleIterationsAreFree:
    """Regression: promotion iterations that schedule nothing cost nothing."""

    def _sampler_with_duplicate_asks(self, seed=0):
        system = PostgreSQLSystem()
        cluster = Cluster(n_workers=4, seed=seed)
        execution = ExecutionEngine(system, TPCC, seed=seed)
        config = system.knob_space.default_configuration()
        opt = FixedOptimizer(system.knob_space, config, seed=seed)
        return TunaSampler(
            opt, execution, cluster, seed=seed, budgets=(1, 2, 4)
        ), cluster

    def test_zero_sample_iteration_reports_zero_hours(self):
        sampler, _ = self._sampler_with_duplicate_asks()
        first = run_iteration(sampler, 0)
        assert first.n_new_samples == 1
        assert first.wall_clock_hours > 0
        # The optimizer re-suggests the same configuration, whose budget is
        # already covered: no new samples, no wall-clock.
        second = run_iteration(sampler, 1)
        assert second.n_new_samples == 0
        assert second.wall_clock_hours == 0.0

    def test_endless_zero_progress_aborts_instead_of_spinning(self):
        # With a wall-clock-only stopping criterion, free iterations advance
        # nothing; the loop must abort rather than spin forever.
        sampler, _ = self._sampler_with_duplicate_asks()
        loop = TuningLoop(sampler, wall_clock_hours=10.0)
        with pytest.raises(RuntimeError, match="no new samples"):
            loop.run()

    def test_zero_sample_iteration_does_not_advance_clocks(self):
        sampler, cluster = self._sampler_with_duplicate_asks()
        loop = TuningLoop(sampler, n_iterations=3)
        result = loop.run()
        free_iterations = [r for r in result.history if r.n_new_samples == 0]
        assert free_iterations, "expected duplicate asks to schedule nothing"
        per_eval = sampler.execution.wall_clock_hours_per_evaluation
        busy_iterations = result.n_iterations - len(free_iterations)
        # Cluster-wide clock advanced only for iterations that ran samples.
        assert cluster.clock_hours == pytest.approx(per_eval * busy_iterations)
        assert result.wall_clock_hours == pytest.approx(per_eval * busy_iterations)


class TestTransactionalPromotion:
    """Regression: a failed scheduling attempt must not consume the promotion."""

    def _promotable_sampler(self, seed=1):
        _, cluster, execution, opt = make_setup(seed)
        sampler = TunaSampler(opt, execution, cluster, seed=seed)
        # Fill rung 1 until a promotion is pending.
        iteration = 0
        while sampler.schedule.n_pending_promotions() == 0:
            run_iteration(sampler, iteration)
            iteration += 1
        return sampler, iteration

    def test_failed_scheduling_rolls_back_the_promotion(self, monkeypatch):
        sampler, iteration = self._promotable_sampler()

        def boom(*args, **kwargs):
            raise RuntimeError("no free workers")

        monkeypatch.setattr(sampler.scheduler, "assign", boom)
        with pytest.raises(RuntimeError):
            run_iteration(sampler, iteration)
        monkeypatch.undo()

        # The configuration is still promotable: the next iteration proposes
        # and completes the same promotion instead of silently dropping it.
        report = run_iteration(sampler, iteration + 1)
        assert report.budget > sampler.schedule.min_budget

    def test_async_driver_defers_scheduling_failures_while_work_drains(self, monkeypatch):
        _, cluster, execution, opt = make_setup(21)
        sampler = TunaSampler(opt, execution, cluster, seed=21)
        real_propose = sampler.propose_work
        state = {"calls": 0}

        def flaky_propose(iteration):
            state["calls"] += 1
            if state["calls"] == 3:
                raise RuntimeError("transient: no schedulable workers")
            return real_propose(iteration)

        monkeypatch.setattr(sampler, "propose_work", flaky_propose)
        # Two requests are in flight when the third proposal fails, so the
        # driver drains a completion and retries instead of aborting.
        result = TuningLoop(sampler, max_samples=12, batch_size=4).run()
        assert result.n_samples >= 12

    def test_proposal_defers_when_only_in_flight_samples_cover_the_budget(self):
        # A duplicate suggestion whose budget is "covered" purely by unlanded
        # samples has nothing to aggregate; propose_work must defer (raise)
        # so the async driver drains work, rather than emit an empty request
        # that would crash on completion.
        system = PostgreSQLSystem()
        cluster = Cluster(n_workers=4, seed=0)
        execution = ExecutionEngine(system, TPCC, seed=0)
        config = system.knob_space.default_configuration()
        opt = FixedOptimizer(system.knob_space, config, seed=0)
        sampler = TunaSampler(opt, execution, cluster, seed=0, budgets=(1, 2, 4))
        # Occupy all four workers with in-flight duplicates of one config.
        for iteration in range(4):
            request = sampler.propose_work(iteration)
            assert len(request.vms) == 1
        with pytest.raises(RuntimeError, match="in-flight"):
            sampler.propose_work(4)

    def test_promotion_defers_while_its_samples_are_in_flight(self):
        _, cluster, execution, opt = make_setup(2)
        sampler = TunaSampler(opt, execution, cluster, seed=2)
        iteration = 0
        while sampler.schedule.n_pending_promotions() == 0:
            run_iteration(sampler, iteration)
            iteration += 1
        config, _ = sampler.schedule.propose_promotion()
        sampler.schedule.rollback_promotion(config)
        # Pretend a duplicate of the promotable config is still in flight:
        # the promotion must wait for landed samples, and the reservation
        # must be rolled back so the rung keeps the configuration.
        sampler._in_flight[config] = ["worker-0"]
        sampler.scheduler.reserve(["worker-0"])
        with pytest.raises(RuntimeError, match="promotion deferred"):
            sampler.propose_work(iteration)
        assert sampler.schedule.n_pending_promotions() == 1

    def test_commit_requires_a_pending_proposal(self):
        sampler, _ = self._promotable_sampler()
        space = PostgreSQLSystem().knob_space
        with pytest.raises(KeyError):
            sampler.schedule.commit_promotion(space.default_configuration())
        with pytest.raises(KeyError):
            sampler.schedule.rollback_promotion(space.default_configuration())


class TestDeploymentRelativeRange:
    """Regression: deployment relative range matches the outlier detector's."""

    def _result(self, values):
        space = PostgreSQLSystem().knob_space
        return DeploymentResult(
            config=space.default_configuration(),
            values=list(values),
            crashes=0,
            objective_unit="tx/s",
            higher_is_better=True,
        )

    def test_matches_shared_metric(self):
        values = [100.0, 130.0, 90.0, 110.0]
        assert self._result(values).relative_range == pytest.approx(
            relative_range(values)
        )

    def test_single_value_has_no_spread(self):
        assert self._result([123.4]).relative_range == 0.0

    def test_zero_mean_raises_like_the_metric(self):
        with pytest.raises(ValueError):
            self._result([1.0, -1.0]).relative_range
