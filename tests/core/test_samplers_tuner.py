"""Integration tests: execution engine, samplers and the tuning loop."""

import pytest
from sequential_oracle import run_iteration

from repro.cloud import Cluster
from repro.core import (
    ExecutionEngine,
    NaiveDistributedSampler,
    TraditionalSampler,
    TunaSampler,
    TuningLoop,
    build_sampler,
    deploy_configuration,
)
from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
from repro.systems import RedisSystem
from repro.workloads import TPCC, YCSB_C


class TestExecutionEngine:
    def test_rejects_unsupported_workload(self, postgres_system):
        with pytest.raises(ValueError):
            ExecutionEngine(postgres_system, YCSB_C)

    def test_evaluate_on_produces_sample(self, tpcc_execution, cluster):
        config = tpcc_execution.system.default_configuration()
        sample = tpcc_execution.evaluate_on(config, cluster.workers[0], iteration=3, budget=1)
        assert sample.worker_id == "worker-0"
        assert sample.iteration == 3
        assert sample.value > 0
        assert sample.telemetry is not None

    def test_evaluate_on_many(self, tpcc_execution, cluster):
        config = tpcc_execution.system.default_configuration()
        samples = tpcc_execution.evaluate_on_many(config, cluster.workers[:4])
        assert len(samples) == 4
        assert len({s.worker_id for s in samples}) == 4
        assert tpcc_execution.n_evaluations == 4

    def test_crash_penalty_values(self, postgres_system):
        tpcc_engine = ExecutionEngine(postgres_system, TPCC, seed=0)
        assert tpcc_engine.crash_penalty() == pytest.approx(TPCC.baseline_performance * 0.05)
        redis_engine = ExecutionEngine(RedisSystem(), YCSB_C, seed=0)
        assert redis_engine.crash_penalty() == pytest.approx(YCSB_C.baseline_performance * 3.0)

    def test_crashed_run_uses_penalty(self, postgres_system, cluster):
        engine = ExecutionEngine(postgres_system, TPCC, seed=0)
        bomb = postgres_system.knob_space.partial_configuration(
            shared_buffers_mb=16_384, work_mem_mb=2_048, maintenance_work_mem_mb=2_048
        )
        samples = engine.evaluate_on_many(bomb, cluster.workers)
        crashed = [s for s in samples if s.crashed]
        assert crashed, "expected at least one crash from the over-committed config"
        assert all(s.value == pytest.approx(engine.crash_penalty()) for s in crashed)
        assert engine.n_crashes == len(crashed)

    def test_wall_clock_per_evaluation(self, tpcc_execution):
        hours = tpcc_execution.wall_clock_hours_per_evaluation
        assert 0.05 < hours < 0.2  # five-minute OLTP run plus overhead


class TestTraditionalSampler:
    def test_single_worker_only(self, smac_optimizer, tpcc_execution, cluster):
        sampler = TraditionalSampler(smac_optimizer, tpcc_execution, cluster, seed=0)
        for i in range(5):
            report = run_iteration(sampler, i)
            assert report.budget == 1
            assert report.n_new_samples == 1
        assert set(s.worker_id for s in sampler.datastore.all_samples()) == {"worker-0"}

    def test_best_configuration_is_best_raw_value(self, random_optimizer, tpcc_execution, cluster):
        sampler = TraditionalSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        for i in range(8):
            run_iteration(sampler, i)
        best_config, best_value = sampler.best_configuration()
        assert best_value == max(s.value for s in sampler.datastore.all_samples())

    def test_best_before_any_iteration_raises(self, random_optimizer, tpcc_execution, cluster):
        sampler = TraditionalSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        with pytest.raises(RuntimeError):
            sampler.best_configuration()

    def test_invalid_worker_index(self, random_optimizer, tpcc_execution, cluster):
        with pytest.raises(ValueError):
            TraditionalSampler(random_optimizer, tpcc_execution, cluster, worker_index=99)


class TestNaiveDistributedSampler:
    def test_every_config_runs_on_every_node(self, random_optimizer, tpcc_execution, cluster):
        sampler = NaiveDistributedSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        report = run_iteration(sampler, 0)
        assert report.n_new_samples == cluster.n_workers
        assert report.budget == cluster.n_workers

    def test_min_aggregation_reported(self, random_optimizer, tpcc_execution, cluster):
        sampler = NaiveDistributedSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        report = run_iteration(sampler, 0)
        assert report.reported_value == pytest.approx(min(report.raw_values))

    def test_best_configuration(self, random_optimizer, tpcc_execution, cluster):
        sampler = NaiveDistributedSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        for i in range(3):
            run_iteration(sampler, i)
        config, value = sampler.best_configuration()
        assert config is not None and value > 0


class TestTunaSampler:
    def _make(self, optimizer, execution, cluster, **kwargs):
        return TunaSampler(optimizer, execution, cluster, seed=0, **kwargs)

    def test_budget_cannot_exceed_cluster(self, smac_optimizer, tpcc_execution):
        small = Cluster(n_workers=4, seed=0)
        with pytest.raises(ValueError):
            TunaSampler(smac_optimizer, tpcc_execution, small, budgets=(1, 3, 10))

    def test_new_configs_start_at_min_budget(self, smac_optimizer, tpcc_execution, cluster):
        sampler = self._make(smac_optimizer, tpcc_execution, cluster)
        report = run_iteration(sampler, 0)
        assert report.budget == 1
        assert report.n_new_samples == 1

    def test_promotions_reuse_samples(self, random_optimizer, tpcc_execution, cluster):
        sampler = self._make(random_optimizer, tpcc_execution, cluster)
        reports = [run_iteration(sampler, i) for i in range(12)]
        promoted = [r for r in reports if r.budget == 3]
        assert promoted, "expected at least one promotion to budget 3"
        # A promotion to budget 3 only schedules 2 new samples (1 reused).
        assert all(r.n_new_samples == 2 for r in promoted)
        for report in promoted:
            workers = sampler.datastore.workers_used(report.config)
            assert len(set(workers)) == len(workers)  # all on distinct nodes

    def test_unstable_config_detected_and_penalised(self, random_optimizer, cluster, postgres_system):
        execution = ExecutionEngine(postgres_system, TPCC, seed=5)
        sampler = self._make(random_optimizer, execution, cluster)
        unstable = postgres_system.knob_space.partial_configuration(
            random_page_cost=2.0, work_mem_mb=64, shared_buffers_mb=8_000
        )
        # Force the pipeline to process this config at the full budget.
        samples = execution.evaluate_on_many(unstable, cluster.workers, 0, 10)
        sampler.datastore.extend(samples)
        values = [s.value for s in samples]
        detected = sampler.outlier_detector.is_unstable(samples)
        assert detected
        from repro.core.aggregation import aggregate, apply_instability_penalty

        agg = aggregate(values, TPCC.objective)
        assert apply_instability_penalty(agg, TPCC.objective) == pytest.approx(agg / 2)

    def test_noise_adjuster_trains_after_max_budget(self, random_optimizer, tpcc_execution, cluster):
        sampler = self._make(random_optimizer, tpcc_execution, cluster, budgets=(1, 2, 3))
        for i in range(25):
            run_iteration(sampler, i)
        assert sampler.noise_adjuster.generation >= 1

    def test_ablation_switches(self, random_optimizer, tpcc_execution, cluster):
        no_model = self._make(
            random_optimizer, tpcc_execution, cluster, use_noise_adjuster=False
        )
        report = run_iteration(no_model, 0)
        assert report.details["model_generation"] == 0
        no_outlier = TunaSampler(
            RandomSearchOptimizer(tpcc_execution.system.knob_space, seed=1),
            tpcc_execution,
            cluster,
            seed=1,
            use_outlier_detector=False,
        )
        for i in range(5):
            assert run_iteration(no_outlier, i).unstable is False

    def test_best_configuration_prefers_stable_max_budget(
        self, random_optimizer, tpcc_execution, cluster
    ):
        sampler = self._make(random_optimizer, tpcc_execution, cluster, budgets=(1, 2, 3))
        for i in range(20):
            run_iteration(sampler, i)
        best_config, best_value = sampler.best_configuration()
        assert best_config not in sampler._unstable_configs

    def test_build_sampler_factory(self, random_optimizer, tpcc_execution, cluster):
        assert isinstance(
            build_sampler("tuna", random_optimizer, tpcc_execution, cluster), TunaSampler
        )
        assert isinstance(
            build_sampler("traditional", random_optimizer, tpcc_execution, cluster),
            TraditionalSampler,
        )
        assert isinstance(
            build_sampler("naive", random_optimizer, tpcc_execution, cluster),
            NaiveDistributedSampler,
        )
        with pytest.raises(KeyError):
            build_sampler("hyperband", random_optimizer, tpcc_execution, cluster)


class TestTuningLoopAndDeployment:
    def test_requires_stopping_criterion(self, random_optimizer, tpcc_execution, cluster):
        sampler = TraditionalSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        with pytest.raises(ValueError):
            TuningLoop(sampler)
        with pytest.raises(ValueError):
            TuningLoop(sampler, n_iterations=0)

    def test_batch_size_is_a_positive_integer(
        self, random_optimizer, tpcc_execution, cluster
    ):
        sampler = TraditionalSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        assert TuningLoop(sampler, n_iterations=1).batch_size == 1
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(sampler, n_iterations=1, batch_size=0)
        # There is no separate sequential driver behind ``None``.
        with pytest.raises(TypeError):
            TuningLoop(sampler, n_iterations=1, batch_size=None)

    def test_iteration_budget_respected(self, random_optimizer, tpcc_execution, cluster):
        sampler = TraditionalSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        result = TuningLoop(sampler, n_iterations=6).run()
        assert result.n_iterations == 6
        assert result.n_samples == 6
        assert len(result.history) == 6
        assert result.wall_clock_hours > 0

    def test_wall_clock_budget_respected(self, random_optimizer, tpcc_execution, cluster):
        sampler = TraditionalSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        per_iter = tpcc_execution.wall_clock_hours_per_evaluation
        result = TuningLoop(sampler, wall_clock_hours=per_iter * 3.5).run()
        assert result.n_iterations == 4  # stops once the budget is exceeded

    def test_max_samples_budget(self, random_optimizer, tpcc_execution, cluster):
        sampler = NaiveDistributedSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        result = TuningLoop(sampler, max_samples=25).run()
        assert result.n_samples >= 25
        assert result.n_iterations == 3

    def test_best_so_far_trace_monotone(self, random_optimizer, tpcc_execution, cluster):
        sampler = TraditionalSampler(random_optimizer, tpcc_execution, cluster, seed=0)
        result = TuningLoop(sampler, n_iterations=10).run()
        trace = result.best_so_far_trace()
        assert len(trace) == 10
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_full_tuna_run_and_deployment(self, postgres_system, cluster):
        execution = ExecutionEngine(postgres_system, TPCC, seed=2)
        optimizer = SMACOptimizer(
            postgres_system.knob_space, seed=2, n_initial_design=5, n_candidates=60, n_trees=6
        )
        sampler = TunaSampler(optimizer, execution, cluster, seed=2)
        result = TuningLoop(sampler, n_iterations=20).run()
        assert result.sampler_name == "tuna"
        fresh = cluster.provision_fresh_nodes(5)
        deployment = deploy_configuration(postgres_system, TPCC, result.best_config, fresh, seed=3)
        assert len(deployment.values) == 5
        assert deployment.mean > 0
        assert deployment.std >= 0
        assert 0 <= deployment.crashes <= 5
        assert deployment.relative_range >= 0

    def test_deployment_requires_nodes(self, postgres_system):
        with pytest.raises(ValueError):
            deploy_configuration(
                postgres_system, TPCC, postgres_system.default_configuration(), []
            )
