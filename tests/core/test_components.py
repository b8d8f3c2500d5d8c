"""Unit tests for the individual TUNA components."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cloud import Cluster, TELEMETRY_METRICS
from repro.configspace import ConfigurationSpace, FloatParameter
from repro.core.aggregation import AggregationPolicy, aggregate, apply_instability_penalty
from repro.core.datastore import Datastore, Sample
from repro.core.multi_fidelity import SuccessiveHalvingSchedule
from repro.core import noise_adjuster as noise_adjuster_module
from repro.core.noise_adjuster import NoiseAdjuster
from repro.core.outlier import OutlierDetector
from repro.core.scheduler import MultiFidelityTaskScheduler
from repro.workloads.base import Objective


def tiny_space():
    return ConfigurationSpace([FloatParameter("x", 0.0, 1.0)], seed=0)


def make_sample(config, worker="worker-0", value=100.0, crashed=False, telemetry="auto"):
    if telemetry == "auto":
        telemetry = np.random.default_rng(0).random(len(TELEMETRY_METRICS))
    return Sample(
        config=config,
        worker_id=worker,
        value=value,
        objective_unit="tx/s",
        iteration=0,
        budget=1,
        crashed=crashed,
        telemetry=telemetry,
    )


class TestAggregation:
    def test_min_policy_throughput_takes_lowest(self):
        assert aggregate([100, 200, 50], Objective.THROUGHPUT) == 50

    def test_min_policy_latency_takes_highest(self):
        """Worst case for latency is the *largest* value."""
        assert aggregate([1.0, 3.0, 2.0], Objective.P95_LATENCY) == 3.0

    def test_max_policy(self):
        assert aggregate([1.0, 3.0], Objective.THROUGHPUT, AggregationPolicy.MAX) == 3.0
        assert aggregate([1.0, 3.0], Objective.RUNTIME, AggregationPolicy.MAX) == 1.0

    def test_mean_and_median(self):
        assert aggregate([1.0, 2.0, 6.0], Objective.THROUGHPUT, AggregationPolicy.MEAN) == 3.0
        assert aggregate([1.0, 2.0, 6.0], Objective.THROUGHPUT, AggregationPolicy.MEDIAN) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], Objective.THROUGHPUT)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            aggregate([1.0, float("nan")], Objective.THROUGHPUT)

    def test_penalty_halves_throughput(self):
        assert apply_instability_penalty(1000.0, Objective.THROUGHPUT) == 500.0

    def test_penalty_doubles_latency(self):
        assert apply_instability_penalty(10.0, Objective.P95_LATENCY) == 20.0

    @given(st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=20))
    def test_min_never_exceeds_mean_for_throughput(self, values):
        assert aggregate(values, Objective.THROUGHPUT) <= aggregate(
            values, Objective.THROUGHPUT, AggregationPolicy.MEAN
        ) + 1e-9


class TestOutlierDetector:
    def test_stable_config_not_flagged(self):
        detector = OutlierDetector()
        assert not detector.is_unstable_values([100, 102, 99, 101])

    def test_unstable_config_flagged(self):
        detector = OutlierDetector()
        assert detector.is_unstable_values([100, 102, 55, 101])

    def test_single_sample_never_flagged(self):
        assert not OutlierDetector().is_unstable_values([42.0])

    def test_threshold_boundary(self):
        detector = OutlierDetector(threshold=0.30)
        # Exactly 30% relative range is *not* above the threshold.
        values = [85.0, 100.0, 115.0]
        assert detector.relative_range(values) == pytest.approx(0.30)
        assert not detector.is_unstable_values(values)

    def test_custom_threshold(self):
        strict = OutlierDetector(threshold=0.10)
        assert strict.is_unstable_values([100, 95, 112])

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            OutlierDetector(threshold=0.0)

    def test_crash_is_always_unstable(self):
        config = tiny_space().default_configuration()
        samples = [make_sample(config, value=100.0), make_sample(config, value=101.0, crashed=True)]
        assert OutlierDetector().is_unstable(samples)

    def test_empty_samples_not_unstable(self):
        assert not OutlierDetector().is_unstable([])

    def test_insensitive_to_outlier_count(self):
        """Paper §4.2: one or many outliers classify the same way."""
        detector = OutlierDetector()
        one = [100, 100, 100, 100, 100, 100, 100, 100, 100, 50]
        many = [100, 100, 100, 100, 100, 50, 50, 50, 50, 50]
        assert detector.is_unstable_values(one)
        assert detector.is_unstable_values(many)


class TestDatastore:
    def test_add_and_query(self):
        space = tiny_space()
        config_a = space.default_configuration()
        config_b = space.partial_configuration(x=0.9)
        store = Datastore()
        store.add(make_sample(config_a, worker="worker-0", value=10.0))
        store.add(make_sample(config_a, worker="worker-1", value=12.0))
        store.add(make_sample(config_b, worker="worker-2", value=20.0))
        assert store.n_samples == 3
        assert store.n_configs == 2
        assert store.values_for(config_a) == [10.0, 12.0]
        assert store.workers_used(config_a) == ["worker-0", "worker-1"]
        assert store.samples_for(config_b)[0].value == 20.0
        assert store.max_samples_per_config() == 2

    def test_configs_with_at_least_ignores_crashes(self):
        space = tiny_space()
        config = space.default_configuration()
        store = Datastore()
        store.add(make_sample(config, value=10.0))
        store.add(make_sample(config, value=float(11), crashed=True))
        assert store.configs_with_at_least(2) == []
        assert store.configs_with_at_least(1) == [config]

    def test_effective_value_prefers_adjusted(self):
        sample = make_sample(tiny_space().default_configuration(), value=100.0)
        assert sample.effective_value == 100.0
        sample.adjusted_value = 97.0
        assert sample.effective_value == 97.0

    def test_empty_store(self):
        store = Datastore()
        assert store.n_samples == 0
        assert store.max_samples_per_config() == 0
        assert store.configs() == []


class TestSuccessiveHalving:
    def _schedule(self, objective=Objective.THROUGHPUT):
        return SuccessiveHalvingSchedule(objective=objective, budgets=(1, 3, 10), eta=3.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SuccessiveHalvingSchedule(objective=Objective.THROUGHPUT, budgets=(5,))
        with pytest.raises(ValueError):
            SuccessiveHalvingSchedule(objective=Objective.THROUGHPUT, budgets=(3, 1))
        with pytest.raises(ValueError):
            SuccessiveHalvingSchedule(objective=Objective.THROUGHPUT, budgets=(1, 3), eta=1.0)

    def test_budget_navigation(self):
        schedule = self._schedule()
        assert schedule.min_budget == 1
        assert schedule.max_budget == 10
        assert schedule.next_budget(1) == 3
        assert schedule.next_budget(10) is None
        with pytest.raises(ValueError):
            schedule.next_budget(7)

    def test_no_promotion_until_rung_filled(self):
        schedule = self._schedule()
        space = tiny_space()
        schedule.record(space.partial_configuration(x=0.1), 1, 100.0)
        schedule.record(space.partial_configuration(x=0.2), 1, 200.0)
        assert schedule.propose_promotion() is None

    def test_best_config_promoted_first(self):
        schedule = self._schedule()
        space = tiny_space()
        configs = [space.partial_configuration(x=0.1 * i) for i in range(1, 7)]
        for i, config in enumerate(configs):
            schedule.record(config, 1, 100.0 + i * 10)
        config, budget = schedule.propose_promotion()
        assert budget == 3
        assert config == configs[-1]  # highest throughput

    def test_promotion_direction_for_runtime(self):
        schedule = self._schedule(objective=Objective.RUNTIME)
        space = tiny_space()
        fast = space.partial_configuration(x=0.1)
        slow = space.partial_configuration(x=0.9)
        third = space.partial_configuration(x=0.5)
        schedule.record(fast, 1, 50.0)
        schedule.record(slow, 1, 200.0)
        schedule.record(third, 1, 100.0)
        config, _ = schedule.propose_promotion()
        assert config == fast  # lowest runtime wins

    def test_config_not_promoted_twice(self):
        schedule = self._schedule()
        space = tiny_space()
        for i in range(1, 4):
            schedule.record(space.partial_configuration(x=0.1 * i), 1, 100.0 * i)
        first = schedule.propose_promotion()
        assert first is not None
        assert schedule.propose_promotion() is None  # only top 1/3 promotable

    def test_rollback_makes_proposal_available_again(self):
        schedule = self._schedule()
        space = tiny_space()
        for i in range(1, 4):
            schedule.record(space.partial_configuration(x=0.1 * i), 1, 100.0 * i)
        config, budget = schedule.propose_promotion()
        assert schedule.n_pending_promotions() == 0  # reserved while in flight
        schedule.rollback_promotion(config)
        assert schedule.n_pending_promotions() == 1
        again = schedule.propose_promotion()
        assert again == (config, budget)

    def test_commit_finalises_the_promotion(self):
        schedule = self._schedule()
        space = tiny_space()
        for i in range(1, 4):
            schedule.record(space.partial_configuration(x=0.1 * i), 1, 100.0 * i)
        config, _ = schedule.propose_promotion()
        schedule.commit_promotion(config)
        assert schedule.propose_promotion() is None
        with pytest.raises(KeyError):  # nothing pending any more
            schedule.rollback_promotion(config)

    def test_record_updates_existing_entry(self):
        schedule = self._schedule()
        config = tiny_space().default_configuration()
        schedule.record(config, 1, 100.0)
        schedule.record(config, 1, 150.0)
        assert len(schedule.rung_configs(1)) == 1

    def test_configs_at_max_budget(self):
        schedule = self._schedule()
        config = tiny_space().default_configuration()
        schedule.record(config, 10, 500.0)
        assert schedule.configs_at_max_budget() == [config]

    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError):
            self._schedule().record(tiny_space().default_configuration(), 7, 1.0)


class TestScheduler:
    def test_assign_excludes_used_workers(self):
        cluster = Cluster(n_workers=10, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        config = tiny_space().default_configuration()
        chosen = scheduler.assign(config, 3, already_used=["worker-0"])
        assert len(chosen) == 2
        assert all(vm.vm_id != "worker-0" for vm in chosen)

    def test_assign_returns_empty_when_budget_met(self):
        cluster = Cluster(n_workers=5, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        config = tiny_space().default_configuration()
        assert scheduler.assign(config, 2, ["worker-0", "worker-1"]) == []

    def test_budget_larger_than_cluster_rejected(self):
        cluster = Cluster(n_workers=3, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        with pytest.raises(ValueError):
            scheduler.assign(tiny_space().default_configuration(), 5, [])

    def test_invalid_budget(self):
        cluster = Cluster(n_workers=3, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        with pytest.raises(ValueError):
            scheduler.assign(tiny_space().default_configuration(), 0, [])

    def test_unknown_used_workers_tolerated(self):
        """Sample history from outside the cluster (e.g. a replaced node) is
        counted towards the budget but never scheduled again."""
        cluster = Cluster(n_workers=3, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        chosen = scheduler.assign(
            tiny_space().default_configuration(), 3, ["worker-x", "worker-0"]
        )
        assert len(chosen) == 1
        assert chosen[0].vm_id in {"worker-1", "worker-2"}

    def test_load_balancing_spreads_samples(self):
        cluster = Cluster(n_workers=4, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        space = tiny_space()
        for i in range(8):
            config = space.partial_configuration(x=(i + 1) / 10.0)
            scheduler.assign(config, 1, [])
        loads = scheduler.load_snapshot()
        assert max(loads.values()) - min(loads.values()) <= 1

    def test_reserved_workers_assigned_last(self):
        cluster = Cluster(n_workers=4, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        space = tiny_space()
        scheduler.reserve(["worker-0", "worker-1", "worker-2"])
        chosen = scheduler.assign(space.partial_configuration(x=0.1), 1, [])
        assert chosen[0].vm_id == "worker-3"  # the only idle worker
        # With every idle worker exhausted, reserved ones are still eligible
        # (their queue just grows).
        chosen = scheduler.assign(
            space.partial_configuration(x=0.1), 2, ["worker-3"]
        )
        assert chosen[0].vm_id in {"worker-0", "worker-1", "worker-2"}

    def test_reserve_release_bookkeeping(self):
        cluster = Cluster(n_workers=2, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        scheduler.reserve(["worker-0", "worker-0", "worker-1"])
        assert scheduler.n_reserved() == 3
        scheduler.release(["worker-0", "worker-1"])
        assert scheduler.n_reserved() == 1
        with pytest.raises(RuntimeError):
            scheduler.release(["worker-1"])  # nothing left to release
        with pytest.raises(KeyError):
            scheduler.reserve(["worker-x"])
        with pytest.raises(KeyError):
            scheduler.release(["worker-x"])

    def test_failed_reserve_and_release_change_nothing(self):
        cluster = Cluster(n_workers=3, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        scheduler.reserve(["worker-0", "worker-1"])

        def state():
            return scheduler.n_reserved(), dict(scheduler._reserved)

        before = state()
        with pytest.raises(KeyError):
            scheduler.reserve(["worker-0", "bogus"])
        assert state() == before
        with pytest.raises(KeyError):
            scheduler.release(["worker-0", "bogus"])
        assert state() == before
        with pytest.raises(RuntimeError):
            scheduler.release(["worker-0", "worker-2"])  # worker-2 holds none
        assert state() == before
        with pytest.raises(RuntimeError):
            scheduler.release(["worker-1", "worker-1"])  # holds only one
        assert state() == before

    def test_record_external_load(self):
        cluster = Cluster(n_workers=2, seed=0)
        scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
        scheduler.record_external_load("worker-0", 5)
        assert scheduler.load_snapshot()["worker-0"] == 5
        with pytest.raises(KeyError):
            scheduler.record_external_load("worker-99")


class TestNoiseAdjuster:
    def _training_groups(self, n_configs=6, n_workers=10, noise=0.05, seed=0):
        """Synthetic groups where noise is fully explained by one metric."""
        rng = np.random.default_rng(seed)
        space = tiny_space()
        worker_ids = [f"worker-{i}" for i in range(n_workers)]
        groups = []
        for c in range(n_configs):
            config = space.partial_configuration(x=(c + 1) / (n_configs + 1))
            base = 1000.0 * (1 + c / 10)
            samples = []
            for w, worker in enumerate(worker_ids):
                error = float(rng.normal(0.0, noise))
                telemetry = np.zeros(len(TELEMETRY_METRICS))
                telemetry[0] = error  # cpu_percent carries the noise signal
                telemetry[1:] = rng.random(len(TELEMETRY_METRICS) - 1) * 0.01
                samples.append(
                    Sample(
                        config=config,
                        worker_id=worker,
                        value=base * (1 + error),
                        objective_unit="tx/s",
                        iteration=c,
                        budget=10,
                        telemetry=telemetry,
                    )
                )
            groups.append(samples)
        return groups, worker_ids

    def test_requires_workers(self):
        with pytest.raises(ValueError):
            NoiseAdjuster(worker_ids=[])

    def test_untrained_model_passthrough(self):
        groups, workers = self._training_groups(n_configs=1)
        adjuster = NoiseAdjuster(worker_ids=workers, seed=0)
        sample = groups[0][0]
        assert adjuster.adjust(sample) == sample.value
        assert not adjuster.is_trained

    def test_predict_before_training_raises(self):
        adjuster = NoiseAdjuster(worker_ids=["worker-0"], seed=0)
        with pytest.raises(RuntimeError):
            adjuster.predict_error(np.zeros(len(TELEMETRY_METRICS)), "worker-0")

    def test_training_requires_enough_data(self):
        adjuster = NoiseAdjuster(worker_ids=["worker-0", "worker-1"], seed=0)
        assert adjuster.train([]) is False
        assert not adjuster.is_trained

    def test_training_and_generation_counter(self):
        groups, workers = self._training_groups()
        adjuster = NoiseAdjuster(worker_ids=workers, seed=0)
        assert adjuster.train(groups) is True
        assert adjuster.is_trained
        assert adjuster.generation == 1
        adjuster.train(groups)
        assert adjuster.generation == 2

    def test_adjustment_reduces_noise(self):
        """The headline property (Fig. 19b): adjusted values are closer to the
        per-config mean than raw values."""
        groups, workers = self._training_groups(n_configs=8, noise=0.06, seed=1)
        adjuster = NoiseAdjuster(worker_ids=workers, seed=1)
        adjuster.train(groups)

        eval_groups, _ = self._training_groups(n_configs=4, noise=0.06, seed=99)
        raw_err, adj_err = [], []
        for samples in eval_groups:
            mean = np.mean([s.value for s in samples])
            for sample in samples:
                raw_err.append(abs(sample.value - mean) / mean)
                adj_err.append(abs(adjuster.adjust(sample) - mean) / mean)
        assert np.mean(adj_err) < np.mean(raw_err)

    def test_outlier_and_crash_bypass(self):
        groups, workers = self._training_groups()
        adjuster = NoiseAdjuster(worker_ids=workers, seed=0)
        adjuster.train(groups)
        sample = groups[0][0]
        assert adjuster.adjust(sample, is_outlier=True) == sample.value
        crashed = Sample(
            config=sample.config,
            worker_id=sample.worker_id,
            value=42.0,
            objective_unit="tx/s",
            iteration=0,
            budget=10,
            crashed=True,
            telemetry=sample.telemetry,
        )
        assert adjuster.adjust(crashed) == 42.0

    def test_adjustment_clipped_to_guardrail(self):
        groups, workers = self._training_groups()
        adjuster = NoiseAdjuster(worker_ids=workers, seed=0)
        adjuster.train(groups)
        sample = groups[0][0]
        adjusted = adjuster.adjust(sample)
        assert 0.7 * sample.value <= adjusted <= 1.45 * sample.value

    def test_wrong_telemetry_length_rejected(self):
        adjuster = NoiseAdjuster(worker_ids=["worker-0"], seed=0)
        with pytest.raises(ValueError):
            adjuster._features(np.zeros(3), "worker-0")

    def test_invalid_min_training_configs(self):
        with pytest.raises(ValueError):
            NoiseAdjuster(worker_ids=["w"], min_training_configs=0)

    def test_invalid_tree_count_rejected_at_construction(self):
        with pytest.raises(ValueError, match="n_trees"):
            NoiseAdjuster(worker_ids=["w0", "w1"], n_trees=0)

    def test_duplicate_worker_ids_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unique"):
            NoiseAdjuster(worker_ids=["w0", "w0", "w1"])


class TestNoiseAdjusterCache:
    def test_identical_training_data_reuses_model(self):
        groups, workers = TestNoiseAdjuster._training_groups(TestNoiseAdjuster())
        adjuster = NoiseAdjuster(worker_ids=workers, seed=0)
        assert adjuster.train(groups) is True
        model_a = adjuster._model
        generation_a = adjuster.generation
        assert adjuster.train(groups) is True
        assert adjuster._model is model_a  # refit skipped
        assert adjuster.generation == generation_a + 1  # counter still advances

    def test_changed_training_data_refits(self, monkeypatch):
        # The paper's every-point schedule: any change to the training set
        # refits.  The default geometric schedule lags; its contract lives in
        # tests/core/test_noise_refit_schedule.py.
        monkeypatch.setattr(noise_adjuster_module, "REFIT_GROWTH", 1.0)
        groups, workers = TestNoiseAdjuster._training_groups(TestNoiseAdjuster())
        adjuster = NoiseAdjuster(worker_ids=workers, seed=0)
        assert adjuster.train(groups) is True
        model_a = adjuster._model
        grown = [list(group) for group in groups]
        grown[0] = grown[0] + grown[0][:1]
        assert adjuster.train(grown) is True
        assert adjuster._model is not model_a
