"""Tests for fault injection and speculative re-execution in the engine.

Covers the repo's signature guarantee (the ``"none"`` model reproduces
uninjected trajectories bit-for-bit), seeded reproducibility of injected
runs, event-loop cancellation bookkeeping, and the first-finish-wins
mechanics: the optimizer sees exactly one result per sample, the loser is
cancelled and its worker released.
"""

import pytest

from repro.cloud import Cluster, FleetSpec
from repro.core import (
    AsyncExecutionEngine,
    ClusterEventLoop,
    ExecutionEngine,
    TunaSampler,
    TuningLoop,
    WorkRequest,
)
from repro.core.async_engine import check_lockstep
from repro.faults import FaultModel, NoFaultModel, SpeculationPolicy, build_fault_model
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
        (s.worker_id, s.value, s.iteration, s.budget)
        for s in sampler.datastore.all_samples()
    ]


def run_tuna(seed=5, batch_size=5, max_samples=40, **loop_kwargs):
    _, cluster, execution, opt = make_setup(seed)
    sampler = TunaSampler(opt, execution, cluster, seed=seed)
    result = TuningLoop(
        sampler, max_samples=max_samples, batch_size=batch_size, **loop_kwargs
    ).run()
    return sampler, result, cluster


class ScriptedStretch(FaultModel):
    """Stretches the n-th submission by a fixed factor (1.0 otherwise)."""

    name = "scripted"

    def __init__(self, stretch_at, factor=10.0):
        super().__init__(seed=0)
        self.stretch_at = stretch_at
        self.factor = factor
        self.calls = 0

    def stretch(self, context):
        call = self.calls
        self.calls += 1
        return self.factor if call == self.stretch_at else 1.0


class TestNoneModelEquivalence:
    """The signature guarantee: 'none' model == no model, bit for bit."""

    def test_async_trajectories_identical(self):
        plain_sampler, plain_result, plain_cluster = run_tuna()
        null_sampler, null_result, null_cluster = run_tuna(fault_model="none")
        assert sample_trajectory(plain_sampler) == sample_trajectory(null_sampler)
        assert plain_result.wall_clock_hours == null_result.wall_clock_hours
        assert plain_result.best_config == null_result.best_config
        for vm_a, vm_b in zip(plain_cluster.workers, null_cluster.workers):
            assert vm_a.clock_hours == vm_b.clock_hours

    def test_instance_and_name_are_equivalent(self):
        by_name_sampler, _, _ = run_tuna(fault_model="none")
        by_instance_sampler, _, _ = run_tuna(fault_model=NoFaultModel())
        assert sample_trajectory(by_name_sampler) == sample_trajectory(
            by_instance_sampler
        )


class TestInjectedRunsAreReproducible:
    def test_same_seed_same_trajectory(self):
        a_sampler, a_result, _ = run_tuna(fault_model=build_fault_model("lognormal", seed=7))
        b_sampler, b_result, _ = run_tuna(fault_model=build_fault_model("lognormal", seed=7))
        assert sample_trajectory(a_sampler) == sample_trajectory(b_sampler)
        assert a_result.wall_clock_hours == b_result.wall_clock_hours

    def test_speculative_runs_are_reproducible_too(self):
        def kwargs():
            return dict(fault_model=build_fault_model("lognormal", seed=7), speculation=True)

        a_sampler, a_result, _ = run_tuna(**kwargs())
        b_sampler, b_result, _ = run_tuna(**kwargs())
        assert sample_trajectory(a_sampler) == sample_trajectory(b_sampler)
        assert a_result.engine_stats == b_result.engine_stats

    def test_faults_lengthen_the_makespan(self):
        _, clean, _ = run_tuna()
        _, faulty, _ = run_tuna(fault_model=build_fault_model("lognormal", seed=3))
        assert faulty.wall_clock_hours > clean.wall_clock_hours
        # Stretched requests can shift which proposals straddle the sample
        # cap, but the budget itself is still honoured.
        assert faulty.n_samples >= clean.n_samples


class TestLoopValidation:
    def test_active_fault_model_requires_async_batches(self):
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(sampler, max_samples=10, fault_model="lognormal")
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(sampler, max_samples=10, batch_size=1, fault_model="lognormal")
        # The null model is allowed everywhere (it is structurally inert).
        TuningLoop(sampler, max_samples=10, fault_model="none")
        TuningLoop(sampler, max_samples=10, batch_size=1, fault_model="none")

    def test_speculation_requires_async_batches(self):
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        with pytest.raises(ValueError, match="speculat"):
            TuningLoop(sampler, max_samples=10, speculation=True)
        with pytest.raises(ValueError, match="speculat"):
            TuningLoop(sampler, max_samples=10, batch_size=1, speculation=True)

    def test_engine_rejects_lockstep_fault_injection(self):
        _, cluster, execution, _ = make_setup(0)
        with pytest.raises(ValueError):
            AsyncExecutionEngine(
                execution, cluster, lockstep=True, fault_model="lognormal"
            )
        with pytest.raises(ValueError):
            AsyncExecutionEngine(execution, cluster, lockstep=True, speculation=True)

    def test_loop_and_engine_share_the_lockstep_check(self):
        # TuningLoop and the lockstep engine run one check, so both reject
        # the same settings in the same words.
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        for kwargs in ({"fault_model": "lognormal"}, {"speculation": True}):
            with pytest.raises(ValueError) as loop_error:
                TuningLoop(sampler, max_samples=10, **kwargs)
            with pytest.raises(ValueError) as engine_error:
                AsyncExecutionEngine(execution, cluster, lockstep=True, **kwargs)
            assert str(loop_error.value) == str(engine_error.value)


class TestCheckLockstep:
    def test_absent_and_null_models_pass(self):
        assert check_lockstep((None, NoFaultModel(), None), None) is None

    def test_armed_model_is_named(self):
        with pytest.raises(ValueError) as error:
            check_lockstep((None, ScriptedStretch(0)), None)
        message = str(error.value)
        assert ScriptedStretch.family in message
        assert "batch_size >= 2" in message and "lockstep" in message

    def test_speculation_policy_is_rejected(self):
        with pytest.raises(ValueError) as error:
            check_lockstep((None,), SpeculationPolicy())
        message = str(error.value)
        assert "speculat" in message
        assert "batch_size" in message and "lockstep" in message


class TestEventLoopCancellation:
    def _loop(self, fault_model=None):
        cluster = Cluster(n_workers=3, seed=0)
        return cluster, ClusterEventLoop(cluster, fault_model=fault_model)

    def _request(self, cluster):
        space = PostgreSQLSystem().knob_space
        return WorkRequest(space.default_configuration(), 1, list(cluster.workers), 0)

    def test_cancelled_item_never_pops_and_frees_the_worker(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        slow = loop.submit(request, cluster.workers[0], 5.0)
        fast = loop.submit(request, cluster.workers[1], 1.0)
        first = loop.next_completion()
        assert first is fast
        loop.cancel(slow)
        # The cancelled run occupied its worker from start until the cancel.
        assert loop.worker_free_at("worker-0") == loop.now
        assert loop.n_in_flight == 0
        assert loop.peek_finish() is None
        with pytest.raises(RuntimeError):
            loop.next_completion()
        # Its (phantom) finish never counted towards the makespan.
        assert loop.makespan == 1.0

    def test_cancelling_a_queued_item_rolls_back_to_its_start(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        loop.submit(request, cluster.workers[0], 2.0)
        queued = loop.submit(request, cluster.workers[0], 2.0)
        loop.cancel(queued)
        assert loop.worker_free_at("worker-0") == 2.0

    def test_cancel_is_idempotent_and_guards_evaluated_items(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        item = loop.submit(request, cluster.workers[0], 1.0)
        loop.cancel(item)
        loop.cancel(item)  # no-op
        assert loop.n_in_flight == 0
        done = loop.submit(request, cluster.workers[1], 1.0)
        loop.next_completion()
        done.sample = object()
        with pytest.raises(RuntimeError):
            loop.cancel(done)

    def test_items_queued_behind_a_cancelled_one_keep_their_times(self):
        cluster, loop = self._loop()
        request = self._request(cluster)
        first = loop.submit(request, cluster.workers[0], 2.0)
        second = loop.submit(request, cluster.workers[0], 2.0)
        loop.cancel(first)
        # Conservative: the successor was scheduled at t=2 and stays there.
        assert second.start_hours == 2.0
        assert loop.worker_free_at("worker-0") == 4.0


class TestSpeculationMechanics:
    def _engine(self, stretch_at, n_workers=6, factor=10.0, **policy_kwargs):
        _, cluster, execution, _ = make_setup(1, n_workers=n_workers)
        policy = SpeculationPolicy(
            quantile=0.5, slack=1.2, min_history=3, **policy_kwargs
        )
        model = ScriptedStretch(stretch_at=stretch_at, factor=factor)
        engine = AsyncExecutionEngine(
            execution, cluster, fault_model=model, speculation=policy
        )
        return engine, cluster

    def _submit_singles(self, engine, cluster, workers):
        import numpy as np

        space = PostgreSQLSystem().knob_space
        requests = []
        for i, worker_index in enumerate(workers):
            config = space.sample(np.random.default_rng(i))
            request = WorkRequest(config, 1, [cluster.workers[worker_index]], i)
            engine.submit(request)
            requests.append(request)
        return requests

    def test_first_finish_wins_and_loser_is_cancelled(self):
        # Worker 0 gets a 10x straggler; workers 1-3 complete quickly and
        # build the detector history.  The straggler crosses the detection
        # threshold between completions (a detection event), and the clone
        # lands on the first idle eligible worker: worker 1.
        engine, cluster = self._engine(stretch_at=0)
        requests = self._submit_singles(engine, cluster, [0, 1, 2, 3])
        completed = {}
        while engine.n_in_flight_requests:
            request, samples = engine.next_completed_request()
            completed[id(request)] = samples
        assert len(completed) == 4
        assert engine.engine_stats()["n_stragglers_detected"] == 1
        assert engine.engine_stats()["n_duplicates_submitted"] == 1
        assert engine.engine_stats()["n_duplicate_wins"] == 1
        assert engine.engine_stats()["n_items_cancelled"] == 1
        # The straggling request still yielded exactly one sample, taken on
        # the duplicate's worker.
        straggler_samples = completed[id(requests[0])]
        assert len(straggler_samples) == 1
        assert straggler_samples[0].worker_id == "worker-1"
        assert straggler_samples[0].details.get("speculative") is True
        # The straggling worker was released at the winner's finish time,
        # and the loser's phantom 10x finish never entered the makespan.
        assert engine.loop.worker_free_at("worker-0") <= engine.loop.now
        assert engine.makespan_hours < 3.0 * engine.duration_hours

    def test_clone_goes_to_the_fastest_idle_eligible_worker(self):
        # Four slow workers run the originals; two fast, never-used workers
        # sit idle.  The duplicate of worker 0's straggler must take the
        # faster group over the slow workers that finished first, and the
        # lower cluster index within it.
        system = PostgreSQLSystem()
        cluster = Cluster(
            seed=1,
            fleet=FleetSpec.of(
                (("westus2", "Standard_D8s_v4", 4), ("westus2", "Standard_D16s_v5", 2))
            ),
        )
        engine = AsyncExecutionEngine(
            ExecutionEngine(system, TPCC, seed=1),
            cluster,
            fault_model=ScriptedStretch(stretch_at=0),
            speculation=SpeculationPolicy(quantile=0.5, slack=1.2, min_history=3),
        )
        requests = self._submit_singles(engine, cluster, [0, 1, 2, 3])
        completed = {}
        while engine.n_in_flight_requests:
            request, samples = engine.next_completed_request()
            completed[id(request)] = samples
        assert engine.engine_stats()["n_duplicates_submitted"] == 1
        assert engine.engine_stats()["n_duplicate_wins"] == 1
        (sample,) = completed[id(requests[0])]
        assert sample.details.get("speculative") is True
        assert sample.worker_id == cluster.workers[4].vm_id

    def test_original_win_cancels_the_clone(self):
        # Stretch mild enough that the original still finishes before the
        # clone (which only starts at the detection crossing): 2x the base
        # duration against a clone launched at ~1.2x elapsed.
        engine, cluster = self._engine(stretch_at=0)
        engine.loop.fault_model.factor = 2.0
        self._submit_singles(engine, cluster, [0, 1, 2, 3])
        while engine.n_in_flight_requests:
            engine.next_completed_request()
        assert engine.engine_stats()["n_duplicates_submitted"] == 1
        assert engine.engine_stats()["n_duplicate_wins"] == 0
        assert engine.engine_stats()["n_duplicate_losses"] == 1
        assert engine.engine_stats()["n_items_cancelled"] == 1

    def test_detection_event_fires_between_completions(self):
        # Four workers, all busy at detection time; the fast three have
        # finished by the crossing, so one of them hosts the duplicate and
        # the race still resolves to exactly one sample for the slot.
        engine, cluster = self._engine(stretch_at=0, n_workers=4)
        self._submit_singles(engine, cluster, [0, 1, 2, 3])
        while engine.n_in_flight_requests:
            engine.next_completed_request()
        stats = engine.engine_stats()
        assert stats["n_stragglers_detected"] == 1
        assert stats["n_duplicates_submitted"] == 1
        assert stats["n_duplicate_wins"] + stats["n_duplicate_losses"] == 1

    def test_multiple_clones_per_item_reconcile_cleanly(self):
        # max_clones_per_item >= 2: an extreme straggler gets a second
        # duplicate once the first one also crosses the threshold; whoever
        # finishes first supplies the slot's sample and *all* other copies
        # are cancelled.
        engine, cluster = self._engine(
            stretch_at=0, n_workers=8, max_clones_per_item=2
        )
        # The first clone is also stretched (every speculative draw returns
        # the scripted factor for submission index 4: the clone).
        engine.loop.fault_model.stretch_at = None

        class DoubleStraggler(ScriptedStretch):
            def stretch(self, context):
                call = self.calls
                self.calls += 1
                if call == 0:
                    return 30.0  # the original: extreme straggler
                if context.speculative and call == 4:
                    return 10.0  # the first clone straggles too
                return 1.0

        engine.loop.fault_model = DoubleStraggler(stretch_at=None)
        self._submit_singles(engine, cluster, [0, 1, 2, 3])
        completed = 0
        while engine.n_in_flight_requests:
            engine.next_completed_request()
            completed += 1
        assert completed == 4
        assert engine.engine_stats()["n_duplicates_submitted"] == 2
        assert engine.engine_stats()["n_duplicate_wins"] == 1
        assert engine.engine_stats()["n_duplicate_losses"] == 1
        assert engine.engine_stats()["n_items_cancelled"] == 2  # original + slow clone
        assert engine.loop.n_in_flight == 0
        # No scheduler in this standalone engine, so just check the loop
        # drained and every request produced exactly one sample per slot.
        assert engine.n_completed_requests == 4

    def test_multi_clone_tuning_run_stays_consistent(self):
        # Regression: max_clones_per_item >= 2 used to corrupt the
        # clone-pair bookkeeping (only the most recent clone was tracked),
        # crashing reconciliation with a KeyError.
        _, cluster, execution, opt = make_setup(23)
        sampler = TunaSampler(opt, execution, cluster, seed=23)
        policy = SpeculationPolicy(
            quantile=0.5, slack=1.1, min_history=3, max_clones_per_item=3
        )
        result = TuningLoop(
            sampler,
            max_samples=40,
            batch_size=6,
            fault_model=build_fault_model("lognormal", seed=23),
            speculation=policy,
        ).run()
        stats = result.engine_stats
        assert stats["n_duplicates_submitted"] > 0
        assert sampler.datastore.n_samples == result.n_samples
        assert sampler.scheduler.n_reserved() == 0
        assert sampler.optimizer.n_pending == 0
        for config in sampler.datastore.configs():
            workers = sampler.datastore.workers_used(config)
            assert len(set(workers)) == len(workers)

    def test_speculation_defaults_to_policy_instance(self):
        _, cluster, execution, _ = make_setup(2)
        engine = AsyncExecutionEngine(execution, cluster, speculation=True)
        assert isinstance(engine.speculation, SpeculationPolicy)
        engine = AsyncExecutionEngine(execution, cluster, speculation=False)
        assert engine.speculation is None


class TestSpeculativeTuningRun:
    def test_one_result_per_sample_and_distinct_nodes(self):
        sampler, result, _ = run_tuna(
            seed=37,
            batch_size=8,
            max_samples=60,
            fault_model=build_fault_model("lognormal", seed=37),
            speculation=True,
        )
        stats = result.engine_stats
        assert stats is not None
        assert stats["n_duplicates_submitted"] > 0, (
            "expected the heavy-tail run to trigger at least one speculation"
        )
        assert (
            stats["n_duplicate_wins"] + stats["n_duplicate_losses"]
            <= stats["n_duplicates_submitted"]
        )
        # Exactly one sample per accepted slot reached the datastore...
        assert sampler.datastore.n_samples == result.n_samples
        # ...never two samples of a configuration on the same node...
        for config in sampler.datastore.configs():
            workers = sampler.datastore.workers_used(config)
            assert len(set(workers)) == len(workers)
        # ...every fantasy was retracted, and no reservations leaked.
        assert sampler.optimizer.n_pending == 0
        assert sampler.scheduler.n_reserved() == 0

    def test_stats_absent_without_speculation(self):
        _, result, _ = run_tuna(fault_model=build_fault_model("lognormal", seed=1))
        assert result.engine_stats is None
