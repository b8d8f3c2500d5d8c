"""Edge cases of wave tell-batching (completions drained in one instant).

Satellite coverage for the optimizer-side tell batching of PR 3, exercised
against the new fault/speculation machinery: an empty wave must be a strict
no-op, a wave containing a speculative first-finish-wins slot must still
deliver exactly one result per sample, and a wave landing exactly at
``max_samples`` must close the run without overshoot.
"""

import pytest

from repro.cloud import Cluster
from repro.core import AsyncExecutionEngine, ExecutionEngine, TunaSampler, TuningLoop
from repro.faults import LognormalTailModel, build_fault_model
from repro.obs import MetricsRegistry
from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


def make_sampler(seed=0, optimizer="random", n_workers=10, **tuna_kwargs):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    if optimizer == "random":
        opt = RandomSearchOptimizer(system.knob_space, seed=seed)
    else:
        opt = SMACOptimizer(
            system.knob_space, seed=seed, n_initial_design=5,
            n_candidates=60, n_local=20, n_trees=6,
        )
    return TunaSampler(opt, execution, cluster, seed=seed, **tuna_kwargs)


class TestEmptyWave:
    def test_complete_work_batch_of_nothing_is_a_noop(self):
        sampler = make_sampler()
        version = sampler.optimizer.data_version
        assert sampler.complete_work_batch([]) == []
        # No observations, no retraction, no surrogate cache invalidation.
        assert sampler.optimizer.data_version == version
        assert sampler.optimizer.n_observations == 0
        assert sampler.datastore.n_samples == 0

    def test_optimizer_tell_batch_of_nothing_is_a_noop(self):
        sampler = make_sampler(optimizer="smac")
        version = sampler.optimizer.data_version
        sampler.optimizer.tell_batch([])
        assert sampler.optimizer.data_version == version


class TestSingletonWave:
    """Every wave, singletons included, reaches the optimizer through one
    ``tell_batch``: the sampler has no inline-``tell`` path left."""

    def test_default_driver_tells_in_one_batch_per_wave(self):
        registry = MetricsRegistry()
        sampler = make_sampler(optimizer="smac")
        result = TuningLoop(sampler, max_samples=12, metrics=registry).run()
        counters = registry.as_dict()["counters"]
        # Lockstep drains one request per wave: one batch of one per request.
        assert counters["optimizer.tell_batches"] == len(result.history) > 0
        assert counters["optimizer.tells"] == counters["optimizer.tell_batches"]
        assert sampler.optimizer.n_observations == len(result.history)

    def test_complete_work_is_the_one_element_batch(self):
        single, batched = make_sampler(), make_sampler()
        for sampler, complete in (
            (single, lambda r, s: [single.complete_work(r, s)]),
            (batched, lambda r, s: batched.complete_work_batch([(r, s)])),
        ):
            engine = AsyncExecutionEngine(sampler.execution, sampler.cluster)
            for iteration in range(3):
                request = sampler.propose_work(iteration)
                engine.submit(request)
                (report,) = complete(*engine.next_completed_request())
                assert report.n_new_samples == len(request.vms)
        assert single.optimizer.data_version == batched.optimizer.data_version == 3
        assert [
            (o.config, o.cost, o.budget) for o in single.optimizer.observations
        ] == [(o.config, o.cost, o.budget) for o in batched.optimizer.observations]


class TestWaveWithSpeculativeDuplicate:
    """A heavy-tail run with speculation armed: waves can contain a request
    whose sample came from a duplicate while the straggling original was
    cancelled.  The optimizer must see exactly one tell per completed
    request and end with no pending fantasies."""

    def test_wave_still_sees_one_result_per_sample(self):
        # Seed 37 submits a speculative duplicate under CL-min fantasies.
        sampler = make_sampler(seed=37, optimizer="smac", liar="min")
        result = TuningLoop(
            sampler,
            max_samples=45,
            batch_size=8,
            fault_model=build_fault_model("lognormal", seed=37),
            speculation=True,
        ).run()
        self.check_one_result_per_sample(sampler, result)

    def test_default_liar_wave_still_sees_one_result_per_sample(self):
        # The same run under the default posterior fantasies proposes other
        # configurations; a higher straggler rate makes duplicates fire.
        sampler = make_sampler(seed=37, optimizer="smac")
        result = TuningLoop(
            sampler,
            max_samples=45,
            batch_size=8,
            fault_model=LognormalTailModel(seed=37, rate=0.3),
            speculation=True,
        ).run()
        self.check_one_result_per_sample(sampler, result)

    @staticmethod
    def check_one_result_per_sample(sampler, result):
        stats = result.engine_stats
        assert stats["n_duplicates_submitted"] > 0
        assert stats["n_items_cancelled"] > 0
        # One report per completed request; one sample per accepted slot.
        assert len(result.history) == result.n_iterations
        assert sampler.datastore.n_samples == result.n_samples
        assert sampler.optimizer.n_pending == 0
        assert all(
            not obs.metadata.get("fantasy")
            for obs in sampler.optimizer.observations
        )
        # Every sample of every config still sits on a distinct node.
        for config in sampler.datastore.configs():
            workers = sampler.datastore.workers_used(config)
            assert len(set(workers)) == len(workers)


class TestWaveAtMaxSamples:
    def test_wave_lands_exactly_at_the_cap(self):
        # Homogeneous cluster, budget-1 proposals: the 4 requests of each
        # round finish at the same instant and come back as one wave, so
        # the cap (a multiple of the wave width) is hit exactly.
        sampler = make_sampler(seed=3)
        result = TuningLoop(sampler, max_samples=8, batch_size=4).run()
        assert result.n_samples == 8
        assert sampler.datastore.n_samples == 8
        # Submission was gated on submitted samples: nothing overshot while
        # the last wave was still in flight.
        assert sampler.optimizer.n_pending == 0

    @pytest.mark.parametrize("max_samples", [7, 9])
    def test_cap_straddling_waves_do_not_lose_results(self, max_samples):
        # A cap that is not a multiple of the wave width: the final wave may
        # overshoot by at most the watermark, but every landed sample is
        # reported and the run still terminates.
        sampler = make_sampler(seed=4)
        result = TuningLoop(sampler, max_samples=max_samples, batch_size=4).run()
        assert result.n_samples >= max_samples
        assert result.n_samples <= max_samples + 4
        assert sampler.datastore.n_samples == result.n_samples
