"""The trajectory-inertness gate: observability must change *nothing*.

Same discipline as ``fault_model="none"``: a seeded study run with a full
registry, a live tracer and an enabled host clock must be bit-for-bit
identical — samples, values, placements, simulated clocks, event-log
contents — to the same study run with observability off.  Three arms cover
the plain path, crash injection with retries, and faults with speculation
(the paths with the densest instrumentation).
"""

import pytest

from repro.cloud import Cluster
from repro.core import (
    EventLog,
    ExecutionEngine,
    RetryPolicy,
    TunaSampler,
    TuningLoop,
)
from repro.faults import build_crash_model, build_fault_model
from repro.obs import HostClock, MetricsRegistry, TraceRecorder
from repro.optimizers import SMACOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC

#: Loop keyword arguments per arm, built fresh per study: model instances
#: carry RNG streams.
ARMS = {
    "plain": dict,
    "crash-retry": lambda: dict(
        crash_model=build_crash_model("transient", seed=3), retry_policy=RetryPolicy()
    ),
    "faults-speculation": lambda: dict(
        fault_model=build_fault_model("lognormal", seed=7), speculation=True
    ),
}


def make_sampler(seed=11):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=10, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    opt = SMACOptimizer(system.knob_space, seed=seed, n_initial_design=5)
    return TunaSampler(opt, execution, cluster, seed=seed)


def trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget, s.crashed)
        for s in sampler.datastore.all_samples()
    ]


def run_study(log_path, observed, **extra):
    sampler = make_sampler()
    obs_kwargs = {}
    if observed:
        # The *hardest* configuration: full registry with a real host clock
        # (timers actually record) plus a live tracer.
        obs_kwargs = dict(
            metrics=MetricsRegistry(clock=HostClock()), tracer=TraceRecorder()
        )
    loop = TuningLoop(
        sampler,
        max_samples=30,
        batch_size=5,
        event_log=str(log_path),
        **extra,
        **obs_kwargs,
    )
    result = loop.run()
    return loop, sampler, result


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_observability_is_bit_for_bit_trajectory_inert(tmp_path, arm):
    ref_loop, ref_sampler, ref_result = run_study(
        tmp_path / "ref.jsonl", False, **ARMS[arm]()
    )
    obs_loop, obs_sampler, obs_result = run_study(
        tmp_path / "obs.jsonl", True, **ARMS[arm]()
    )

    # Samples: worker placements, values, iterations, budgets, crash flags.
    assert trajectory(obs_sampler) == trajectory(ref_sampler)
    # Clocks and outcomes.
    assert obs_result.wall_clock_hours == ref_result.wall_clock_hours
    assert obs_result.best_config == ref_result.best_config
    assert obs_result.best_catalog_value == ref_result.best_catalog_value
    assert obs_result.n_samples == ref_result.n_samples
    assert obs_result.engine_stats == ref_result.engine_stats

    # Event logs: identical record for record past the provenance header
    # (whose UTC timestamp legitimately differs between the two runs).
    ref_events = EventLog.replay(str(tmp_path / "ref.jsonl"))
    obs_events = EventLog.replay(str(tmp_path / "obs.jsonl"))
    assert obs_events[1:] == ref_events[1:]

    # And the observer actually observed: this is not a vacuous pass.
    assert obs_loop.engine.metrics is not None
    assert obs_loop.engine.metrics.counter_value("engine.items.submitted") > 0
    assert obs_loop.engine.metrics.counter_value("loop.items.completed") > 0
    assert obs_loop.engine.tracer.n_closed > 0


def test_true_builds_default_instances_and_false_means_off():
    loop = TuningLoop(make_sampler(), max_samples=5, batch_size=2,
                      metrics=True, tracer=True)
    assert isinstance(loop.engine.metrics, MetricsRegistry)
    assert isinstance(loop.engine.tracer, TraceRecorder)
    # The default registry gets the deterministic NullClock.
    assert not loop.engine.metrics.clock.enabled
    off = TuningLoop(make_sampler(), max_samples=5, batch_size=2,
                     metrics=False, tracer=False)
    assert off.engine.metrics is None and off.engine.tracer is None


def test_registry_is_shared_across_the_whole_stack():
    """One registry observes the engine, loop, scheduler and optimizer."""
    registry = MetricsRegistry()
    sampler = make_sampler()
    loop = TuningLoop(sampler, max_samples=30, batch_size=5, metrics=registry)
    loop.run()
    assert sampler.scheduler.metrics is registry
    assert sampler.optimizer.metrics is registry
    snapshot = registry.as_dict()
    counters = snapshot["counters"]
    assert counters["engine.items.submitted"] == counters["loop.items.submitted"]
    assert counters["scheduler.assignments"] > 0
    assert counters["optimizer.tells"] > 0
    assert counters["optimizer.asks"] > 0
    assert counters["optimizer.surrogate.refits"] > 0
    # Per-(region, SKU) utilization counters exist and sum to total busy time.
    busy = registry.labelled("loop.busy_hours")
    assert busy  # at least one (region, sku) bucket
    # Queue waits and durations were observed as histograms.
    assert registry.rollup("loop.queue_wait_hours").count > 0
    assert registry.rollup("loop.duration_hours").count > 0


def test_a_registry_shared_by_two_studies_reports_each_studys_engine_stats(tmp_path):
    """The engine counts into the attached registry, which accumulates
    across studies; ``engine_stats`` still reports one study's counts."""
    def extra():
        return dict(ARMS["crash-retry"](), **ARMS["faults-speculation"]())

    _, _, ref_result = run_study(tmp_path / "ref.jsonl", False, **extra())
    shared = MetricsRegistry()
    results = [
        TuningLoop(
            make_sampler(), max_samples=30, batch_size=5, metrics=shared, **extra()
        ).run()
        for _ in range(2)
    ]
    assert ref_result.engine_stats["n_failures"] > 0
    for result in results:
        assert result.engine_stats == ref_result.engine_stats
    assert shared.counter_value("engine.items.retried") == 2 * (
        ref_result.engine_stats["n_retries"]
    )


def test_engine_stats_of_loops_built_before_either_runs(tmp_path):
    """Each loop builds its engine at construction; counts another loop
    puts into the shared registry before this one starts are not its own."""
    _, _, ref_result = run_study(tmp_path / "ref.jsonl", False, **ARMS["crash-retry"]())
    shared = MetricsRegistry()
    loops = [
        TuningLoop(
            make_sampler(), max_samples=30, batch_size=5, metrics=shared,
            **ARMS["crash-retry"](),
        )
        for _ in range(2)
    ]
    assert ref_result.engine_stats["n_failures"] > 0
    for loop in loops:
        assert loop.run().engine_stats == ref_result.engine_stats
