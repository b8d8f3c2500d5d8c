"""Retained sequential reference of the tuning loop.

Every study runs through :class:`~repro.core.AsyncExecutionEngine`; with
``batch_size=1`` the engine runs in lockstep mode.  This module keeps the
loop that lockstep mode replaced — one proposal, evaluated inline on its
nodes, completed, then the whole cluster advanced by the request's
wall-clock — as the oracle lockstep is checked against:

* **equivalence** — ``TestBatchOneEquivalence`` in
  ``tests/core/test_async_engine.py`` requires ``TuningLoop(batch_size=1)``
  to reproduce :func:`run_sequential`'s samples, clocks and best
  configuration bit-for-bit;
* **benchmark gate** — ``make bench-async`` recomputes its
  ``batch1_identical`` flag against :func:`run_sequential`.

Unit tests of a sampler's propose/complete pair use :func:`run_iteration`
to step it without an engine.  Do not grow features here: the point of the
file is to stay the plain semantics the engine is checked against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import IterationReport, Sampler, TuningLoop, TuningResult


def run_iteration(sampler: Sampler, iteration: int) -> IterationReport:
    """Evaluate one proposal of ``sampler`` inline and report back."""
    request = sampler.propose_work(iteration)
    new_samples = sampler.execution.evaluate_on_many(
        request.config, request.vms, iteration, request.budget
    )
    return sampler.complete_work(request, new_samples)


def run_sequential(
    sampler: Sampler,
    n_iterations: Optional[int] = None,
    wall_clock_hours: Optional[float] = None,
    max_samples: Optional[int] = None,
) -> TuningResult:
    """Run ``sampler`` one iteration at a time until a criterion trips.

    The stopping criteria and the zero-progress abort are
    :class:`~repro.core.TuningLoop`'s own.
    """
    loop = TuningLoop(
        sampler,
        n_iterations=n_iterations,
        wall_clock_hours=wall_clock_hours,
        max_samples=max_samples,
    )
    history: List[IterationReport] = []
    hours = 0.0
    samples = 0
    iteration = 0
    zero_streak = 0
    workload = sampler.execution.workload
    while not loop._should_stop(iteration, hours, samples):
        report = run_iteration(sampler, iteration)
        report.details.setdefault("objective_unit", workload.objective.unit)
        report.details.setdefault("higher_is_better", workload.higher_is_better)
        history.append(report)
        hours += report.wall_clock_hours
        samples += report.n_new_samples
        iteration += 1
        zero_streak = loop._track_progress(report, zero_streak)
        # A request that scheduled no new samples consumed no time, so the
        # per-worker clocks must not move (re-advancing them would shift
        # every later measurement's drift and credit state).
        if report.wall_clock_hours > 0:
            sampler.cluster.advance(report.wall_clock_hours)

    best_config, best_value = sampler.best_configuration()
    return TuningResult(
        sampler_name=sampler.name,
        workload_name=workload.name,
        best_config=best_config,
        best_catalog_value=best_value,
        higher_is_better=workload.higher_is_better,
        history=history,
        n_iterations=iteration,
        n_samples=samples,
        wall_clock_hours=hours,
    )
