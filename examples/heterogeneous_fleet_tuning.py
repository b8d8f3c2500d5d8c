#!/usr/bin/env python3
"""Tuning over a heterogeneous multi-region fleet.

A mixed fleet spans regions and VM generations: three current-generation
D16s_v5 workers in westus2, four reference D8s_v5 workers in eastus, and
three previous-generation D8s_v4 workers in centralus.  Each worker carries
its SKU's baseline-performance factor, so a sample on a slow SKU takes
longer on that worker's own timeline — the run's wall-clock is the makespan
of the busiest worker.

The scheduler's placement policy decides who runs what:

* ``heterogeneity`` (the default) prefers free fast workers — the cost of a
  worker is its expected queue wait ``(queued + 1) / speed`` — while still
  spreading each configuration's samples across regions for the noise
  aggregation;
* ``fifo`` is the naive baseline: round-robin in fixed worker order, blind
  to SKU speed and queue depth.

Both runs use the same seeds, fleet and sample budget, so the makespan gap
is exactly what heterogeneity-aware placement buys.

Run with:  python examples/heterogeneous_fleet_tuning.py
"""

from repro.experiments import format_makespan_report, run_mixed_fleet_study

SAMPLE_BUDGET = 80
SEED = 23


def main() -> None:
    comparison = run_mixed_fleet_study(max_samples=SAMPLE_BUDGET, seed=SEED)
    print(format_makespan_report(comparison))
    print()
    aware = comparison.treated
    print(
        "fast workers soak up the queue: "
        f"{aware.samples_per_sku.get('Standard_D16s_v5', 0)} of "
        f"{aware.n_samples} samples landed on the 3 D16s_v5 workers, while "
        f"the 3 previous-generation D8s_v4 workers ran "
        f"{aware.samples_per_sku.get('Standard_D8s_v4', 0)}"
    )


if __name__ == "__main__":
    main()
