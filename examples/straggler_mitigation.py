#!/usr/bin/env python3
"""Straggler mitigation: speculative re-execution under injected noise.

The event loop's durations are deterministic by default, so this example
first arms the fault subsystem: a heavy-tail lognormal stretch model where
stragglers are rare (6 % of runs) but severe (median 7x, up to 40x),
pinned to per-worker time windows like genuine interference episodes.

It then runs the same TUNA tuning workload twice on the same seeds —
with and without speculative re-execution — and prints the makespan gap.
With mitigation on, runs whose elapsed time crosses the quantile threshold
of the completed population are duplicated onto the fastest idle worker
the configuration has never touched; the first copy to finish supplies the
sample, the loser is cancelled and its worker released, so the optimizer
sees exactly one result per sample either way.

Run with:  python examples/straggler_mitigation.py
"""

from repro.experiments import format_makespan_report, run_straggler_study

SEED = 90


def main() -> None:
    comparison = run_straggler_study(seed=SEED)
    print(format_makespan_report(comparison))
    print()
    stats = comparison.treated.engine_stats
    print(
        "first-finish-wins bookkeeping: "
        f"{stats.get('n_duplicates_submitted', 0)} duplicates launched, "
        f"{stats.get('n_duplicate_wins', 0)} beat their straggler, "
        f"{stats.get('n_items_cancelled', 0)} losing copies cancelled — "
        "and the optimizer saw exactly one result per sample in both runs."
    )


if __name__ == "__main__":
    main()
