"""Microbenchmark — gray-failure tolerance (leases, fencing, quarantine).

Guards the performance property of the gray-failure subsystem: under the
default composite regime — stalls, network partitions that swallow reports
for hours, and corrupted (NaN/Inf/wild) measurements — a study with
liveness leases, zombie fencing and result quarantine must retain at least
70 % of the fault-free makespan at equal accepted sample count.  Unprotected,
a single silent worker serializes the study behind a multi-hour silence;
the lease/fence machinery caps every episode at one lease timeout plus one
re-measurement, and the quarantine gate re-measures garbage instead of
letting it poison the optimizer.

Gated on the geometric mean of the per-seed retention over a panel, so one
lucky or unlucky fault trace cannot decide the gate.  Both arms' makespans
are *simulated* hours — deterministic for the fixed panel, so the asserted
retention is exact.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_graydeg.py -q -s
"""

import math

from bench_artifacts import write_bench_json

from repro.experiments import run_graydeg_study
from repro.experiments.makespan_study import DEFAULT_GRAY_REGIME

#: Seed panel for the retention gate (measured retentions 0.64-0.89 each;
#: geomean ~0.74, so the 0.7 floor has margin while the regime stays heavy
#: enough that every seed fences real partitions and quarantines garbage).
SEEDS = (11, 37, 51, 90)
MAX_SAMPLES = 60
RETENTION_FLOOR = 0.7


def test_bench_graydeg(once):
    def run():
        return [run_graydeg_study(seed=seed) for seed in SEEDS]

    comparisons = once(run)

    print("\nGray-failure tolerance under stall+partition+corruption "
          "(10 workers, batch 8)")
    rows = []
    totals = {"n_delayed": 0, "n_suspected": 0, "n_zombies_rejected": 0,
              "n_quarantined": 0}
    for seed, comparison in zip(SEEDS, comparisons):
        free, rec = comparison.reference, comparison.treated
        stats = rec.engine_stats
        for key in totals:
            totals[key] += stats.get(key, 0)
        rows.append(
            {
                "seed": seed,
                "fault_free_makespan_hours": free.makespan_hours,
                "recovered_makespan_hours": rec.makespan_hours,
                "retention": comparison.makespan_ratio,
                "n_samples": rec.n_samples,
                "n_delayed": stats.get("n_delayed", 0),
                "n_suspected": stats.get("n_suspected", 0),
                "n_zombies_rejected": stats.get("n_zombies_rejected", 0),
                "n_quarantined": stats.get("n_quarantined", 0),
            }
        )
        print(
            f"  seed {seed:>3}: {free.makespan_hours:6.3f} h -> "
            f"{rec.makespan_hours:6.3f} h  "
            f"({comparison.makespan_ratio:5.1%} retained, "
            f"{stats.get('n_delayed', 0)} delayed / "
            f"{stats.get('n_suspected', 0)} suspected / "
            f"{stats.get('n_zombies_rejected', 0)} zombies rejected / "
            f"{stats.get('n_quarantined', 0)} quarantined, "
            f"{rec.n_samples} accepted samples)"
        )
    geomean = math.exp(
        sum(math.log(c.makespan_ratio) for c in comparisons)
        / len(comparisons)
    )
    print(
        f"  geomean makespan retention: {geomean:.1%} "
        f"(floor {RETENTION_FLOOR:.0%})"
    )

    write_bench_json(
        "graydeg",
        {
            "geomean_retention": geomean,
            "retention_floor": RETENTION_FLOOR,
            "per_seed": rows,
            "totals": totals,
        },
        parameters={
            "seeds": list(SEEDS),
            "max_samples": MAX_SAMPLES,
            "regime": DEFAULT_GRAY_REGIME,
            "lease_timeout": 0.15,
            "n_workers": 10,
            "batch_size": 8,
        },
    )

    for comparison in comparisons:
        # Equal accepted-sample budget: both arms ran to the same stopping
        # criterion (the watermark may overshoot by a submitted request).
        assert comparison.reference.n_samples >= MAX_SAMPLES
        assert comparison.treated.n_samples >= MAX_SAMPLES
        assert comparison.treated.engine_stats.get("n_delayed", 0) > 0, (
            "the default gray regime should delay at least one report"
        )
    # The panel as a whole exercised every gray path.
    assert totals["n_suspected"] > 0
    assert totals["n_zombies_rejected"] > 0
    assert totals["n_quarantined"] > 0
    assert geomean >= RETENTION_FLOOR, (
        f"gray-with-recovery retained only {geomean:.1%} of the fault-free "
        f"makespan (floor {RETENTION_FLOOR:.0%} at equal accepted samples)"
    )
