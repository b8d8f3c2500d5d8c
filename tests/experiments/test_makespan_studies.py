"""Pins of the four A/B makespan studies against the committed bench rows.

Each study runs a reference and a treated arm on the same seeds and sample
budget.  For every seed its benchmark reports, the arms' makespans, the
makespan ratio, the treated arm's accepted samples and the engine counts
the benchmark prints must equal the rows in
``benchmarks/baselines/BENCH_*.json`` exactly: the simulated makespans are
deterministic, so any drift is a trajectory change.
"""

import json
import os

import pytest

from repro.experiments import (
    format_makespan_report,
    run_graydeg_study,
    run_mixed_fleet_study,
    run_resilience_study,
    run_straggler_study,
)

BASELINES = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "baselines"
)


def _columns(reference, treated, ratio, *stats, n_samples="n_samples"):
    """Observed field -> baseline key; engine counts keep their names."""
    columns = {
        "reference": reference,
        "treated": treated,
        "ratio": ratio,
        "n_samples": n_samples,
    }
    columns.update({key: key for key in stats})
    return columns


#: Per study: entry point, baseline artifact, and the baseline keys it pins.
STUDIES = {
    "straggler": (
        run_straggler_study,
        "BENCH_STRAGGLER.json",
        _columns(
            "baseline_makespan_hours",
            "speculative_makespan_hours",
            "speedup",
            "n_stragglers_detected",
            "n_duplicates_submitted",
            "n_duplicate_wins",
        ),
    ),
    "resilience": (
        run_resilience_study,
        "BENCH_RESILIENCE.json",
        _columns(
            "fault_free_makespan_hours",
            "recovered_makespan_hours",
            "retention",
            "n_failures",
            "n_retries",
            "n_exhausted",
        ),
    ),
    "graydeg": (
        run_graydeg_study,
        "BENCH_GRAYDEG.json",
        _columns(
            "fault_free_makespan_hours",
            "recovered_makespan_hours",
            "retention",
            "n_delayed",
            "n_suspected",
            "n_zombies_rejected",
            "n_quarantined",
        ),
    ),
    "mixed_fleet": (
        run_mixed_fleet_study,
        "BENCH_HETEROGENEOUS.json",
        dict(
            _columns(
                "fifo_makespan_hours",
                "heterogeneity_makespan_hours",
                "makespan_speedup",
                "samples_per_sku",
                "samples_per_region",
                n_samples="heterogeneity_samples",
            ),
            reference_samples="fifo_samples",
        ),
    ),
}


def _cases():
    """(study, study kwargs, baseline row) for every seed a bench reports."""
    for name, (_, filename, _) in STUDIES.items():
        with open(os.path.join(BASELINES, filename)) as fh:
            baseline = json.load(fh)
        params = baseline["provenance"]["parameters"]
        for row in baseline.get("per_seed", [baseline]):
            seed = row.get("seed", params.get("seed"))
            kwargs = {"seed": seed, "max_samples": params["max_samples"]}
            yield pytest.param(name, kwargs, row, id=f"{name}-{seed}")


@pytest.mark.parametrize("name,kwargs,row", list(_cases()))
def test_study_matches_bench_baseline(name, kwargs, row):
    run, _, columns = STUDIES[name]
    comparison = run(**kwargs)
    reference, treated = comparison.reference, comparison.treated
    observed = {
        "reference": reference.makespan_hours,
        "treated": treated.makespan_hours,
        "ratio": comparison.makespan_ratio,
        "n_samples": treated.n_samples,
        "reference_samples": reference.n_samples,
        "samples_per_sku": treated.samples_per_sku,
        "samples_per_region": treated.samples_per_region,
        **treated.engine_stats,
    }
    assert {field: observed.get(field, 0) for field in columns} == {
        field: row[key] for field, key in columns.items()
    }
    report = format_makespan_report(comparison)
    assert reference.label in report and treated.label in report
