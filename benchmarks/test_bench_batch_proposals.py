"""Seed-panel quality gate for batch proposals (CL-min vs posterior).

TUNA keeps a batch of configurations in flight and asks SMAC for each one
(§5).  Under the legacy CL-min fantasies every ask after the first of a
wave refits the forest; under ``liar="posterior"`` (the ``TunaSampler``
default) the wave's later asks reuse the forest and score EI under a
bootstrap resample of its trees.  A new default is gated on tuning quality
over a seed panel, not one seed, so this benchmark runs the paper's
headline setting — PostgreSQL/mssales on 10 D8s_v5 workers, batch 10 —
under both strategies and asserts:

* the median deployment cost under ``"posterior"`` is at most 1.05x the
  CL-min median (the deployment protocol of §6: the chosen configuration
  on fresh nodes, relative to the workload optimum, median over rounds);
* SMAC refits per ask fall at least 2x.

Every number is simulated and deterministic for the fixed panel, so the
asserted ratios are exact.  Writes ``BENCH_BATCH.json``.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_batch_proposals.py -q -s
"""

import statistics

from bench_artifacts import write_bench_json
from paper_study import (
    BATCH_SIZE,
    DEPLOY_NODES,
    DEPLOY_ROUNDS,
    FLEET,
    deploy_rel_cost,
    paper_sampler,
)

from repro.core import TuningLoop
from repro.obs.metrics import MetricsRegistry

SEEDS = tuple(range(1, 9))
MAX_SAMPLES = 150
QUALITY_CEILING = 1.05
MIN_REFIT_REDUCTION = 2.0


def run_study(seed, liar):
    """One seeded study; returns (deploy_rel_cost, refits_per_ask)."""
    sampler = paper_sampler(seed, liar=liar)
    registry = MetricsRegistry()
    result = TuningLoop(
        sampler, max_samples=MAX_SAMPLES, batch_size=BATCH_SIZE, metrics=registry
    ).run()
    refits_per_ask = registry.counter_value(
        "optimizer.surrogate.refits"
    ) / registry.counter_value("optimizer.asks")
    return deploy_rel_cost(sampler, result.best_config, seed), refits_per_ask


def test_bench_batch_proposals(once):
    def run():
        return {
            liar: [run_study(seed, liar) for seed in SEEDS]
            for liar in ("min", "posterior")
        }

    panel = once(run)
    cost = {liar: [c for c, _ in rows] for liar, rows in panel.items()}
    refits = {liar: [r for _, r in rows] for liar, rows in panel.items()}
    median_cost = {liar: statistics.median(v) for liar, v in cost.items()}
    median_refits = {liar: statistics.median(v) for liar, v in refits.items()}
    quality_ratio = median_cost["posterior"] / median_cost["min"]
    refit_reduction = median_refits["min"] / median_refits["posterior"]

    print(f"\nBatch proposals: postgres/mssales, 10 workers, batch {BATCH_SIZE}, "
          f"{MAX_SAMPLES} samples, seeds {SEEDS[0]}-{SEEDS[-1]}")
    for i, seed in enumerate(SEEDS):
        print(f"  seed {seed}: deploy_rel_cost {cost['min'][i]:.4f} -> "
              f"{cost['posterior'][i]:.4f}, refits/ask {refits['min'][i]:.3f} -> "
              f"{refits['posterior'][i]:.3f}")
    print(f"  median deploy_rel_cost {median_cost['min']:.4f} -> "
          f"{median_cost['posterior']:.4f} (x{quality_ratio:.3f}, ceiling "
          f"{QUALITY_CEILING}); refits/ask {median_refits['min']:.3f} -> "
          f"{median_refits['posterior']:.3f} ({refit_reduction:.1f}x fewer)")

    write_bench_json(
        "batch",
        {
            "deploy_rel_cost_min": cost["min"],
            "deploy_rel_cost_posterior": cost["posterior"],
            "refits_per_ask_min": refits["min"],
            "refits_per_ask_posterior": refits["posterior"],
            "median_deploy_rel_cost_min": median_cost["min"],
            "median_deploy_rel_cost_posterior": median_cost["posterior"],
            "quality_ratio": quality_ratio,
            # CL-min median over posterior median: higher is better, so the
            # compare gate can guard it as a ratio.
            "quality_margin": 1.0 / quality_ratio,
            "refit_reduction": refit_reduction,
        },
        parameters={
            "seeds": list(SEEDS),
            "system": "postgres",
            "workload": "mssales",
            "fleet": [list(group) for group in FLEET],
            "batch_size": BATCH_SIZE,
            "max_samples": MAX_SAMPLES,
            "deploy_rounds": DEPLOY_ROUNDS,
            "deploy_nodes": DEPLOY_NODES,
            "quality_ceiling": QUALITY_CEILING,
            "min_refit_reduction": MIN_REFIT_REDUCTION,
        },
    )
    assert quality_ratio <= QUALITY_CEILING, (
        f"posterior median deploy cost {median_cost['posterior']:.4f} is more than "
        f"{QUALITY_CEILING}x the CL-min median {median_cost['min']:.4f}"
    )
    assert refit_reduction >= MIN_REFIT_REDUCTION, (
        f"refits per ask fell only {refit_reduction:.2f}x"
    )
