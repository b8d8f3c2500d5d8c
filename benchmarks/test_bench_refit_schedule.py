"""Study-length grid for the noise adjuster's geometric refit schedule.

Paper §4.3 rebuilds the noise adjuster after every max-budget landing, so a
study of N samples makes O(N) forest fits of O(N) rows each and its host
time grows superlinearly in N.  The default schedule refits only when the
usable training rows have grown by ``REFIT_GROWTH`` (1.25) since the last
fit, when a new worker appears, or when the training rows shrink.
This benchmark runs the paper's headline setting — PostgreSQL/mssales on 10
D8s_v5 workers, batch 10 — at 150 and 600 samples under the every-point
schedule (``REFIT_GROWTH = 1.0``) and the default one, over a seed panel,
and records host seconds, ms per sample, noise-adjuster fits and the
log-log slope of host time against samples (recorded, not gated).  It
asserts:

* O(log N) fits: under the default schedule the median noise fits at 600
  samples are at most 2x the median at 150 (each 1.25x growth of the
  training rows adds one fit, so 4x the samples adds about six);
* quality: the median deployment cost under the default schedule stays
  within 1.05x of the every-point median at both lengths.

Fits and deployment costs are simulated and deterministic for the fixed
panel; host seconds are measured.  Writes ``BENCH_REFIT.json``.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_refit_schedule.py -q -s
"""

import math
import statistics
import time

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
from repro.core import noise_adjuster

SEEDS = tuple(range(1, 9))
LENGTHS = (150, 600)
EVERY_POINT = 1.0
GEOMETRIC = noise_adjuster.REFIT_GROWTH
QUALITY_CEILING = 1.05
MAX_FIT_GROWTH = 2.0


def run_study(seed, max_samples, growth, monkeypatch):
    """One seeded study; returns (host_s, noise_fits, deploy_rel_cost)."""
    monkeypatch.setattr(noise_adjuster, "REFIT_GROWTH", growth)
    sampler = paper_sampler(seed)
    start = time.perf_counter()
    result = TuningLoop(sampler, max_samples=max_samples, batch_size=BATCH_SIZE).run()
    host_s = time.perf_counter() - start
    cost = deploy_rel_cost(sampler, result.best_config, seed)
    return host_s, sampler.noise_adjuster.n_fits, cost


def test_bench_refit_schedule(once, monkeypatch):
    def run():
        # Both schedules run back to back per (length, seed), so machine
        # drift hits them alike.
        panel = {}
        for n in LENGTHS:
            for seed in SEEDS:
                for growth in (EVERY_POINT, GEOMETRIC):
                    panel[growth, n, seed] = run_study(seed, n, growth, monkeypatch)
        return panel

    panel = once(run)

    def column(growth, n, field):
        return [panel[growth, n, seed][field] for seed in SEEDS]

    schedules = {"every_point": EVERY_POINT, "geometric": GEOMETRIC}
    n_short, n_long = LENGTHS
    payload = {}
    median_host = {}
    for name, growth in schedules.items():
        for n in LENGTHS:
            host = column(growth, n, 0)
            median_host[name, n] = statistics.median(host)
            payload[f"host_s_{name}_{n}"] = host
            payload[f"ms_per_sample_{name}_{n}"] = median_host[name, n] * 1000.0 / n
            payload[f"noise_fits_{name}_{n}"] = column(growth, n, 1)
            payload[f"deploy_rel_cost_{name}_{n}"] = column(growth, n, 2)
        payload[f"host_slope_{name}"] = math.log(
            median_host[name, n_long] / median_host[name, n_short]
        ) / math.log(n_long / n_short)

    payload["fit_growth"] = statistics.median(
        payload[f"noise_fits_geometric_{n_long}"]
    ) / statistics.median(payload[f"noise_fits_geometric_{n_short}"])
    payload[f"fit_reduction_{n_long}"] = statistics.median(
        payload[f"noise_fits_every_point_{n_long}"]
    ) / statistics.median(payload[f"noise_fits_geometric_{n_long}"])
    payload[f"host_speedup_{n_long}"] = (
        median_host["every_point", n_long] / median_host["geometric", n_long]
    )
    quality_ratio = {}
    for n in LENGTHS:
        quality_ratio[n] = statistics.median(
            payload[f"deploy_rel_cost_geometric_{n}"]
        ) / statistics.median(payload[f"deploy_rel_cost_every_point_{n}"])
        payload[f"quality_ratio_{n}"] = quality_ratio[n]
        # Every-point median over geometric median: higher is better, so the
        # compare gate can guard it as a ratio.
        payload[f"quality_margin_{n}"] = 1.0 / quality_ratio[n]

    print(f"\nRefit schedule: postgres/mssales, 10 workers, batch {BATCH_SIZE}, "
          f"seeds {SEEDS[0]}-{SEEDS[-1]}, growth {EVERY_POINT} vs {GEOMETRIC}")
    for n in LENGTHS:
        print(f"  {n} samples:")
        for i, seed in enumerate(SEEDS):
            print(
                f"    seed {seed}: host "
                f"{payload[f'host_s_every_point_{n}'][i]:6.2f} -> "
                f"{payload[f'host_s_geometric_{n}'][i]:5.2f} s, noise fits "
                f"{payload[f'noise_fits_every_point_{n}'][i]:3d} -> "
                f"{payload[f'noise_fits_geometric_{n}'][i]:2d}, deploy_rel_cost "
                f"{payload[f'deploy_rel_cost_every_point_{n}'][i]:.4f} -> "
                f"{payload[f'deploy_rel_cost_geometric_{n}'][i]:.4f}"
            )
        print(
            f"    median ms/sample {payload[f'ms_per_sample_every_point_{n}']:.2f} -> "
            f"{payload[f'ms_per_sample_geometric_{n}']:.2f}; deploy cost "
            f"x{quality_ratio[n]:.3f} (ceiling {QUALITY_CEILING})"
        )
    print(
        f"  host-time slope {payload['host_slope_every_point']:.2f} -> "
        f"{payload['host_slope_geometric']:.2f} (recorded only); "
        f"median fits grow x{payload['fit_growth']:.2f} from {n_short} to {n_long} "
        f"(limit {MAX_FIT_GROWTH}); {payload[f'fit_reduction_{n_long}']:.1f}x fewer "
        f"fits and {payload[f'host_speedup_{n_long}']:.1f}x less host time at {n_long}"
    )

    write_bench_json(
        "refit",
        payload,
        parameters={
            "seeds": list(SEEDS),
            "lengths": list(LENGTHS),
            "growth": {name: growth for name, growth in schedules.items()},
            "system": "postgres",
            "workload": "mssales",
            "fleet": [list(group) for group in FLEET],
            "batch_size": BATCH_SIZE,
            "deploy_rounds": DEPLOY_ROUNDS,
            "deploy_nodes": DEPLOY_NODES,
            "quality_ceiling": QUALITY_CEILING,
            "max_fit_growth": MAX_FIT_GROWTH,
        },
    )
    assert payload["fit_growth"] <= MAX_FIT_GROWTH, (
        f"median noise fits grew x{payload['fit_growth']:.2f} from {n_short} to "
        f"{n_long} samples (limit {MAX_FIT_GROWTH})"
    )
    for n in LENGTHS:
        assert quality_ratio[n] <= QUALITY_CEILING, (
            f"geometric median deploy cost at {n} samples is x{quality_ratio[n]:.3f} "
            f"the every-point median (ceiling {QUALITY_CEILING})"
        )
