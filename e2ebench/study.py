"""One TUNA study in a fresh process: the unit ``run.py`` measures.

    python3 e2ebench/study.py --workload NAME --seed N --trace 0|1 --out FILE

Imports ``repro``, builds the study, runs ``TuningLoop.run()``, deploys the
chosen configuration and writes one JSON record to ``--out``.  The record
carries ``run_start`` (``time.monotonic()`` just before ``run()``, a
system-wide clock on Linux), so the parent can time set-up from the moment
it spawned this process.  ``--trace 1`` wraps the layers' public functions
for the duration of ``run()`` and adds per-layer metrics and a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core.eventlog import EventLog, config_digest  # noqa: E402
from repro.core.tuner import deploy_configuration  # noqa: E402

from studies import DEPLOY_NODES, build_study  # noqa: E402

#: The paper's 10-node deployment is repeated on this many fresh node sets
#: and each deploy metric is the median over the rounds: one 10-node round
#: has a cov with ~25% sampling error, too noisy to gate.
DEPLOY_ROUNDS = 100


def _deploy(study, config) -> dict:
    workload = study.workload
    optimal = workload.optimal_performance
    rel_costs, covs, values = [], [], []
    for round_ in range(DEPLOY_ROUNDS):
        nodes = study.cluster.provision_fresh_nodes(DEPLOY_NODES)
        result = deploy_configuration(
            study.system, workload, config, nodes, seed=study.seed * 1000 + round_
        )
        mean = result.mean
        rel_costs.append(optimal / mean if workload.higher_is_better else mean / optimal)
        covs.append(result.cov)
        values.extend(result.values)
    return {
        "deploy_rel_cost": sorted(rel_costs)[len(rel_costs) // 2],
        "deploy_cov": sorted(covs)[len(covs) // 2],
        "deploy_values": values,
    }


def _check_event_log(path: str, n_samples: int) -> list:
    events = EventLog.replay(path)
    n_logged = sum(1 for event in events if event["kind"] == "sample")
    if n_logged != n_samples:
        return [f"event log holds {n_logged} sample events for {n_samples} samples"]
    return []


def run_study(name: str, seed: int, trace: bool, workdir: str, out_dir: str) -> dict:
    study = build_study(name, seed, workdir)
    recorder = None
    if trace:
        from spans import SpanRecorder, layer_metrics

        recorder = SpanRecorder(run_id=f"{name}:{seed}")
        recorder.install()
    run_start = time.monotonic()
    try:
        result = study.loop.run()
    finally:
        run_s = time.monotonic() - run_start
        if recorder is not None:
            recorder.remove()
    log = study.loop.event_log
    if log is not None:
        log.close()

    samples = study.sampler.datastore.all_samples()
    errors = []
    if result.n_samples < study.spec.max_samples:
        errors.append(f"{result.n_samples} samples for a budget of {study.spec.max_samples}")
    if len(samples) != result.n_samples:
        errors.append(f"datastore holds {len(samples)} samples, result {result.n_samples}")
    if not all(math.isfinite(sample.value) for sample in samples):
        errors.append("a non-finite value was accepted")
    stats = result.engine_stats or {}
    if log is not None:
        errors += _check_event_log(log.path, result.n_samples)

    record = {
        "seed": seed,
        "run_start": run_start,
        "run_s": run_s,
        "n_samples": result.n_samples,
        "makespan_h": result.wall_clock_hours,
        "best_config": config_digest(result.best_config),
        "lost_slots": stats.get("n_exhausted", 0) + stats.get("n_quarantine_penalized", 0),
        "errors": errors,
        # How often each fault path of the chaos workload fired.
        "fault_paths": {
            "retries": stats.get("n_retries", 0),
            "duplicates": stats.get("n_duplicates_submitted", 0),
            "fences or zombies": stats.get("n_suspected", 0) + stats.get("n_zombies_rejected", 0),
            "quarantines": stats.get("n_quarantined", 0),
        } if study.spec.chaos else {},
    }
    record.update(_deploy(study, result.best_config))
    if recorder is not None:
        record["layers"] = layer_metrics(recorder.spans, stats, log and log.path)
        recorder.write_chrome_trace(os.path.join(out_dir, f"trace-{name}.json"))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out_dir = os.path.dirname(os.path.abspath(args.out))
    # Event log and checkpoints live in a per-study temp dir, removed after.
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        record = run_study(args.workload, args.seed, bool(args.trace), workdir, out_dir)
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
