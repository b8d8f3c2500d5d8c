"""End-to-end TUNA study benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every study is a full, seeded ``TuningLoop``
run (TunaSampler + SMAC, asynchronous driver) in a fresh process of its own
(``study.py``), one after another, with BLAS/OpenMP threads pinned to 1.

``--trace 0`` runs studies with sub-seeds derived from ``--seed`` for about
``S`` seconds and prints the end-to-end metrics as medians over them.  The
first ``QUALITY_STUDIES`` studies always run; the tuning-quality metrics
come from exactly those, so they depend on the seed alone, while the
host-time metrics use every study that fitted in the time.

``--trace 1`` runs the first sub-seed's study twice, traced and untraced,
checks that both agree bit-for-bit and prints the per-layer metrics of the
traced one (its Chrome trace lands in ``e2ebench/out/``).

Every study's outputs are checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  The exit code is
1 when a check failed and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Pinned before numpy loads here and inherited by every study process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Studies per ``--trace 0`` run that feed the tuning-quality metrics.
QUALITY_STUDIES = {"paper-mssales-10": 7, "fleet-mixed-500": 3, "chaos-durable-50": 6}

#: A run must end well inside the 180 s a single invocation may take.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "makespan_h": "h",
    "deploy_rel_cost": "ratio",
    "deploy_cov": "ratio",
    "slots_kept_frac": "fraction",
}

LAYER_UNITS = {
    "calls": "count", "appends": "count", "evals": "count", "waves": "count",
    "configs": "count", "cells": "count", "width": "count", "rows": "count",
    "retries": "count", "duplicates": "count", "fenced": "count",
    "zombies": "count", "quarantined": "count", "eligible_per_assign": "count",
    "s": "s", "self_s": "s", "ms_p50": "ms", "ms_p90": "ms", "share": "%",
    "kb": "kB", "refit_ratio": "ratio", "refits_per_ask": "ratio",
    "unstable_frac": "fraction", "trace_overhead": "ratio", "q4_q1": "ratio",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def calibration_ms() -> float:
    """Median time of a fixed numpy kernel: a machine-speed reference for
    normalising host times across machines (reported, never gated)."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((256, 256))
    values = rng.random(200_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        (matrix @ matrix).sum()
        np.sort(values).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def parameters(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run parameters and machine facts; ``write_bench_json`` adds the SHA."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "calibration_ms": calibration_ms(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_study(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One study in a fresh process; returns its record plus ``setup_s``."""
    out = os.path.join(OUT_DIR, f"study-{os.getpid()}.json")
    command = [
        sys.executable, os.path.join(HERE, "study.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--out", out,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "errors": ["study timed out"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"seed": seed, "errors": [f"study exited {proc.returncode}: {tail[0]}"]}
    with open(out) as fh:
        record = json.load(fh)
    os.remove(out)
    record["setup_s"] = record["run_start"] - spawned
    record["process_s"] = time.monotonic() - spawned
    return record


def end_to_end(records: list, n_quality: int) -> dict:
    quality = records[:n_quality]
    samples = sum(r["n_samples"] for r in quality)
    lost = sum(r["lost_slots"] for r in quality)
    return {
        # Pooled over every study of the run: steadier than a median of a
        # handful of per-study rates whose work differs by seed.
        "samples_per_s": sum(r["n_samples"] for r in records) / sum(r["run_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "makespan_h": statistics.median(r["makespan_h"] for r in quality),
        "deploy_rel_cost": statistics.median(r["deploy_rel_cost"] for r in quality),
        "deploy_cov": statistics.median(r["deploy_cov"] for r in quality),
        "slots_kept_frac": 1.0 - lost / samples,
    }


def measure(workload: str, seed: int, seconds: int) -> tuple:
    """``--trace 0``: studies until the time is used up; end-to-end metrics."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    n_quality = QUALITY_STUDIES[workload]
    records, failures = [], []
    longest = 0.0
    while len(records) < n_quality or time.monotonic() + longest <= start + seconds:
        record = run_study(workload, sub_seed(seed, len(records)), False, hard_deadline)
        if record["errors"]:
            failures.append(record)
            break
        records.append(record)
        longest = max(longest, record["process_s"])
    if not failures:
        # One chaos study can, by chance, see no quarantined value (150
        # samples at a 5% corruption rate); the run as a whole must not.
        totals: dict = {}
        for record in records:
            for path, count in record["fault_paths"].items():
                totals[path] = totals.get(path, 0) + count
        missed = [f"fault path never fired: {path}" for path, n in totals.items() if n == 0]
        if missed:
            failures.append(dict(records.pop(), errors=missed))
    metrics = end_to_end(records, n_quality) if not failures else {}
    return metrics, records, failures


def compare_traced(workload: str, seed: int) -> tuple:
    """``--trace 1``: traced vs untraced run of one study; layer metrics."""
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    study_seed = sub_seed(seed, 0)
    traced = run_study(workload, study_seed, True, hard_deadline)
    if traced["errors"]:
        return {}, [], [traced]
    plain = run_study(workload, study_seed, False, hard_deadline)
    if plain["errors"]:
        return {}, [traced], [plain]
    for key in ("n_samples", "makespan_h", "best_config", "deploy_values"):
        if traced[key] != plain[key]:
            traced["errors"].append(f"traced and untraced runs disagree on {key}")
    if traced["errors"]:
        return {}, [plain], [traced]
    metrics = dict(traced["layers"])
    metrics["tuner.trace_overhead"] = traced["run_s"] / plain["run_s"] - 1.0
    return metrics, [traced, plain], []


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end TUNA study benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(QUALITY_STUDIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for required in ("src/repro/__init__.py", "benchmarks/bench_artifacts.py"):
        if not os.path.exists(os.path.join(ROOT, required)):
            print(f"e2ebench: {required} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # The event log stamps a git SHA; never let git search above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    if args.trace:
        metrics, records, failures = compare_traced(args.workload, args.seed)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, records, failures = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    reported = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from bench_artifacts import write_bench_json

    os.environ["BENCH_JSON_DIR"] = OUT_DIR
    kind = "trace" if args.trace else "e2e"
    stamp = parameters(args.workload, args.seed, args.seconds, args.trace)
    artifact = write_bench_json(
        f"{kind}_{args.workload.replace('-', '_')}",
        {
            "metrics": reported,
            "studies": [
                {key: r[key] for key in ("seed", "run_s", "setup_s", "n_samples",
                                         "makespan_h", "deploy_rel_cost", "deploy_cov")}
                for r in records
            ],
            "failures": [{"seed": f["seed"], "errors": f["errors"]} for f in failures],
        },
        parameters=stamp,
    )
    with open(artifact) as fh:
        sha = json.load(fh)["provenance"]["git_sha"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} git_sha={sha} "
          f"studies={len(records) + len(failures)} "
          + " ".join(f"{key}={stamp[key]}" for key in ("python", "numpy", "nproc"))
          + f" calibration_ms={stamp['calibration_ms']:.3f}")
    for failure in failures:
        for error in failure["errors"]:
            print(f"CHECK FAILED (seed {failure['seed']}): {error}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": len(records) + len(failures),
        "failed": len(failures),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
