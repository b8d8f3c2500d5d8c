#!/usr/bin/env bash
# Heterogeneous-fleet placement microbenchmark smoke run: prints the mixed
# 3-region/3-SKU fleet's simulated makespan under heterogeneity-aware vs
# naive FIFO placement at the same sample budget, asserts the aware policy
# stays ahead, re-checks the one-SKU fleet -> homogeneous reduction gate,
# times assign() on 3-region fleets of 100/300/1000 workers (log-log slope
# <= 1.2), and writes BENCH_HETEROGENEOUS.json (speedup, makespans, assign
# ms at 1k workers, scaling slope) for CI archiving.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python -m pytest benchmarks/test_bench_heterogeneous.py -q -s "$@"
