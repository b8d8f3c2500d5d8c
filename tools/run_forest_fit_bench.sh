#!/usr/bin/env bash
# Forest-training microbenchmark smoke run: asserts the vectorized
# all-trees-at-once builder stays >= 5x faster than the per-node pointer
# reference at n=1000 (24 trees) and >= 10x on the noise adjuster's 30x525
# one-hot matrix, caps the tracemalloc peak of one fit at each benchmarked
# shape (n=1000, 30x525, 60x21), holds SMACOptimizer.ask() to its end-to-end
# latency budget, and writes BENCH_FOREST_FIT.json + BENCH_ASK_LATENCY.json
# for CI archiving.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python -m pytest benchmarks/test_bench_forest_fit.py -q -s "$@"
