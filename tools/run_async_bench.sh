#!/usr/bin/env bash
# Async-execution microbenchmark smoke run: prints lockstep (batch 1) vs
# 10-worker asynchronous simulated wall-clock for the same sample budget,
# asserts the makespan speedup stays >= 5x, re-checks the batch-size-1
# equivalence gate (lockstep mode == the sequential oracle in
# tests/core/sequential_oracle.py, bit for bit), and writes BENCH_ASYNC.json
# (speedup, makespans) for CI archiving.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python -m pytest benchmarks/test_bench_async_engine.py -q -s "$@"
