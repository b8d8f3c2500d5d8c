#!/usr/bin/env bash
# Batch-proposal quality gate: runs a seed panel of paper-shaped studies
# (postgres/mssales, 10 workers, batch 10) under CL-min and posterior
# fantasies, prints per-seed deployment cost and SMAC refits per ask,
# asserts the posterior median deployment cost stays within 1.05x of the
# CL-min median while refits per ask fall at least 2x, and writes
# BENCH_BATCH.json for CI archiving.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python -m pytest benchmarks/test_bench_batch_proposals.py -q -s "$@"
