#!/usr/bin/env bash
# End-to-end TUNA study benchmark smoke run: one short untraced run of
# e2ebench/run.py per workload (seed 1, ~10 s each).  Every study's outputs
# are checked by the harness; a failed check exits 1, which fails this
# script (and the CI step that runs it).
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in paper-mssales-10 fleet-mixed-500 chaos-durable-50; do
    python3 e2ebench/run.py --workload "$workload" --seed 1 --seconds 10 --trace 0
done
