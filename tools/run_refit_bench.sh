#!/usr/bin/env bash
# Noise-adjuster refit-schedule gate: runs paper-shaped studies
# (postgres/mssales, 10 workers, batch 10) at 150 and 600 samples under the
# every-point schedule (REFIT_GROWTH 1.0) and the default geometric one over
# an 8-seed panel, records host seconds, ms/sample, noise fits and the
# host-time slope, asserts the fits at 600 samples stay within 2x the fits at
# 150 and the median deployment cost within 1.05x of the every-point median,
# and writes BENCH_REFIT.json for CI archiving.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python -m pytest benchmarks/test_bench_refit_schedule.py -q -s "$@"
