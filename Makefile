# Convenience entry points for the tier-1 gate, lint and benchmarks.
#
#   make test             tier-1 gate (full test + benchmark suite, -x -q)
#   make test-fast        unit tests only (skips the figure benchmarks)
#   make lint             ruff check over src, tests and benchmarks
#   make lint-det         detlint determinism/reproducibility static analysis
#   make typecheck        mypy over the strictly-typed packages (core, faults)
#   make bench-surrogate  surrogate-inference throughput microbenchmark
#   make bench-forest-fit vectorized forest-training + ask() latency microbenchmark
#   make bench-async      async batched execution makespan microbenchmark
#   make bench-hetero     heterogeneous-fleet placement microbenchmark
#   make bench-straggler  speculative re-execution under injected stragglers
#   make bench-resilience crash recovery + durable checkpointing microbenchmark
#   make bench-graydeg    gray-failure tolerance (leases/fencing/quarantine) microbenchmark
#   make bench-eventloop  event-loop scale microbenchmark (10k workers / 1M events)
#   make bench-obs        observability overhead gate + RUN_REPORT.md artifact
#   make bench-e2e        end-to-end TUNA study benchmark, one short run per workload
#   make bench-batch      batch-proposal quality gate (CL-min vs posterior seed panel)
#   make bench-refit      noise-adjuster refit schedule on a study-length grid (fits + quality)
#   make bench-compare    diff fresh BENCH_*.json against benchmarks/baselines
#   make bench            all figure benchmarks (writes BENCH_*.json)
#   make loc              code lines per src/repro package (tools/src_lines.py)

.PHONY: test test-fast lint lint-det typecheck bench bench-surrogate bench-forest-fit bench-async bench-hetero bench-straggler bench-resilience bench-graydeg bench-eventloop bench-obs bench-e2e bench-batch bench-refit bench-compare loc

test:
	./tools/run_tier1.sh

test-fast:
	PYTHONPATH=src python -m pytest tests -x -q

lint:
	ruff check src tests benchmarks

lint-det:
	./tools/run_detlint.sh

typecheck:
	./tools/run_typecheck.sh

bench-surrogate:
	./tools/run_surrogate_bench.sh

bench-forest-fit:
	./tools/run_forest_fit_bench.sh

bench-async:
	./tools/run_async_bench.sh

bench-hetero:
	./tools/run_heterogeneous_bench.sh

bench-straggler:
	./tools/run_straggler_bench.sh

bench-resilience:
	./tools/run_resilience_bench.sh

bench-graydeg:
	./tools/run_graydeg_bench.sh

bench-eventloop:
	./tools/run_eventloop_bench.sh

bench-obs:
	./tools/run_obs_bench.sh

bench-e2e:
	./tools/run_e2e_bench.sh

bench-batch:
	./tools/run_batch_bench.sh

bench-refit:
	./tools/run_refit_bench.sh

bench-compare:
	python tools/bench_compare.py

loc:
	python tools/src_lines.py --count core/async_engine.py --count core/async_engine.py:AsyncExecutionEngine

bench:
	PYTHONPATH=src python -m pytest benchmarks -q
