#!/usr/bin/env python3
"""Perf-trajectory regression gate: fresh BENCH_*.json vs checked-in baselines.

CI (and ``make bench-compare``) runs this after ``make bench``: every guarded
metric in the freshly generated ``BENCH_*.json`` artifacts is diffed against
the committed baseline under ``benchmarks/baselines/``, with per-metric
tolerance bands:

* ``ratio``   — speedups/retentions (deterministic, or same-machine ratios):
  may not drop more than 20% below baseline;
* ``rate``    — machine-dependent absolute throughputs (events/sec): loose
  band (may not drop below 25% of baseline) so slow CI runners don't flake —
  the hard floors live in the benchmarks' own asserts;
* ``ceiling`` — lower-is-better latencies: may not exceed 4x baseline;
* ``flag``    — boolean equivalence gates: must stay truthy.

Exit status is non-zero when any guarded metric regresses (or a guarded
artifact was not generated).  A markdown speedup table — metric, baseline,
current, delta, status — is printed and, with ``--markdown PATH``, written
for ``$GITHUB_STEP_SUMMARY``.

Refreshing baselines after an intentional perf change::

    make bench && cp BENCH_*.json benchmarks/baselines/
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Tolerance factors per metric kind (see module docstring).
RATIO_FLOOR = 0.8  # ratio metrics may not drop >20% below baseline
RATE_FLOOR = 0.25  # machine-dependent rates may not drop below 25%
CEILING_FACTOR = 4.0  # lower-is-better metrics may not exceed 4x baseline

#: Guarded metrics: artifact file -> {metric: kind}.  Metrics absent here
#: (raw seconds, sample counts, provenance) are informational only.
GUARDED = {
    "BENCH_SURROGATE.json": {"speedup": "ratio"},
    "BENCH_FOREST_FIT.json": {"speedup": "ratio", "wide_speedup": "ratio"},
    "BENCH_ASK_LATENCY.json": {
        "cold_ask_seconds": "ceiling",
        "warm_ask_seconds": "ceiling",
        "warm_ask_mixed_seconds": "ceiling",
    },
    "BENCH_ASYNC.json": {"speedup": "ratio", "batch1_identical": "flag"},
    "BENCH_HETEROGENEOUS.json": {
        "makespan_speedup": "ratio",
        "reduction_identical": "flag",
        "assign_ms_1k": "ceiling",
        "assign_scaling_slope": "ceiling",
    },
    "BENCH_STRAGGLER.json": {
        "geomean_speedup": "ratio",
        "none_model_equivalent": "flag",
    },
    "BENCH_RESILIENCE.json": {"geomean_retention": "ratio"},
    "BENCH_GRAYDEG.json": {"geomean_retention": "ratio"},
    "BENCH_BATCH.json": {"quality_margin": "ratio", "refit_reduction": "ratio"},
    "BENCH_REFIT.json": {
        "quality_margin_150": "ratio",
        "quality_margin_600": "ratio",
        "fit_reduction_600": "ratio",
        "host_speedup_600": "ratio",
    },
    "BENCH_EVENTLOOP.json": {
        "speedup": "ratio",
        "indexed_events_per_sec": "rate",
        "scale_events_per_sec": "rate",
        "makespan_identical": "flag",
    },
    "BENCH_OBS.json": {
        "enabled_overhead_frac": "ceiling",
        "disabled_overhead_frac": "ceiling",
        "trajectory_identical": "flag",
    },
}


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _judge(kind, baseline, current):
    """Return (ok, bound_text) for one metric under its tolerance band."""
    if kind == "flag":
        return bool(current), "must stay true"
    baseline = float(baseline)
    current = float(current)
    if kind == "ratio":
        bound = baseline * RATIO_FLOOR
        return current >= bound, f">= {bound:.3g}"
    if kind == "rate":
        bound = baseline * RATE_FLOOR
        return current >= bound, f">= {bound:.3g}"
    if kind == "ceiling":
        bound = baseline * CEILING_FACTOR
        return current <= bound, f"<= {bound:.3g}"
    raise ValueError(f"unknown metric kind {kind!r}")


def _fmt(value):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        return f"{value:,.3f}" if abs(value) < 1e6 else f"{value:,.0f}"
    return str(value)


def _delta(baseline, current):
    if isinstance(baseline, bool) or isinstance(current, bool):
        return "—"
    try:
        return f"{(float(current) / float(baseline) - 1.0) * 100.0:+.1f}%"
    except (TypeError, ValueError, ZeroDivisionError):
        return "—"


def compare(current_dir, baseline_dir):
    """Diff guarded metrics; returns (rows, n_regressions, n_skipped)."""
    rows = []
    n_regressions = 0
    n_skipped = 0
    for artifact in sorted(GUARDED):
        metrics = GUARDED[artifact]
        baseline = _load(os.path.join(baseline_dir, artifact))
        current = _load(os.path.join(current_dir, artifact))
        name = artifact.removeprefix("BENCH_").removesuffix(".json").lower()
        if baseline is None:
            # A brand-new benchmark has no baseline yet: note it, don't fail.
            rows.append((f"{name} (no baseline)", "—", "—", "—", "skipped"))
            n_skipped += 1
            continue
        if current is None:
            rows.append((f"{name} (not generated)", "—", "—", "—", "REGRESSED"))
            n_regressions += 1
            continue
        for metric, kind in sorted(metrics.items()):
            base_value = baseline.get(metric)
            cur_value = current.get(metric)
            label = f"{name}.{metric}"
            if base_value is None:
                rows.append((f"{label} (no baseline)", "—", _fmt(cur_value), "—", "skipped"))
                n_skipped += 1
                continue
            if cur_value is None:
                rows.append((label, _fmt(base_value), "missing", "—", "REGRESSED"))
                n_regressions += 1
                continue
            ok, bound = _judge(kind, base_value, cur_value)
            status = "ok" if ok else f"REGRESSED ({bound})"
            if not ok:
                n_regressions += 1
            rows.append(
                (label, _fmt(base_value), _fmt(cur_value), _delta(base_value, cur_value), status)
            )
    return rows, n_regressions, n_skipped


def to_markdown(rows):
    lines = [
        "### Perf trajectory (`make bench-compare`)",
        "",
        "| Metric | Baseline | Current | Delta | Status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for metric, base_value, cur_value, delta, status in rows:
        lines.append(f"| {metric} | {base_value} | {cur_value} | {delta} | {status} |")
    lines.append("")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current-dir",
        default=os.environ.get("BENCH_JSON_DIR", REPO_ROOT),
        help="directory holding freshly generated BENCH_*.json (default: repo root)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(REPO_ROOT, "benchmarks", "baselines"),
        help="directory holding committed baseline BENCH_*.json",
    )
    parser.add_argument(
        "--markdown",
        default=None,
        metavar="PATH",
        help="also write the comparison table as markdown to PATH",
    )
    args = parser.parse_args(argv)

    rows, n_regressions, n_skipped = compare(args.current_dir, args.baseline_dir)
    markdown = to_markdown(rows)
    print(markdown)
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(markdown)
    if n_regressions:
        print(
            f"FAIL: {n_regressions} guarded metric(s) regressed beyond tolerance",
            file=sys.stderr,
        )
        return 1
    print(f"ok: {len(rows) - n_skipped} metric(s) within tolerance, {n_skipped} skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
