"""Microbenchmark — event-loop throughput at fleet scale (10k workers).

Unlike the figure benchmarks this file guards a *performance property* of
the substrate itself: the indexed event loop (NumPy clock arrays, release
calendar, per-(region, SKU) idle heaps — see ``repro.core.worker_index``)
must beat the retained linear-scan reference (``ScanEventLoop`` in
``tests/core/loop_oracle.py``) by >=10x events/sec at
1k workers, and a 10k-worker / 1M-event run must sustain a gated
events/sec floor with bounded memory (one counter slot per event kind, no
per-event accumulation).

The driver is a closed-loop saturation workload: keep every worker busy,
placing each item on the fastest idle worker (the speculative-placement
query — one O(n) scan per event in the reference, O(log n) in the indexed
loop) and popping completions when the fleet is full.  Durations cycle
through a small heterogeneous set so completion order interleaves across
workers.  Both loops run the identical driver; the scan reference runs a
proportionally smaller event count to keep wall time sane, and the
makespans at equal event counts must agree exactly (the equivalence
property the ``tests/core/test_indexed_loop.py`` suite checks in depth).

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_eventloop.py -q -s
"""

import importlib.util
import resource
import time
from pathlib import Path

from bench_artifacts import write_bench_json

from repro.cloud import Cluster, FleetSpec
from repro.core import ClusterEventLoop
from repro.core.async_engine import WorkRequest


def _load_scan_loop():
    """``ScanEventLoop`` from the test suite's oracle module, by path."""
    path = Path(__file__).resolve().parents[1] / "tests" / "core" / "loop_oracle.py"
    spec = importlib.util.spec_from_file_location("loop_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ScanEventLoop


ScanEventLoop = _load_scan_loop()

SEED = 7
#: Fleet size for the scan-vs-indexed speedup measurement.
SPEEDUP_WORKERS = 1_000
#: Events driven through the scan reference (O(events x workers) — small).
SCAN_EVENTS = 20_000
#: Events driven through the indexed loop for the speedup figure.
INDEXED_EVENTS = 200_000
#: Indexed events/sec over scan events/sec at 1k workers (measured ~19x).
SPEEDUP_TARGET = 10.0

#: Fleet size and event count for the scale gate (the ROADMAP's target).
SCALE_WORKERS = 10_000
SCALE_EVENTS = 1_000_000
#: Events/sec the 10k-worker / 1M-event run must sustain (measured ~58k
#: locally; the floor leaves ~4x headroom for slower CI runners).
SCALE_THROUGHPUT_FLOOR = 15_000.0
#: Peak RSS cap for the scale run: bounded telemetry means the run's
#: footprint is fleet-sized, not event-sized (measured ~94 MB).
SCALE_MAX_RSS_MB = 2_048.0


def _make_cluster(n_workers, seed=SEED):
    """Heterogeneous 4-group fleet (2 regions x 3 SKUs) of ``n_workers``."""
    per_group = n_workers // 4
    fleet = FleetSpec.of(
        [
            ("westus2", "Standard_D16s_v5", per_group),
            ("westus2", "Standard_D8s_v5", per_group),
            ("eastus", "Standard_D8s_v5", per_group),
            ("eastus", "Standard_D8s_v4", n_workers - 3 * per_group),
        ]
    )
    return Cluster(n_workers=n_workers, seed=seed, fleet=fleet)


def _drive(loop, n_events):
    """Closed-loop saturation driver; returns (elapsed_sec, makespan_hours).

    Submits onto the fastest idle worker until the fleet saturates, then
    alternates pop-completion / place-next until ``n_events`` items have
    been submitted and completed.  Identical call sequence for both loop
    implementations, so the measured ratio isolates the data structures.
    """
    request = WorkRequest(config=None, budget=1, vms=[], iteration=0)
    submitted = completed = 0
    t0 = time.perf_counter()
    while submitted < n_events:
        vm = loop.fastest_idle_worker()
        if vm is None:
            loop.next_completion()
            completed += 1
            continue
        loop.submit(request, vm, 1.0 + (submitted % 7) * 0.13)
        submitted += 1
    while completed < n_events:
        loop.next_completion()
        completed += 1
    return time.perf_counter() - t0, loop.makespan


def test_bench_eventloop_scale(once):
    def run():
        # -- speedup gate: scan reference vs indexed loop at 1k workers ----
        scan_sec, scan_makespan = _drive(
            ScanEventLoop(_make_cluster(SPEEDUP_WORKERS)), SCAN_EVENTS
        )
        # Equivalence spot-check at the scan's event count, then the full
        # indexed measurement at 10x the events.
        _, indexed_makespan_small = _drive(
            ClusterEventLoop(_make_cluster(SPEEDUP_WORKERS)), SCAN_EVENTS
        )
        indexed_sec, _ = _drive(
            ClusterEventLoop(_make_cluster(SPEEDUP_WORKERS)), INDEXED_EVENTS
        )
        scan_eps = SCAN_EVENTS / scan_sec
        indexed_eps = INDEXED_EVENTS / indexed_sec

        # -- scale gate: 10k workers, 1M events, bounded memory ------------
        scale_loop = ClusterEventLoop(_make_cluster(SCALE_WORKERS))
        scale_sec, scale_makespan = _drive(scale_loop, SCALE_EVENTS)
        max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        return {
            "scan_eps": scan_eps,
            "indexed_eps": indexed_eps,
            "speedup": indexed_eps / scan_eps,
            "scan_makespan": scan_makespan,
            "indexed_makespan_small": indexed_makespan_small,
            "scale_eps": SCALE_EVENTS / scale_sec,
            "scale_sec": scale_sec,
            "scale_makespan": scale_makespan,
            "max_rss_mb": max_rss_mb,
            "counters": scale_loop.counters.as_dict()["counters"],
        }

    result = once(run)
    counters = result["counters"]

    print(f"\nEvent-loop scale (speedup fleet: {SPEEDUP_WORKERS} workers)")
    print(
        f"  scan reference : {result['scan_eps']:>10,.0f} events/s"
        f"  ({SCAN_EVENTS:,} events)"
    )
    print(
        f"  indexed loop   : {result['indexed_eps']:>10,.0f} events/s"
        f"  ({INDEXED_EVENTS:,} events)"
    )
    print(
        f"  speedup        : {result['speedup']:.1f}x"
        f" (target {SPEEDUP_TARGET:.0f}x)"
    )
    print(f"Scale run ({SCALE_WORKERS:,} workers, {SCALE_EVENTS:,} events)")
    print(
        f"  throughput     : {result['scale_eps']:>10,.0f} events/s"
        f" (floor {SCALE_THROUGHPUT_FLOOR:,.0f})"
    )
    print(f"  wall time      : {result['scale_sec']:.1f} s")
    print(
        f"  peak RSS       : {result['max_rss_mb']:.0f} MB"
        f" (cap {SCALE_MAX_RSS_MB:.0f} MB)"
    )
    print(
        f"  counter table  : {counters['loop.items.completed']:,.0f} completions"
        f" of {counters['loop.items.submitted']:,.0f} submissions"
    )

    write_bench_json(
        "eventloop",
        {
            "speedup": result["speedup"],
            "speedup_target": SPEEDUP_TARGET,
            "scan_events_per_sec": result["scan_eps"],
            "indexed_events_per_sec": result["indexed_eps"],
            "scale_events_per_sec": result["scale_eps"],
            "scale_throughput_floor": SCALE_THROUGHPUT_FLOOR,
            "scale_wall_sec": result["scale_sec"],
            "scale_makespan_hours": result["scale_makespan"],
            "scale_max_rss_mb": result["max_rss_mb"],
            "makespan_identical": result["scan_makespan"]
            == result["indexed_makespan_small"],
            "counters": counters,
        },
        parameters={
            "seed": SEED,
            "speedup_workers": SPEEDUP_WORKERS,
            "scan_events": SCAN_EVENTS,
            "indexed_events": INDEXED_EVENTS,
            "scale_workers": SCALE_WORKERS,
            "scale_events": SCALE_EVENTS,
        },
    )

    assert result["scan_makespan"] == result["indexed_makespan_small"], (
        "indexed loop diverged from the scan reference: makespans "
        f"{result['indexed_makespan_small']} != {result['scan_makespan']} "
        f"at {SCAN_EVENTS} events"
    )
    assert result["speedup"] >= SPEEDUP_TARGET, (
        f"indexed loop only {result['speedup']:.1f}x over the scan "
        f"reference at {SPEEDUP_WORKERS} workers (target {SPEEDUP_TARGET}x)"
    )
    assert result["scale_eps"] >= SCALE_THROUGHPUT_FLOOR, (
        f"scale run sustained {result['scale_eps']:,.0f} events/s, below "
        f"the {SCALE_THROUGHPUT_FLOOR:,.0f} floor"
    )
    # Bounded memory: one counter slot per event kind covers every event,
    # and the process footprint stays fleet-sized instead of event-sized.
    assert counters["loop.items.completed"] == SCALE_EVENTS
    assert result["max_rss_mb"] <= SCALE_MAX_RSS_MB, (
        f"scale run peaked at {result['max_rss_mb']:.0f} MB RSS "
        f"(cap {SCALE_MAX_RSS_MB:.0f} MB) — telemetry slotting regressed?"
    )
