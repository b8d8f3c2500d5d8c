"""Tests for the bounded telemetry slots (ring buffers + spill summaries).

These containers are what makes the event loop's memory independent of run
length at the 1M-sample scale: the invariants checked here are *bounded
size* (the ring never exceeds its capacity), *no silent truncation* (every
evicted value survives in the spill aggregates; all-time counters keep the
full story) and *chronology* (the buffer is always the most recent window,
oldest first).
"""

import numpy as np
import pytest

from repro.cloud import Cluster
from repro.core import ClusterEventLoop, WorkRequest
from repro.obs.metrics import RingBuffer, SpillSummary
from repro.faults import SpeculationPolicy, StragglerDetector


def test_spill_summary_tracks_running_aggregates():
    summary = SpillSummary()
    assert summary.count == 0
    assert summary.mean is None
    for value in (3.0, -1.0, 4.0):
        summary.observe(value)
    assert summary.count == 3
    assert summary.total == 6.0
    assert summary.minimum == -1.0
    assert summary.maximum == 4.0
    assert summary.mean == 2.0
    assert summary.as_dict() == {
        "count": 3,
        "total": 6.0,
        "min": -1.0,
        "max": 4.0,
        "mean": 2.0,
    }


def test_ring_buffer_below_capacity_holds_everything():
    ring = RingBuffer(8)
    for value in (5.0, 1.0, 3.0):
        ring.append(value)
    assert len(ring) == 3
    assert ring.n_appended == 3
    assert ring.n_spilled == 0
    assert list(ring.as_array()) == [5.0, 1.0, 3.0]
    assert ring.quantile(1.0) == 5.0


def test_ring_buffer_spills_oldest_and_keeps_recent_window():
    ring = RingBuffer(4)
    for value in range(10):
        ring.append(float(value))
    # Bounded: the buffer holds exactly the 4 most recent, oldest first.
    assert len(ring) == 4
    assert list(ring.as_array()) == [6.0, 7.0, 8.0, 9.0]
    # No silent truncation: the 6 evicted values live on in the spill.
    assert ring.n_appended == 10
    assert ring.n_spilled == 6
    assert ring.spilled.minimum == 0.0
    assert ring.spilled.maximum == 5.0
    assert ring.spilled.total == sum(range(6))
    # Quantile is over the buffered window only.
    assert ring.quantile(0.5) == 7.5


def test_ring_buffer_window_matches_numpy_on_random_stream():
    rng = np.random.default_rng(8)
    ring = RingBuffer(32)
    values = rng.uniform(0.0, 10.0, size=200)
    for value in values:
        ring.append(float(value))
    window = values[-32:]
    assert np.array_equal(ring.as_array(), window)
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert np.array_equal(ring.quantile(q), np.quantile(window, q))
    assert ring.spilled.count == 168
    assert ring.spilled.total == pytest.approx(float(values[:-32].sum()))


def test_spill_summary_merge_equals_observing_both_streams():
    left, right, reference = SpillSummary(), SpillSummary(), SpillSummary()
    for value in (2.0, -3.0, 7.0):
        left.observe(value)
        reference.observe(value)
    for value in (11.0, 0.5):
        right.observe(value)
        reference.observe(value)
    left.merge(right)
    assert left.as_dict() == reference.as_dict()
    # Merging an empty summary is a no-op in both directions.
    before = dict(left.as_dict())
    left.merge(SpillSummary())
    assert left.as_dict() == before
    empty = SpillSummary()
    empty.merge(left)
    assert empty.as_dict() == before


def test_ring_buffer_snapshot_combines_spill_and_window():
    ring = RingBuffer(4)
    for value in range(10):
        ring.append(float(value))
    snapshot = ring.snapshot()
    # All-time aggregates: evictions and the buffered window together.
    assert snapshot["count"] == 10
    assert snapshot["total"] == sum(range(10))
    assert snapshot["min"] == 0.0
    assert snapshot["max"] == 9.0
    assert snapshot["n_appended"] == 10
    assert snapshot["n_spilled"] == 6
    assert snapshot["window"] == [6.0, 7.0, 8.0, 9.0]


def test_ring_buffer_snapshot_below_capacity_has_no_spill():
    ring = RingBuffer(8)
    for value in (5.0, 1.0):
        ring.append(value)
    snapshot = ring.snapshot()
    assert snapshot["count"] == 2
    assert snapshot["n_spilled"] == 0
    assert snapshot["window"] == [5.0, 1.0]
    assert snapshot["min"] == 1.0 and snapshot["max"] == 5.0


def test_ring_buffer_rejects_bad_inputs():
    with pytest.raises(ValueError):
        RingBuffer(0)
    with pytest.raises(ValueError):
        RingBuffer(4).quantile(0.5)


@pytest.mark.parametrize("capacity", [1, 2, 7, 64])
def test_ring_buffer_quantile_is_numpy_linear_bit_for_bit(capacity):
    """The partition + lerp quantile equals ``np.quantile`` exactly (no
    tolerance) on random windows, ties, size-1 and full rings."""
    rng = np.random.default_rng(capacity)
    for trial in range(60):
        ring = RingBuffer(capacity)
        n_values = int(rng.integers(1, 3 * capacity + 2))
        if trial % 3 == 0:
            values = rng.integers(0, 4, size=n_values).astype(float)  # ties
        else:
            values = rng.lognormal(0.0, 1.5, size=n_values) * 10.0 ** rng.integers(-3, 4)
        for value in values:
            ring.append(float(value))
        window = ring.as_array()
        for q in (0.0, 0.5, 0.9, 0.95, 1.0, float(rng.random())):
            assert np.array_equal(ring.quantile(q), np.quantile(window, q)), (q, window)


def test_event_loop_counts_each_event_once_without_observability():
    """With no registry attached the loop still counts into a private
    table; histograms and busy hours stay off."""
    cluster = Cluster(n_workers=3, seed=0)
    loop = ClusterEventLoop(cluster)
    request = WorkRequest(config=None, budget=1, vms=[], iteration=0)
    items = [loop.submit(request, vm, 1.0 + k) for k, vm in enumerate(cluster.workers)]
    loop.cancel(items[2])
    loop.next_completion()
    loop.next_completion()
    counters = loop.counters.as_dict()
    assert counters["counters"]["loop.items.submitted"] == 3
    assert counters["counters"]["loop.items.completed"] == 2
    assert counters["counters"]["loop.items.cancelled"] == 1
    assert counters["counters"]["loop.items.failed"] == 0
    assert counters["histograms"] == {}
    assert loop.counters.labelled("loop.busy_hours") == {}


def test_straggler_detector_history_is_windowed():
    """The detector observes through a ring: thresholds follow the recent
    window, all-time counts stay exact, and memory stays bounded."""
    policy = SpeculationPolicy(min_history=4, history_window=8, quantile=0.5)
    detector = StragglerDetector(policy)
    for value in range(100):
        detector.observe(float(value) + 1.0)
    assert detector.n_observed == 100
    assert detector.n_windowed == 8
    # Median of the last 8 observations (93..100), not of all 100.
    assert detector.threshold() == pytest.approx(
        float(np.quantile(np.arange(93.0, 101.0), 0.5)) * policy.slack
    )


def test_speculation_policy_rejects_window_smaller_than_min_history():
    with pytest.raises(ValueError):
        SpeculationPolicy(min_history=16, history_window=8)
