"""Property tests: indexed event loop == linear-scan reference, bit-for-bit.

The scale refactor replaced the event loop's ``Dict[str, float]`` clocks and
O(n) worker scans with indexed structures (:class:`repro.core.WorkerIndex`:
NumPy clock arrays, a release calendar, per-(region, SKU) idle heaps).  The
refactor's contract is *observational equivalence*: for any submission
sequence, the indexed :class:`~repro.core.ClusterEventLoop` must reproduce
the retained ``loop_oracle.ScanEventLoop`` exactly — completion order,
placements, per-worker clocks, makespan, failure traces — including the
scans' tie-break order (stable by worker index, DET005).

The tests here drive *both* loops through identical randomized seeded
scenarios (submit / complete / cancel / query / advance, with speculative
items, fault-stretched durations, transient crashes and fail-stop node
death) and assert the full observable state agrees after every step.  A
second group pins :class:`WorkerIndex` query results to brute-force scans
over its arrays, so the heap laziness (mark-invalidation, stale release
entries) can never drift from the predicate it caches.
"""

import numpy as np
import pytest
from loop_oracle import ScanEventLoop

from repro.cloud import Cluster, FleetSpec
from repro.core import ClusterEventLoop, WorkerIndex, WorkRequest

#: Model permutations the equivalence must hold under.  ``None`` and
#: ``"none"`` are distinct code paths (nothing injected vs injected-but-
#: inert); the named models exercise stretches, transient crashes and
#: fail-stop death (dead-worker resubmission included).
MODEL_GRID = [
    (None, None),
    ("none", "none"),
    ("lognormal", "none"),
    ("none", "transient"),
    ("interference", "transient"),
    ("lognormal", "node-death"),
]


def _heterogeneous_cluster(n_workers: int, seed: int) -> Cluster:
    """Mixed fleet across 4 (region, SKU) groups — distinct speed tiers."""
    per_group = max(n_workers // 4, 1)
    fleet = FleetSpec.of(
        [
            ("westus2", "Standard_D16s_v5", per_group),
            ("westus2", "Standard_D8s_v5", per_group),
            ("eastus", "Standard_D8s_v5", per_group),
            ("eastus", "Standard_D8s_v4", n_workers - 3 * per_group),
        ]
    )
    return Cluster(n_workers=n_workers, seed=seed, fleet=fleet)


def _pair(n_workers, seed, fault_model, crash_model, homogeneous=False):
    """One (indexed, scan) loop pair over identical clusters and models.

    Each loop gets its own cluster built from the same seed (identical
    nodes) and its own model instance built from the same name — the fault
    and crash streams are content-addressed (seed + worker-id hash), so
    independently built instances inject identically.
    """
    if homogeneous:
        make = lambda: Cluster(n_workers=n_workers, seed=seed)  # noqa: E731
    else:
        make = lambda: _heterogeneous_cluster(n_workers, seed)  # noqa: E731
    indexed = ClusterEventLoop(
        make(), fault_model=fault_model, crash_model=crash_model
    )
    scan = ScanEventLoop(make(), fault_model=fault_model, crash_model=crash_model)
    return indexed, scan


def _vm_id(vm):
    return None if vm is None else vm.vm_id


def _assert_state_agrees(indexed, scan, rng):
    """Every observable the loops expose must agree, including queries."""
    assert indexed.now == scan.now
    assert indexed.makespan == scan.makespan
    assert indexed.n_in_flight == scan.n_in_flight
    assert indexed.n_dead == scan.n_dead
    assert indexed.peek_finish() == scan.peek_finish()
    for vm in scan.cluster.workers:
        assert indexed.worker_free_at(vm.vm_id) == scan.worker_free_at(vm.vm_id)
        assert indexed.is_dead(vm.vm_id) == scan.is_dead(vm.vm_id)
    assert [vm.vm_id for vm in indexed.idle_workers()] == [
        vm.vm_id for vm in scan.idle_workers()
    ]
    assert _vm_id(indexed.first_idle_worker()) == _vm_id(scan.first_idle_worker())
    # Placement queries under a random exclusion set (a configuration's
    # already-used workers, or a speculation's ineligible nodes).
    workers = scan.cluster.workers
    n_excluded = int(rng.integers(0, len(workers)))
    excluded = [
        workers[int(i)].vm_id
        for i in rng.choice(len(workers), size=n_excluded, replace=False)
    ]
    assert _vm_id(indexed.fastest_idle_worker(excluded)) == _vm_id(
        scan.fastest_idle_worker(excluded)
    )
    assert _vm_id(indexed.best_retry_worker(excluded)) == _vm_id(
        scan.best_retry_worker(excluded)
    )


def _assert_items_agree(item_a, item_b):
    assert item_a.sequence == item_b.sequence
    assert item_a.vm.vm_id == item_b.vm.vm_id
    assert item_a.start_hours == item_b.start_hours
    assert item_a.finish_hours == item_b.finish_hours
    assert item_a.stretch == item_b.stretch
    assert item_a.speculative == item_b.speculative
    assert item_a.failed == item_b.failed
    assert item_a.failure_kind == item_b.failure_kind
    assert item_a.cancelled == item_b.cancelled


def _drive_random_scenario(indexed, scan, seed, n_ops):
    """Apply one randomized op script to both loops, checking after each op.

    The script is drawn once per op from a seeded RNG and applied to both
    loops identically; every branch decision derives from the *scan* loop's
    state, which the previous step proved equal to the indexed loop's.
    """
    rng = np.random.default_rng(seed)
    request = WorkRequest(config=None, budget=1, vms=[], iteration=0)
    workers = scan.cluster.workers
    # Parallel pending lists: position i holds the same logical item in
    # both loops (proven identical on submit).
    pending_indexed = []
    pending_scan = []
    trace = []

    def pop_completions():
        item_i = indexed.next_completion()
        item_s = scan.next_completion()
        _assert_items_agree(item_i, item_s)
        trace.append((item_s.sequence, item_s.finish_hours, item_s.failed))
        for pend, item in ((pending_indexed, item_i), (pending_scan, item_s)):
            if item in pend:
                pend.remove(item)

    for _ in range(n_ops):
        op = rng.choice(["submit", "submit", "submit", "complete", "cancel", "advance"])
        if op == "submit" or scan.n_in_flight == 0 and op != "advance":
            # Deliberately includes dead workers: resubmission onto a
            # drained node must fail instantly and identically.
            vm_idx = int(rng.integers(0, len(workers)))
            duration = float(rng.uniform(0.2, 3.0))
            speculative = bool(rng.random() < 0.2)
            not_before = (
                scan.now + float(rng.uniform(0.0, 1.0))
                if rng.random() < 0.3
                else 0.0
            )
            item_i = indexed.submit(
                request,
                indexed.cluster.workers[vm_idx],
                duration,
                speculative=speculative,
                not_before=not_before,
            )
            item_s = scan.submit(
                request,
                workers[vm_idx],
                duration,
                speculative=speculative,
                not_before=not_before,
            )
            _assert_items_agree(item_i, item_s)
            pending_indexed.append(item_i)
            pending_scan.append(item_s)
        elif op == "complete":
            pop_completions()
        elif op == "cancel":
            # First-finish-wins speculation loser: cancel a random pending
            # item (already-popped items are pruned lazily here, mirroring
            # the engine's done-guard).
            cancellable = [
                k
                for k, item in enumerate(pending_scan)
                if not item.done and not item.cancelled
            ]
            if cancellable:
                k = cancellable[int(rng.integers(0, len(cancellable)))]
                indexed.cancel(pending_indexed[k])
                scan.cancel(pending_scan[k])
                _assert_items_agree(pending_indexed[k], pending_scan[k])
        else:
            jump = scan.now + float(rng.uniform(0.0, 2.0))
            indexed.advance_now(jump)
            scan.advance_now(jump)
        _assert_state_agrees(indexed, scan, rng)

    # Drain: the full remaining completion order must agree event by event.
    while scan.n_in_flight > 0:
        pop_completions()
        _assert_state_agrees(indexed, scan, rng)
    assert indexed.n_in_flight == 0
    return trace


@pytest.mark.parametrize("fault_model,crash_model", MODEL_GRID)
def test_indexed_loop_matches_scan_reference(fault_model, crash_model):
    """Randomized submit/complete/cancel/fail scenarios: identical
    completion order, placements and clocks under every model permutation."""
    for seed in (0, 11, 202):
        indexed, scan = _pair(12, seed, fault_model, crash_model)
        trace = _drive_random_scenario(indexed, scan, seed=seed * 31 + 7, n_ops=160)
        assert trace, "scenario must have produced completions"
        assert indexed.makespan == scan.makespan


def test_indexed_loop_matches_scan_on_homogeneous_cluster():
    """Single-group fleet: every tie-break falls through to worker index."""
    indexed, scan = _pair(
        10, 3, fault_model="none", crash_model="transient", homogeneous=True
    )
    _drive_random_scenario(indexed, scan, seed=99, n_ops=200)


def test_submit_to_foreign_worker_raises_keyerror():
    indexed, scan = _pair(4, 0, None, None)
    # A larger cluster's extra node: its vm_id is absent from the 4-worker
    # loops (worker ids are positional, so same-size clusters would collide).
    foreign = Cluster(n_workers=9, seed=777).workers[8]
    request = WorkRequest(config=None, budget=1, vms=[], iteration=0)
    with pytest.raises(KeyError):
        indexed.submit(request, foreign, 1.0)
    with pytest.raises(KeyError):
        scan.submit(request, foreign, 1.0)


# -- WorkerIndex vs brute force -----------------------------------------------


def _brute_first_idle(index, now):
    for i in range(index.n_workers):
        if index.alive[i] and index.free_at[i] <= now:
            return i
    return None


def _brute_fastest_idle(index, now, excluded):
    best = None
    for i in range(index.n_workers):
        if not index.alive[i] or index.free_at[i] > now or i in excluded:
            continue
        if best is None or (-index.speed[i], i) < (-index.speed[best], best):
            best = i
    return best


def _brute_best_queued(index, now, excluded):
    best = None

    def key(i):
        return (max(float(index.free_at[i]), now), -index.speed[i], i)

    for i in range(index.n_workers):
        if not index.alive[i] or i in excluded:
            continue
        if best is None or key(i) < key(best):
            best = i
    return best


def test_worker_index_queries_match_brute_force_scans():
    """Fuzz claim/release/kill against O(n) reference scans: the lazy heap
    bookkeeping (mark-invalidation, stale release-calendar entries, rewound
    clocks) must never change a query result."""
    cluster = _heterogeneous_cluster(16, seed=1)
    index = WorkerIndex(cluster)
    ids = [vm.vm_id for vm in cluster.workers]
    rng = np.random.default_rng(12345)
    now = 0.0
    for _ in range(400):
        op = rng.choice(["claim", "release", "advance", "kill"], p=[0.45, 0.2, 0.3, 0.05])
        i = int(rng.integers(0, index.n_workers))
        if op == "claim":
            index.set_free_at(i, now + float(rng.uniform(0.1, 5.0)))
        elif op == "release":
            # Cancellation rewind: the clock moves *backwards*, leaving a
            # stale future entry in the release calendar.
            index.set_free_at(i, max(0.0, now - float(rng.uniform(0.0, 1.0))))
        elif op == "advance":
            now += float(rng.uniform(0.0, 2.0))
        else:
            index.kill(i)
        n_excluded = int(rng.integers(0, index.n_workers))
        excluded = {
            int(j) for j in rng.choice(index.n_workers, size=n_excluded, replace=False)
        }
        excluded_ids = [ids[j] for j in excluded]
        assert index.first_idle(now) == _brute_first_idle(index, now)
        assert index.fastest_idle(now, excluded_ids) == _brute_fastest_idle(
            index, now, excluded
        )
        assert index.best_queued(now, excluded_ids) == _brute_best_queued(
            index, now, excluded
        )
        expected_idle = [
            i
            for i in range(index.n_workers)
            if index.alive[i] and index.free_at[i] <= now
        ]
        assert list(index.idle_indices(now)) == expected_idle


def test_worker_index_tie_breaks_by_cluster_position():
    """Uniform speeds: fastest-idle and best-queued must pick the lowest
    cluster index (the scan order's first hit) — DET005's stable order."""
    cluster = Cluster(n_workers=6, seed=0)
    index = WorkerIndex(cluster)
    assert index.fastest_idle(0.0) == 0
    assert index.best_queued(0.0) == 0
    index.set_free_at(0, 4.0)
    index.set_free_at(1, 4.0)
    assert index.fastest_idle(0.0) == 2
    ids = [vm.vm_id for vm in cluster.workers]
    assert index.fastest_idle(0.0, excluded_ids=[ids[2], ids[3]]) == 4
    # All queued equally far out: earliest start ties, index decides.
    for i in range(index.n_workers):
        index.set_free_at(i, 4.0)
    assert index.fastest_idle(0.0) is None
    assert index.best_queued(0.0) == 0
    assert index.best_queued(0.0, excluded_ids=[ids[0]]) == 1


def test_worker_index_kill_removes_from_every_query():
    cluster = Cluster(n_workers=3, seed=0)
    index = WorkerIndex(cluster)
    index.kill(0)
    assert index.first_idle(0.0) == 1
    assert index.fastest_idle(0.0) == 1
    assert index.best_queued(0.0) == 1
    assert list(index.idle_indices(0.0)) == [1, 2]
    index.kill(1)
    index.kill(2)
    assert index.first_idle(0.0) is None
    assert index.fastest_idle(0.0) is None
    assert index.best_queued(0.0) is None
