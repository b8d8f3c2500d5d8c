"""Indexed worker-state structures for the event loop at fleet scale.

The event loop's original bookkeeping was a ``Dict[str, float]`` of
per-worker ``free_at`` clocks plus linear scans over ``cluster.workers``
for every idle-worker lookup, speculative ranking and retry placement.
At the paper's scale (10 workers) a scan is free; at the ROADMAP's target
(10k workers, 1M samples) every completion event paying O(n_workers) turns
the run into O(events x workers).

:class:`WorkerIndex` replaces the scans with indexed structures while
reproducing the scans' *exact* tie-break order (stable ordering by worker
index — the determinism contract's DET005 discipline):

* **NumPy array-backed per-worker clocks** — ``free_at``, ``speed`` and
  ``alive`` are flat arrays over the cluster order, so bulk queries
  (idle sets, retry ranking) are single vectorized ops;
* a **release calendar** — a min-heap of ``(free_at, worker)`` entries that
  lazily promotes workers into the idle structures as simulated time
  advances; O(log n) per clock update;
* a **sorted idle-set per (region, SKU) group** — one min-heap of worker
  indices per fleet group (uniform speed inside a group), plus a global
  by-index heap, giving O(log n) claim/release and O(log n)
  first-idle / fastest-idle queries.

Laziness contract: heap entries are invalidated in place (``_idle_mark``)
rather than removed; every query pops invalid heads before trusting one.
Determinism: all orderings derive from ``(finish, worker index)`` or
``(-speed, worker index)`` — no entropy, no wall-clock, no hash order.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cloud.cluster import Cluster
from repro.cloud.vm import VirtualMachine


class WorkerIndex:
    """Indexed view of a cluster's workers for O(log n) event-loop queries."""

    def __init__(self, cluster: Cluster) -> None:
        self._vms: List[VirtualMachine] = list(cluster.workers)
        n = len(self._vms)
        self._index_of: Dict[str, int] = {
            vm.vm_id: i for i, vm in enumerate(self._vms)
        }
        #: Per-worker queue-drain instants (the event loop's worker clocks).
        self.free_at = np.zeros(n, dtype=np.float64)
        self.speed = np.array([vm.speed_factor for vm in self._vms], dtype=np.float64)
        self.alive = np.ones(n, dtype=bool)
        # (region, SKU) fleet groups: uniform speed inside a group, so a
        # per-group sorted idle-set answers "fastest idle" by walking groups
        # in (-speed, first-member) order and comparing their head indices.
        self._group_of = np.zeros(n, dtype=np.int64)
        group_ids: Dict[Tuple[str, str], int] = {}
        for i, vm in enumerate(self._vms):
            key = (vm.region.name, vm.sku.name)
            gid = group_ids.setdefault(key, len(group_ids))
            self._group_of[i] = gid
        self.n_groups = len(group_ids)
        # Group visit order for fastest-idle: by descending speed, ties by
        # the group's first member (stable cluster order).
        first_member: Dict[int, int] = {}
        group_speed: Dict[int, float] = {}
        for i in range(n):
            gid = int(self._group_of[i])
            if gid not in first_member:
                first_member[gid] = i
                group_speed[gid] = float(self.speed[i])
        self._group_order: List[int] = sorted(
            range(self.n_groups),
            key=lambda gid: (-group_speed[gid], first_member[gid]),
        )
        self._group_speed = group_speed
        # Idle bookkeeping: a worker is idle iff free_at <= now and alive.
        # ``_idle_mark`` caches that predicate and doubles as the lazy
        # validity bit for heap entries.
        self._idle_mark = np.ones(n, dtype=bool)
        self._idle_by_index: List[int] = list(range(n))  # already a heap
        self._group_heaps: List[List[int]] = [[] for _ in range(self.n_groups)]
        for i in range(n):
            heapq.heappush(self._group_heaps[int(self._group_of[i])], i)
        # Release calendar: (free_at, worker) entries promoted to idle as
        # ``now`` sweeps past them.  Entries are validated against the
        # current free_at, so rewound/overwritten clocks leave only
        # harmless stale entries behind.
        self._release_cal: List[Tuple[float, int]] = []

    # -- identity -------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._vms)

    def index_of(self, vm_id: str) -> int:
        """Cluster position of a worker (KeyError for foreign workers)."""
        return self._index_of[vm_id]

    def has_worker(self, vm_id: str) -> bool:
        return vm_id in self._index_of

    def vm(self, idx: int) -> VirtualMachine:
        return self._vms[idx]

    # -- clocks ---------------------------------------------------------------
    def free_at_of(self, idx: int) -> float:
        return float(self.free_at[idx])

    def set_free_at(self, idx: int, t: float) -> None:
        """Move a worker's queue-drain clock (claim on submit, or release
        on cancel).  O(log n): one release-calendar push; the worker leaves
        the idle structures by mark-invalidation, not removal."""
        t = float(t)
        self.free_at[idx] = t
        self._idle_mark[idx] = False
        heapq.heappush(self._release_cal, (t, idx))

    def kill(self, idx: int) -> None:
        """Permanently drain a worker (fail-stop node death)."""
        self.alive[idx] = False
        self._idle_mark[idx] = False

    # -- idle promotion -------------------------------------------------------
    def refresh(self, now: float) -> None:
        """Promote every worker whose queue has drained by ``now`` into the
        idle structures.  Amortized O(log n) per clock update."""
        cal = self._release_cal
        mark = self._idle_mark
        free_at = self.free_at
        alive = self.alive
        while cal and cal[0][0] <= now:
            t, idx = heapq.heappop(cal)
            # Stale entries (the clock moved again after this push) and
            # already-idle duplicates are dropped silently.
            if alive[idx] and not mark[idx] and free_at[idx] == t:
                mark[idx] = True
                heapq.heappush(self._idle_by_index, idx)
                heapq.heappush(self._group_heaps[int(self._group_of[idx])], idx)

    def idle_indices(self, now: float) -> np.ndarray:
        """All idle live workers in cluster order (one vectorized op)."""
        self.refresh(now)
        return np.nonzero(self._idle_mark)[0]

    def first_idle(self, now: float) -> Optional[int]:
        """Lowest-index idle live worker — the scan order's first hit.

        O(log n) amortized: invalid heads are popped, the first valid head
        is *peeked* (it leaves the heap when a later claim invalidates it).
        """
        self.refresh(now)
        heap = self._idle_by_index
        while heap:
            idx = heap[0]
            if self._idle_mark[idx]:
                return idx
            heapq.heappop(heap)
        return None

    def _group_head(self, gid: int, excluded: frozenset) -> Optional[int]:
        """Lowest-index valid idle worker of a group, skipping ``excluded``.

        Excluded-but-valid entries are stashed and pushed back — exclusion
        is per-query (one configuration's used workers), not a state change.
        """
        heap = self._group_heaps[gid]
        stash: List[int] = []
        head: Optional[int] = None
        while heap:
            idx = heap[0]
            if not self._idle_mark[idx]:
                heapq.heappop(heap)
                continue
            if idx in excluded:
                stash.append(heapq.heappop(heap))
                continue
            head = idx
            break
        for idx in stash:
            heapq.heappush(heap, idx)
        return head

    def fastest_idle(self, now: float, excluded_ids: Iterable[str] = ()) -> Optional[int]:
        """Fastest idle live worker not in ``excluded_ids``; ties break on
        cluster index — exactly ``min(idle, key=(-speed, index))``."""
        self.refresh(now)
        excluded = frozenset(
            self._index_of[vm_id] for vm_id in excluded_ids if vm_id in self._index_of
        )
        best: Optional[int] = None
        best_key: Optional[Tuple[float, int]] = None
        for gid in self._group_order:
            head = self._group_head(gid, excluded)
            if head is None:
                continue
            key = (-self._group_speed[gid], head)
            if best_key is None or key < best_key:
                best_key = key
                best = head
        return best

    def best_queued(self, now: float, excluded_ids: Iterable[str] = ()) -> Optional[int]:
        """Live worker minimising ``(max(free_at, now), -speed, index)`` —
        the retry placement's earliest-possible-start ranking, vectorized.

        Unlike the idle queries this may pick a *busy* worker (a lost
        sample must be recovered even on a saturated cluster).
        """
        mask = self.alive.copy()
        for vm_id in excluded_ids:
            idx = self._index_of.get(vm_id)
            if idx is not None:
                mask[idx] = False
        if not mask.any():
            return None
        eff = np.where(mask, np.maximum(self.free_at, now), np.inf)
        earliest = eff.min()
        candidates = np.nonzero(eff == earliest)[0]
        # argmax returns the first maximum: lowest index among the fastest.
        return int(candidates[np.argmax(self.speed[candidates])])
