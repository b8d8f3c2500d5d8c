"""Simulated-time liveness leases: heartbeat monitoring and epoch fencing.

A gray failure is a worker that goes *silent* without dying — stalled,
partitioned, or just slow to report.  The orchestrator cannot distinguish
"slow" from "lost", so it leases: every :class:`WorkItem` assignment carries
a monotonically increasing **lease epoch**, and the :class:`LivenessMonitor`
tracks, per in-flight item, the last simulated instant a heartbeat was
heard (``item.silent_at``, set by the event loop from the partition model's
decision).  When silence outlives the lease timeout the item's lease
expires: the engine declares the worker *suspected* (not dead), fences the
item's epoch and re-submits the slot under a new epoch through the existing
retry path.  A fenced item's eventual report — the *zombie* — is
deterministically rejected at its pop, so exactly one accepted result per
sample slot holds under any interleaving of stalls, partitions, crashes and
speculation.

Determinism: the monitor consumes no RNG.  Suspicion instants are pure
arithmetic (``silent_at + lease_timeout``), processed in ``(deadline,
epoch)`` order strictly before any completion they precede, and epochs are
assigned in submission order — so a fixed seed reproduces the suspicion and
fencing trace exactly.  Without a partition model no item is ever silent
before its report (``silent_at == finish``), so an armed monitor schedules
no suspicions and the trajectory is bit-for-bit the unleased one.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # annotation only; avoids the core<->engine import cycle
    from repro.core.async_engine import WorkItem


class LivenessMonitor:
    """Lease table over in-flight work items, in simulated time.

    :meth:`grant` stamps each submitted item with the next lease epoch and —
    only when the item will actually outlive its lease in silence — queues
    its suspicion deadline; :meth:`next_suspicion_before` hands expiries to
    the event loop in deterministic ``(deadline, epoch)`` order;
    :meth:`settle` lazily retires leases whose item already reported or was
    cancelled (stale heap entries are skipped on pop, the usual lazy-heap
    discipline).
    """

    def __init__(self, lease_timeout_hours: float) -> None:
        if lease_timeout_hours <= 0:
            raise ValueError("lease_timeout_hours must be positive")
        self.lease_timeout_hours = float(lease_timeout_hours)
        self._next_epoch = 1
        #: Items under a live (unsettled) lease, keyed by item sequence.
        self._leased: Dict[int, "WorkItem"] = {}
        #: Pending suspicion deadlines: (deadline, epoch, item sequence).
        self._deadlines: List[Tuple[float, int, int]] = []

    @property
    def n_leased(self) -> int:
        """Leases that could still expire (suspicion scheduled, unsettled)."""
        return len(self._leased)

    def grant(self, item: "WorkItem") -> int:
        """Stamp the item with a fresh lease epoch; schedule its expiry.

        The suspicion deadline is ``silent_at + lease_timeout``.  An item
        that reports before its deadline (``deadline >= finish_hours``) can
        never be suspected, so no heap entry is created for it — with no
        partition model armed this is every item, and the monitor reduces
        to an epoch counter.
        """
        epoch = self._next_epoch
        self._next_epoch += 1
        item.epoch = epoch
        deadline = item.silent_at + self.lease_timeout_hours
        if deadline < item.finish_hours:
            self._leased[item.sequence] = item
            heapq.heappush(self._deadlines, (deadline, epoch, item.sequence))
        return epoch

    def settle(self, sequence: int) -> None:
        """Retire a lease (its item reported or was cancelled)."""
        self._leased.pop(sequence, None)

    def next_suspicion_before(
        self, horizon: Optional[float]
    ) -> Optional[Tuple[float, "WorkItem"]]:
        """Pop the earliest pending suspicion strictly before ``horizon``.

        ``horizon`` is the next completion's pop time (``None``: no work in
        flight, every pending suspicion is eligible).  A report arriving
        exactly at the deadline wins the race: only strictly earlier
        suspicions fire, so the suspicion/completion interleaving is
        unambiguous.  The popped item's lease is retired here; the caller
        fences its epoch.
        """
        while self._deadlines:
            deadline, epoch, sequence = self._deadlines[0]
            item = self._leased.get(sequence)
            if item is None or item.epoch != epoch or item.cancelled or item.done:
                heapq.heappop(self._deadlines)  # stale lease: lazily dropped
                continue
            if horizon is not None and deadline >= horizon:
                return None
            heapq.heappop(self._deadlines)
            del self._leased[sequence]
            return deadline, item
        return None
