"""Multi-fidelity task scheduler: node placement for samples (§5.1).

Samples taken at a lower budget are *reused* when a configuration is promoted
to a higher budget, so only the missing samples are scheduled — and they must
land on worker nodes the configuration has not used before, otherwise the
detection guarantees of Fig. 9 (which assume samples from distinct nodes)
would not hold.

Placement is **heterogeneity-aware** by default: in a mixed fleet the
scheduler trades node diversity against queue depth and SKU speed, preferring
free fast workers (Gavel-style throughput-normalised placement: the cost of a
worker is its expected queue wait ``(queued + 1) / speed``) while still
spreading a configuration's samples across regions so the noise aggregation
sees every environment.  On a homogeneous single-region cluster every term of
the ranking collapses to the legacy ``(reserved, load, random)`` order, so
existing trajectories are reproduced bit-for-bit under the same seeds.

Only the first ``needed`` workers of the greedy order are ever used, and
only those are computed.  The diversity term is the same for every worker of
one region, so each region's workers are sorted once by the remaining terms;
each pick is then the minimum over the R region heads, after which the
winner's region usage grows by one.  That is exactly the worker the greedy
rank would pick next, at O(n log n + needed * R) per request instead of the
O(n²) full greedy rank (a trailing position term reproduces ``min``'s
first-in-list tie rule).

The ``"fifo"`` mode is the naive baseline: round-robin over workers in fixed
order, blind to speed and queue depth — what a heterogeneity-oblivious
scheduler would do, and what the heterogeneous-fleet benchmark beats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import Cluster
from repro.cloud.vm import VirtualMachine
from repro.configspace import Configuration

if TYPE_CHECKING:  # annotation only; obs is an optional attachment
    from repro.obs.metrics import MetricsRegistry

#: Known placement policies (see class docstring).
PLACEMENT_POLICIES = ("heterogeneity", "fifo")


class MultiFidelityTaskScheduler:
    """Chooses which worker nodes run the next samples of a configuration."""

    def __init__(
        self,
        cluster: Cluster,
        seed: Optional[int] = None,
        placement: str = "heterogeneity",
    ) -> None:
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {placement!r}; "
                f"known: {PLACEMENT_POLICIES}"
            )
        self.cluster = cluster
        self.placement = placement
        self._rng = np.random.default_rng(seed)
        # Load balancing: how many samples each worker has executed so far.
        self._load: Dict[str, int] = {vm.vm_id: 0 for vm in cluster.workers}
        # In-flight reservations: how many submitted-but-unfinished samples
        # each worker currently holds (asynchronous mode).  Reserved workers
        # are deprioritised by :meth:`assign` so new samples land on idle
        # nodes first and the cluster stays uniformly busy.
        self._reserved: Dict[str, int] = {vm.vm_id: 0 for vm in cluster.workers}
        self._n_reserved_total = 0  # running sum, so n_reserved() is O(1)
        # Static per-worker facts consumed by the placement ranking.
        self._speed: Dict[str, float] = {
            vm.vm_id: vm.speed_factor for vm in cluster.workers
        }
        self._region: Dict[str, str] = {
            vm.vm_id: vm.region.name for vm in cluster.workers
        }
        self._index: Dict[str, int] = {
            vm.vm_id: i for i, vm in enumerate(cluster.workers)
        }
        self._rr_cursor = 0  # next worker index for "fifo" round-robin
        #: Optional observability registry (attached by the tuning loop).
        #: Write-only and ``is not None``-guarded — trajectory-inert.
        self.metrics: Optional["MetricsRegistry"] = None
        # Workers permanently drained from the fleet (fail-stop node death).
        # They keep their load/reservation bookkeeping — in-flight samples on
        # a dying worker are still released through the normal paths — but
        # never appear in an eligible set again.
        self._dead: set = set()
        # Workers under an expired liveness lease (gray-failure suspicion).
        # Reversible, unlike ``_dead``: the worker rejoins the eligible pool
        # the moment its silent item's report finally drains as a zombie —
        # queueing fresh work behind a multi-hour silence would otherwise
        # serialize the study on the one worker everyone gave up on.
        self._suspended: set = set()

    @property
    def n_workers(self) -> int:
        return self.cluster.n_workers

    # -- fail-stop node death -------------------------------------------------
    def mark_dead(self, worker_id: str) -> None:
        """Permanently drain a worker from the fleet (graceful degradation).

        Idempotent.  Placement never selects a dead worker again; existing
        reservations stay accounted so the failure/retry paths can release
        them without tripping the over-release guard.
        """
        if worker_id not in self._reserved:
            raise KeyError(f"unknown worker {worker_id!r}")
        self._dead.add(worker_id)

    def is_dead(self, worker_id: str) -> bool:
        return worker_id in self._dead

    @property
    def n_alive(self) -> int:
        """Workers still accepting placements (fleet size minus the dead)."""
        return self.cluster.n_workers - len(self._dead)

    # -- gray-failure suspension ----------------------------------------------
    def suspend(self, worker_id: str) -> None:
        """Temporarily drain a worker whose liveness lease expired.

        The worker is only *suspected*, not dead: placement avoids it while
        it is silent, and :meth:`restore` re-admits it the moment its
        delayed report arrives.  Idempotent.
        """
        if worker_id not in self._reserved:
            raise KeyError(f"unknown worker {worker_id!r}")
        self._suspended.add(worker_id)

    def restore(self, worker_id: str) -> None:
        """Re-admit a suspended worker to the eligible pool (idempotent)."""
        self._suspended.discard(worker_id)

    def is_suspended(self, worker_id: str) -> bool:
        return worker_id in self._suspended

    # -- in-flight reservations ---------------------------------------------
    def reserve(self, worker_ids: Sequence[str]) -> None:
        """Mark workers as running in-flight samples (one reservation each).

        Atomic: every id is validated before any reservation is taken.
        """
        for worker_id in worker_ids:
            if worker_id not in self._reserved:
                raise KeyError(f"unknown worker {worker_id!r}")
        for worker_id in worker_ids:
            self._reserved[worker_id] += 1
        self._n_reserved_total += len(worker_ids)
        if self.metrics is not None:
            self.metrics.set("scheduler.reserved", self._n_reserved_total)

    def release(self, worker_ids: Sequence[str]) -> None:
        """Release reservations taken out by :meth:`reserve`.

        Atomic: every id and every count is validated before any
        reservation is released.
        """
        releasing: Dict[str, int] = {}
        for worker_id in worker_ids:
            if worker_id not in self._reserved:
                raise KeyError(f"unknown worker {worker_id!r}")
            releasing[worker_id] = releasing.get(worker_id, 0) + 1
            if releasing[worker_id] > self._reserved[worker_id]:
                raise RuntimeError(f"worker {worker_id!r} has no reservation to release")
        for worker_id in worker_ids:
            self._reserved[worker_id] -= 1
        self._n_reserved_total -= len(worker_ids)
        if self.metrics is not None:
            self.metrics.set("scheduler.reserved", self._n_reserved_total)

    def n_reserved(self) -> int:
        """Total in-flight sample reservations across the cluster (O(1))."""
        return self._n_reserved_total

    def eligible_workers(
        self, config: Configuration, already_used: Sequence[str]
    ) -> List[VirtualMachine]:
        """Live workers that have never run this configuration."""
        used = set(already_used)
        return [
            vm
            for vm in self.cluster.workers
            if vm.vm_id not in used
            and vm.vm_id not in self._dead
            and vm.vm_id not in self._suspended
        ]

    # -- placement rankings ---------------------------------------------------
    def _region_usage(self, used: Sequence[str]) -> Dict[str, int]:
        """How many of the configuration's samples sit in each region."""
        usage: Dict[str, int] = {}
        for worker_id in used:
            region = self._region.get(worker_id)
            if region is not None:
                usage[region] = usage.get(region, 0) + 1
        return usage

    def _select_heterogeneity(
        self, eligible: List[VirtualMachine], used: Sequence[str], needed: int
    ) -> List[VirtualMachine]:
        """Throughput-normalised, diversity-aware selection of ``needed`` workers.

        Selection key, most significant first:

        1. expected queue wait ``(reserved + 1) / speed`` — a free fast
           worker beats a free slow one, and a deep queue on a fast worker
           can lose to an idle slow one (Gavel-style normalisation);
        2. how many of this configuration's samples its region already holds
           — spread across regions so noise aggregation sees every
           environment;
        3. historical load normalised by speed (long-run balance in
           delivered node-hours, not sample counts);
        4. a random tie-break for even spread;
        5. position in ``eligible`` (first-in-list wins exact ties).

        Workers are picked greedily one at a time, and each pick feeds back
        into the diversity term, so a multi-node request spreads across
        regions instead of scoring them all against the same pre-request
        usage.  Each pick is the minimum over the per-region sorted heads
        (see the module docstring for why that is the greedy pick).  The
        random tie-break is drawn once per eligible worker up front; on a
        homogeneous single-region fleet terms 1-3 order exactly like the
        legacy ``(reserved, load)`` pair, so placement is bit-for-bit the
        legacy placement.
        """
        region_usage = self._region_usage(used)
        tiebreak = self._rng.random(len(eligible)).tolist()
        queues: Dict[str, List[Tuple[float, float, float, int]]] = {}
        regions: List[str] = []  # first-seen order, never dict-key order
        for position, vm in enumerate(eligible):
            worker_id = vm.vm_id
            speed = self._speed[worker_id]
            region = self._region[worker_id]
            if region not in queues:
                queues[region] = []
                regions.append(region)
            queues[region].append(
                (
                    (self._reserved[worker_id] + 1) / speed,
                    self._load[worker_id] / speed,
                    tiebreak[position],
                    position,
                )
            )
        for region in regions:
            # Keys are unique (position), so the order is total; the head
            # sits at the end, where pop() is O(1).
            queues[region].sort(reverse=True)
        chosen: List[VirtualMachine] = []
        for _ in range(needed):
            region = min(
                (r for r in regions if queues[r]),
                key=lambda r: (queues[r][-1][0], region_usage.get(r, 0))
                + queues[r][-1][1:],
            )
            chosen.append(eligible[queues[region].pop()[-1]])
            region_usage[region] = region_usage.get(region, 0) + 1
        return chosen

    def _rank_fifo(self, eligible: List[VirtualMachine]) -> List[VirtualMachine]:
        """Naive round-robin: next worker in fixed order, blind to speed,
        queue depth and regions — the heterogeneity-oblivious baseline."""
        n = self.n_workers
        return sorted(
            eligible,
            key=lambda vm: (self._index[vm.vm_id] - self._rr_cursor) % n,
        )

    def assign(
        self,
        config: Configuration,
        target_budget: int,
        already_used: Sequence[str],
        excluded: Sequence[str] = (),
    ) -> List[VirtualMachine]:
        """Pick the nodes for the samples still needed to reach a budget.

        Returns an empty list when the configuration already has samples from
        ``target_budget`` distinct nodes.  Raises if the budget exceeds the
        cluster size.

        ``excluded`` workers are removed from the eligible set *without*
        counting towards the budget — used for nodes running a speculative
        duplicate of this configuration, whose eventual result occupies an
        existing slot rather than a new one.
        """
        if target_budget < 1:
            raise ValueError("target_budget must be >= 1")
        if target_budget > self.n_workers:
            raise ValueError(
                f"budget {target_budget} exceeds cluster size {self.n_workers}"
            )
        used = list(dict.fromkeys(already_used))  # preserve order, dedupe
        needed = target_budget - len(used)
        if needed <= 0:
            return []
        eligible = self.eligible_workers(config, list(used) + list(excluded))
        if len(eligible) < needed:
            raise RuntimeError(
                "not enough unused workers to honour the budget: "
                f"need {needed}, have {len(eligible)}"
            )
        if self.placement == "fifo":
            chosen = self._rank_fifo(eligible)[:needed]
        else:
            chosen = self._select_heterogeneity(eligible, used, needed)
        for vm in chosen:
            self._load[vm.vm_id] += 1
        if self.metrics is not None:
            self.metrics.inc("scheduler.assignments")
            for vm in chosen:
                self.metrics.inc(
                    "scheduler.placements", region=self._region[vm.vm_id]
                )
        if self.placement == "fifo" and chosen:
            self._rr_cursor = (self._index[chosen[-1].vm_id] + 1) % self.n_workers
        return chosen

    def record_external_load(self, worker_id: str, n_samples: int = 1) -> None:
        """Account for samples scheduled outside :meth:`assign` (baselines)."""
        if worker_id not in self._load:
            raise KeyError(f"unknown worker {worker_id!r}")
        self._load[worker_id] += n_samples

    def load_snapshot(self) -> Dict[str, int]:
        return dict(self._load)
