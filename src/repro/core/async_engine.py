"""Asynchronous batched cluster execution (discrete-event simulation).

The paper's premise is that samples taken on *different* worker nodes run in
parallel, yet a naive reproduction evaluates them one tuning iteration at a
time and charges wall-clock as ``n_iterations x eval_cost``.  This module
supplies the missing machinery:

* :class:`ClusterEventLoop` — a discrete-event timeline per worker VM.
  Submissions queue FIFO on their assigned worker; completions pop in
  finish-time order (ties broken by submission order, so runs are exactly
  reproducible).  Tuning wall-clock becomes the *makespan* of the busiest
  worker instead of the sum over iterations.
* :class:`AsyncExecutionEngine` — the request-level wrapper the tuning loop
  drives: a :class:`WorkRequest` (one configuration, one budget, one node
  set) is submitted as one work item per VM; the engine evaluates items
  lazily as their completion events fire, keeps every worker's local clock
  on its own timeline (idle gaps accrue burst credits, drift follows the
  worker's position in simulated time), and hands back fully completed
  requests.

``lockstep=True`` reproduces the legacy sequential semantics exactly — one
request in flight, the whole cluster advanced uniformly by the driver after
each completion — which is the batch-size-1 equivalence gate: same seeds
must yield bit-for-bit the same samples as the sequential loop.

Sample slots.  Each request fans out into one *slot* per VM, and the
engine's guarantee is that every slot lands exactly one sample — a measured
value or the paper's crash-penalty value — however its copies are
stretched, killed, silenced or corrupted.  A slot moves through::

    pending --submit--> running{copies, epoch} --> landed | exhausted

and each transition is driven by one event:

* *submit* (``AsyncExecutionEngine.submit``) gives the slot its **primary**
  copy on the request's VM (pending -> running);
* a *straggler crossing* — the copy's speed-normalised elapsed time passing
  the :class:`~repro.faults.StragglerDetector` threshold of an optional
  :class:`~repro.faults.SpeculationPolicy` (an optional
  :class:`~repro.faults.FaultModel` stretches durations at submission) —
  flags the primary once and adds a speculative **clone** on the fastest
  idle worker the configuration has never touched;
* a *completion* wins the slot for its copy: the other copies are cancelled
  and their workers released before anything is evaluated, and the value
  lands (running -> landed) — unless a
  :class:`~repro.core.validation.ResultValidator` **quarantines** it (an
  optional :class:`~repro.core.validation.CorruptionModel` injects such
  garbage), and the slot is re-measured like a lost copy;
* a *failure* (an optional :class:`~repro.faults.CrashModel` decides at
  submission that a copy dies, revealed when its event pops) or a *lease
  expiry* (``lease_timeout_hours`` arms a
  :class:`~repro.core.liveness.LivenessMonitor`; an optional
  :class:`~repro.faults.PartitionModel` delays reports) **loses** one copy,
  at the failure or suspicion instant.  A lost primary with clones still
  racing leaves the slot in the *lost-primary* state, and the last copy to
  resolve decides it.  Losing the last copy **retries** the slot on a fresh
  eligible worker after the :class:`RetryPolicy` backoff — a new primary
  under a new lease epoch, with fresh clone and straggler state — or, once
  the budget is spent or no worker is eligible, **exhausts** it: a
  ``crashed=True`` crash-penalty sample lands (running -> exhausted);
* the late report of a suspected copy pops as a fenced **zombie** and is
  rejected without evaluation: its slot already moved on.

Landing is one-way — a slot lands at most once — and a request returns once
all its slots have landed, so the driver and optimizer see exactly one
result per slot.  With the ``"none"`` models (or no models), no speculation,
no retry policy and no validator — or a validator on clean values — only
submit and completion fire: no RNG is consumed and no code path differs, so
trajectories are bit-for-bit the legacy ones.

Scale: the loop's bookkeeping is *indexed*, not scanned.  Per-worker clocks
live in a NumPy array behind :class:`~repro.core.worker_index.WorkerIndex`,
idle-worker lookup and placement ranking are O(log n) heap queries (a
release calendar plus sorted idle-sets per (region, SKU) group) instead of
linear scans over ``cluster.workers``, and per-event telemetry is slotted
into ring buffers and spill summaries
(:class:`~repro.core.telemetry_slots.LoopTelemetry`) so memory stays bounded
on million-sample runs.  The indexed structures reproduce the scans' exact
tie-break order (stable ordering by worker index, DET005); the pre-refactor
scan loop survives as :class:`~repro.core.loop_reference.ScanEventLoop` for
the equivalence property tests and the ``make bench-eventloop`` baseline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.cloud.cluster import Cluster
from repro.cloud.telemetry import apply_interference_signature
from repro.cloud.vm import VirtualMachine
from repro.configspace import Configuration
from repro.core.datastore import Sample
from repro.core.eventlog import config_digest
from repro.core.execution import ExecutionEngine
from repro.core.liveness import GrayStats, LivenessMonitor
from repro.core.telemetry_slots import LoopTelemetry
from repro.core.validation import (
    CorruptionContext,
    CorruptionModel,
    ResultValidator,
    build_corruption_model,
    build_validator,
)
from repro.core.worker_index import WorkerIndex
from repro.faults import (
    CrashContext,
    CrashModel,
    CrashStats,
    FaultContext,
    FaultModel,
    PartitionContext,
    PartitionModel,
    PartitionStats,
    SpeculationPolicy,
    SpeculationStats,
    StragglerDetector,
    build_crash_model,
    build_fault_model,
    build_partition_model,
)
from repro.faults.base import Perturbation, armed

if TYPE_CHECKING:  # avoid import cycles; annotations only
    from repro.core.eventlog import EventLog
    from repro.core.scheduler import MultiFidelityTaskScheduler
    from repro.obs.metrics import Counter, Histogram, MetricsRegistry
    from repro.obs.tracing import TraceRecorder

#: Configurations whose worker exclusions the engine keeps before evicting
#: the oldest ones with no open request (memory stays independent of run
#: length on million-sample runs).
CONFIG_EXCLUSION_CAPACITY = 65536

#: Recent completions kept in the event loop's telemetry ring.
TELEMETRY_WINDOW = 4096


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery policy for fail-stop work-item failures.

    A failed item is resubmitted to a different eligible worker after a
    backoff delay of ``backoff_hours * backoff_factor ** attempt`` (capped
    at ``max_backoff_hours``), up to ``max_retries`` resubmissions per
    sample slot.  ``max_retries=0`` means no second chances: every failure
    immediately surfaces as a crash-penalty sample.
    """

    max_retries: int = 2
    backoff_hours: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_hours: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_hours < 0:
            raise ValueError("backoff_hours must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff_hours < self.backoff_hours:
            raise ValueError("max_backoff_hours must be >= backoff_hours")

    def delay_hours(self, attempt: int) -> float:
        """Backoff before resubmission number ``attempt + 1`` (0-based)."""
        return min(
            self.backoff_hours * self.backoff_factor ** attempt,
            self.max_backoff_hours,
        )


@dataclass
class WorkRequest:
    """One unit of sampler work: a configuration to run on a set of nodes.

    ``vms`` may be empty (e.g. a promotion whose budget is already covered by
    reusable samples); such requests never enter the event loop and complete
    immediately at zero wall-clock cost.
    """

    config: Configuration
    budget: int
    vms: List[VirtualMachine]
    iteration: int
    kind: str = "new"  # "new" | "promotion"

    @property
    def worker_ids(self) -> List[str]:
        return [vm.vm_id for vm in self.vms]


@dataclass
class WorkItem:
    """One sample of one request on one worker, with its scheduled times.

    ``stretch`` is the fault model's duration multiplier (1.0 when nothing
    was injected); ``speculative`` marks a duplicate launched by straggler
    mitigation, and ``cancelled`` the losing side of a first-finish-wins
    pair (cancelled items are never evaluated).  ``failed`` marks an item a
    crash model killed: it pops at its failure instant (``finish_hours`` is
    rescheduled there) and is never evaluated; ``retried`` marks a recovery
    resubmission of a failed slot, and ``done`` an item whose completion
    event has already popped (such items can no longer be cancelled).

    Gray failures: ``delayed`` marks an item whose terminal report a
    partition model held back by ``delay_hours`` (``finish_hours`` is the
    *observed* report time; ``partition_kind`` names the hazard);
    ``silent_at`` is the last simulated instant a heartbeat was heard
    (equal to ``finish_hours`` for responsive items).  ``epoch`` is the
    item's lease epoch when a liveness monitor is armed, and ``fenced``
    marks an item whose lease expired: the slot was re-submitted under a
    new epoch, and this item's eventual report is a *zombie* — rejected at
    its pop, never evaluated.
    """

    request: WorkRequest
    vm: VirtualMachine
    start_hours: float
    finish_hours: float
    sequence: int
    sample: Optional[Sample] = None
    stretch: float = 1.0
    speculative: bool = False
    cancelled: bool = False
    failed: bool = False
    failure_kind: str = ""
    retried: bool = False
    done: bool = False
    delayed: bool = False
    delay_hours: float = 0.0
    silent_at: float = 0.0
    partition_kind: str = ""
    epoch: int = 0
    fenced: bool = False


class ClusterEventLoop:
    """Discrete-event timeline of a worker cluster.

    Every worker owns an independent ``free_at`` clock; a submitted item
    starts at ``max(worker free_at, now)`` — it cannot start before the
    orchestrator decided to submit it — and completion events pop in
    ``(finish time, submission order)`` order, which makes the simulation
    deterministic for a fixed submission sequence.

    An optional fault model stretches durations at submission time; with no
    model (or the ``"none"`` model) the arithmetic is bit-for-bit the legacy
    ``start + duration``.  Items can be :meth:`cancel`-led (speculative
    first-finish-wins losers): a cancelled item never pops as a completion,
    and its worker is released back to ``max(start, now)`` when it was the
    last entry on that worker's queue.

    Worker state is held in a :class:`~repro.core.worker_index.WorkerIndex`
    (NumPy clock array + release calendar + per-(region, SKU) idle heaps),
    so idle/placement queries are O(log n) in the fleet size while
    reproducing the legacy linear scans' tie-break order exactly.  Event
    telemetry is slotted (:class:`~repro.core.telemetry_slots.LoopTelemetry`)
    so introspection stays bounded on million-sample runs.
    """

    def __init__(
        self,
        cluster: Cluster,
        lockstep: bool = False,
        fault_model: "FaultModel | str | None" = None,
        crash_model: "CrashModel | str | None" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        partition_model: "PartitionModel | str | None" = None,
        liveness: Optional[LivenessMonitor] = None,
    ) -> None:
        self.cluster = cluster
        self.lockstep = lockstep
        self.fault_model = build_fault_model(fault_model)
        self.crash_model = build_crash_model(crash_model)
        #: Optional gray-failure silence injection (report delays) and the
        #: lease monitor that turns persistent silence into suspicions.
        #: Both follow the ``"none"`` discipline: an inert partition model
        #: draws no RNG and delays nothing, and without delays an armed
        #: monitor schedules no suspicions — bit-for-bit the plain loop.
        self.partition_model = build_partition_model(partition_model)
        self.liveness = liveness
        self.partition_stats = PartitionStats()
        #: Optional observability registry.  Purely additive: every use is
        #: guarded by ``is not None`` and only increments instruments, so an
        #: attached registry is trajectory-inert (the ``fault_model="none"``
        #: discipline, guarded by tests/obs/test_obs_equivalence.py).
        self._metrics = metrics
        if metrics is not None:
            # Pre-resolved instrument handles: the per-event cost of an
            # attached registry is then a float add / ring append, with no
            # key-string construction or registry lookup on the hot path.
            # Handles are plain references into the registry, so they pickle
            # as shared objects inside the same checkpoint graph.
            self._m_submitted: "Counter" = metrics.counter("loop.items.submitted")
            self._m_completed: "Counter" = metrics.counter("loop.items.completed")
            self._m_failed: "Counter" = metrics.counter("loop.items.failed")
            self._m_cancelled: "Counter" = metrics.counter("loop.items.cancelled")
            self._m_queue_wait: "Histogram" = metrics.histogram(
                "loop.queue_wait_hours"
            )
            self._m_duration: "Histogram" = metrics.histogram("loop.duration_hours")
            #: Per-(region, SKU) busy-hours counters, filled lazily as the
            #: fleet's groups first deliver work.
            self._m_busy: Dict[Tuple[str, str], "Counter"] = {}
        #: Indexed worker state: array-backed clocks, idle heaps, calendar.
        self._workers = WorkerIndex(cluster)
        self._events: List[Tuple[float, int, WorkItem]] = []
        self._sequence = 0
        self._n_cancelled = 0
        #: Fail-stop node deaths: worker id -> simulated death time.  Dead
        #: workers reject submissions and never report as idle.
        self._dead: Dict[str, float] = {}
        #: Simulated time of the orchestrator = finish time of the last
        #: completion processed (monotone non-decreasing).
        self.now = 0.0
        #: Largest finish time processed so far — the run's wall-clock.
        self.makespan = 0.0
        #: Bounded per-event counters + recent-completion ring.
        self.telemetry = LoopTelemetry(TELEMETRY_WINDOW)

    @property
    def worker_index(self) -> WorkerIndex:
        """The loop's indexed worker state (shared with the engine)."""
        return self._workers

    # -- submit ---------------------------------------------------------------
    def submit(
        self,
        request: WorkRequest,
        vm: VirtualMachine,
        duration_hours: float,
        speculative: bool = False,
        not_before: float = 0.0,
    ) -> WorkItem:
        """Queue one run on a worker; returns its scheduled work item.

        ``not_before`` delays the start below which the run may not begin
        (retry backoff): the item starts at the latest of the worker's queue
        drain, the orchestrator clock and ``not_before``.  When a crash
        model is armed it is consulted here, after the duration model: a
        failed item's completion event is rescheduled to its failure
        instant, its worker released there (transient failures) or drained
        permanently (node death).
        """
        if duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        if not self._workers.has_worker(vm.vm_id):
            raise KeyError(f"worker {vm.vm_id!r} is not part of this cluster")
        worker_idx = self._workers.index_of(vm.vm_id)
        if self.lockstep:
            # Legacy sequential semantics: every request starts at the global
            # clock; there is never more than one request in flight.
            start = self.now
        else:
            start = max(self._workers.free_at_of(worker_idx), self.now, not_before)
        stretch = 1.0
        if armed(self.fault_model):
            context = FaultContext(
                worker_id=vm.vm_id,
                start_hours=start,
                duration_hours=duration_hours,
                concurrent_items=self.n_in_flight,
                n_workers=self._workers.n_workers,
                speculative=speculative,
            )
            stretch = max(float(self.fault_model.stretch(context)), 0.05)
            finish = start + duration_hours * stretch
        else:
            finish = start + duration_hours
        item = WorkItem(
            request,
            vm,
            start,
            finish,
            self._sequence,
            stretch=stretch,
            speculative=speculative,
        )
        dead_on_arrival = vm.vm_id in self._dead
        if dead_on_arrival:
            # The worker's death was decided by an earlier submission but is
            # only *observed* when that failure event pops; work routed here
            # in the window between the two errors out instantly at its
            # start (``start >= death``: the worker's queue drains at the
            # death instant) and takes the normal recovery path.
            item.failed = True
            item.failure_kind = "node-death"
            finish = start
            item.finish_hours = start
        elif armed(self.crash_model):
            decision = self.crash_model.decide(
                CrashContext(
                    worker_id=vm.vm_id,
                    start_hours=start,
                    duration_hours=finish - start,
                    speculative=speculative,
                )
            )
            if decision.failed:
                # The run dies at the sampled instant (clamped into its
                # window): its completion event fires there instead, so the
                # orchestrator observes the failure when a real monitor
                # would.  Failure is decided at submission but *revealed* at
                # the pop — nothing downstream may peek at it earlier.
                fail_at = min(max(decision.fail_at_hours, start), finish)
                item.failed = True
                item.failure_kind = decision.kind
                finish = fail_at
                item.finish_hours = fail_at
                if decision.worker_dead:
                    self._dead[vm.vm_id] = fail_at
                    self._workers.kill(worker_idx)
        item.silent_at = finish
        if armed(self.partition_model) and not dead_on_arrival:
            # Gray failures delay the item's *terminal report* — completion
            # and failure alike — and may silence the worker earlier.  The
            # orchestrator's view is pessimistic: the worker's queue is held
            # until the delayed report (work is never routed to a node that
            # cannot be heard from), and the report's pop time moves to the
            # delivery instant.  Dead-on-arrival submissions skip the draw
            # (streams are per-worker, so positions stay deterministic).
            partition = self.partition_model.decide(
                PartitionContext(
                    worker_id=vm.vm_id,
                    start_hours=start,
                    duration_hours=finish - start,
                    speculative=speculative,
                )
            )
            if partition.delayed:
                item.delayed = True
                item.delay_hours = partition.delay_hours
                item.partition_kind = partition.kind
                item.silent_at = start + partition.silent_fraction * (finish - start)
                finish += partition.delay_hours
                item.finish_hours = finish
                self.partition_stats.record(partition)
        self._workers.set_free_at(worker_idx, finish)
        heapq.heappush(self._events, (finish, self._sequence, item))
        self._sequence += 1
        if self.liveness is not None:
            self.liveness.grant(item)
        self.telemetry.record_submit()
        if self._metrics is not None:
            self._m_submitted.inc()
            # Queue wait: how long the item sat behind the worker's queue
            # beyond the orchestrator's decision instant (backoff excluded).
            self._m_queue_wait.observe(start - max(self.now, not_before))
        return item

    # -- introspection --------------------------------------------------------
    @property
    def n_in_flight(self) -> int:
        return len(self._events) - self._n_cancelled

    def worker_free_at(self, vm_id: str) -> float:
        return self._workers.free_at_of(self._workers.index_of(vm_id))

    def idle_workers(self) -> List[VirtualMachine]:
        """Live workers whose queue has drained at the current simulated time.

        One vectorized mask query over the worker index; the result is in
        cluster order, exactly like the legacy linear scan.
        """
        workers = self._workers
        return [workers.vm(int(idx)) for idx in workers.idle_indices(self.now)]

    def first_idle_worker(self) -> Optional[VirtualMachine]:
        """First idle live worker in cluster order (O(log n) heap peek)."""
        idx = self._workers.first_idle(self.now)
        return None if idx is None else self._workers.vm(idx)

    def fastest_idle_worker(
        self, excluded_ids: Iterable[str] = ()
    ) -> Optional[VirtualMachine]:
        """Fastest idle live worker not in ``excluded_ids``; ties break on
        cluster index — the speculative-placement ranking, via the
        per-(region, SKU) idle heaps instead of a fleet scan."""
        idx = self._workers.fastest_idle(self.now, excluded_ids)
        return None if idx is None else self._workers.vm(idx)

    def best_retry_worker(
        self, excluded_ids: Iterable[str] = ()
    ) -> Optional[VirtualMachine]:
        """Live worker minimising ``(earliest start, -speed, index)`` — the
        retry-placement ranking, vectorized over the clock array.  May pick
        a busy worker: a lost sample must be recovered even on a saturated
        cluster."""
        idx = self._workers.best_queued(self.now, excluded_ids)
        return None if idx is None else self._workers.vm(idx)

    def is_dead(self, vm_id: str) -> bool:
        return vm_id in self._dead

    @property
    def n_dead(self) -> int:
        return len(self._dead)

    def peek_finish(self) -> Optional[float]:
        """Finish time of the earliest pending completion (None when idle)."""
        self._purge_cancelled_heads()
        if not self._events:
            return None
        return self._events[0][0]

    # -- cancellation ----------------------------------------------------------
    def cancel(self, item: WorkItem) -> None:
        """Cancel a pending item (it will never pop as a completion).

        If the item was the last entry on its worker's queue, the worker is
        released back to ``max(item start, now)`` — the moment the cancel
        was decided for a running item, or the item's scheduled start for
        one still queued.  Items queued *behind* the cancelled one keep
        their scheduled times (conservative, and deterministic).

        Completed items — evaluated *or merely popped* (a failed item is
        popped without ever being evaluated) — cannot be cancelled: their
        completion event already fired, and rewinding the worker's clock for
        one would corrupt the in-flight accounting of everything scheduled
        after it.
        """
        if item.sample is not None or item.done:
            raise RuntimeError("cannot cancel an already-completed item")
        if item.cancelled:
            return
        item.cancelled = True
        self._n_cancelled += 1
        worker_idx = self._workers.index_of(item.vm.vm_id)
        if self._workers.free_at_of(worker_idx) == item.finish_hours:
            self._workers.set_free_at(
                worker_idx, max(item.start_hours, min(self.now, item.finish_hours))
            )
        if self.liveness is not None:
            self.liveness.settle(item.sequence)
        self.telemetry.record_cancel()
        if self._metrics is not None:
            self._m_cancelled.inc()

    def _purge_cancelled_heads(self) -> None:
        """Drop cancelled items sitting at the top of the event heap."""
        while self._events and self._events[0][2].cancelled:
            heapq.heappop(self._events)
            self._n_cancelled -= 1

    def advance_now(self, hours: float) -> None:
        """Advance the orchestrator clock without a completion.

        Used for *detection events*: straggler mitigation acts at the
        simulated instant an in-flight run crosses the detection threshold,
        which generally falls between completions.  Monotone (never moves
        backwards) and never touches the makespan — only real completions
        define wall-clock.
        """
        if hours > self.now:
            self.now = hours

    # -- liveness --------------------------------------------------------------
    def poll_suspicion(self) -> Optional[WorkItem]:
        """Fire the next lease expiry preceding the next completion, if any.

        Like straggler crossings, a lease expiry is a *detection event*: it
        happens at the simulated instant the silence outlives the lease,
        which generally falls between completions.  The clock advances to
        the expiry, the item's epoch is fenced (its eventual report pops as
        a zombie and is rejected), and the item is returned for the engine
        to re-submit the slot under a new epoch.  One suspicion per call,
        in deterministic ``(deadline, epoch)`` order; ``None`` when no
        lease expires before the next completion.
        """
        if self.liveness is None:
            return None
        expiry = self.liveness.next_suspicion_before(self.peek_finish())
        if expiry is None:
            return None
        deadline, item = expiry
        self.advance_now(deadline)
        item.fenced = True
        return item

    # -- completions ----------------------------------------------------------
    def next_completion(self) -> WorkItem:
        """Pop the earliest pending live completion and advance ``now`` to it.

        Cancelled items are skipped silently; they advance neither ``now``
        nor the makespan (their worker was already released by
        :meth:`cancel`).  A *failed* item pops at its failure instant and
        advances only ``now`` — like a detection event, a failure is an
        observation, not delivered work; only real completions (including
        the eventual retry's) define the run's wall-clock.
        """
        self._purge_cancelled_heads()
        if not self._events:
            raise RuntimeError("no work in flight")
        finish, _, item = heapq.heappop(self._events)
        self.now = max(self.now, finish)
        if not item.failed and not item.fenced:
            # A fenced item's report is a stale observation, not delivered
            # work: like a failure it advances only ``now`` — the slot's
            # wall-clock is defined by its re-submission's real completion.
            self.makespan = max(self.makespan, finish)
        item.done = True
        if self.liveness is not None:
            self.liveness.settle(item.sequence)
        if item.failed or item.fenced:
            self.telemetry.record_fail()
        else:
            self.telemetry.record_complete(finish, finish - item.start_hours)
        if self._metrics is not None:
            vm = item.vm
            if item.fenced:
                self._metrics.inc("loop.items.zombie")
            elif item.failed:
                self._m_failed.inc()
            else:
                self._m_completed.inc()
                self._m_duration.observe(finish - item.start_hours)
            # Per-(region, SKU) delivered busy hours: the utilization split
            # the run report renders (failed items were busy until death).
            group = (vm.region.name, vm.sku.name)
            busy = self._m_busy.get(group)
            if busy is None:
                busy = self._m_busy[group] = self._metrics.counter(
                    "loop.busy_hours", region=group[0], sku=group[1]
                )
            busy.inc(finish - item.start_hours)
        return item


@dataclass(eq=False)
class _OpenRequest:
    """A submitted request and the samples its slots have landed so far."""

    request: WorkRequest
    samples: List[Sample] = field(default_factory=list)


@dataclass(eq=False)
class _Exclusion:
    """Workers a configuration has touched, and its open-request count."""

    workers: Set[str] = field(default_factory=set)
    open_requests: int = 0


@dataclass(eq=False)
class _Slot:
    """One sample slot of an open request, from submission to its result.

    ``primary`` is the slot's live regular copy (its first run or latest
    retry) and ``clones`` its live speculative duplicates, in launch order.
    ``primary is None`` while clones still race is the lost-primary state:
    the primary failed or was suspected, and the last copy to resolve
    decides the slot.  ``n_clones`` and ``flagged`` belong to the current
    primary's copy generation and reset on a retry; ``attempts`` counts the
    slot's retries and survives a clone win into quarantine re-measures.
    """

    owner: _OpenRequest
    primary: Optional[WorkItem]
    clones: List[WorkItem] = field(default_factory=list)
    n_clones: int = 0
    flagged: bool = False
    attempts: int = 0
    landed: bool = False

    def copy(self, sequence: int) -> WorkItem:
        """The live copy with submission sequence ``sequence``."""
        if self.primary is not None and self.primary.sequence == sequence:
            return self.primary
        return next(clone for clone in self.clones if clone.sequence == sequence)


class AsyncExecutionEngine:
    """Keeps every worker VM busy with its own timeline of sample runs.

    The sampler/tuning loop submits :class:`WorkRequest`s; the engine fans
    each out into one sample slot per VM (see the module docstring for the
    slot lifecycle), runs the underlying
    :class:`~repro.core.execution.ExecutionEngine` lazily as completion
    events fire (in completion order, so the measurement RNG follows the
    cluster's simulated schedule), and returns requests once every slot has
    landed.

    Per-slot state lives in two maps: ``_slots`` (live item sequence →
    :class:`_Slot`, in submission order) and ``_exclusions`` (configuration
    → workers it touched, bounded by :data:`CONFIG_EXCLUSION_CAPACITY`).
    Speculative duplicates and retries hold engine-owned scheduler
    reservations; :meth:`auxiliary_workers_for` lets the sampler keep
    regular placement off the workers running them.
    """

    def __init__(
        self,
        execution: ExecutionEngine,
        cluster: Cluster,
        lockstep: bool = False,
        fault_model: "FaultModel | str | None" = None,
        speculation: "SpeculationPolicy | bool | None" = None,
        scheduler: Optional[MultiFidelityTaskScheduler] = None,
        used_workers_fn: Optional[Callable[[Configuration], Sequence[str]]] = None,
        crash_model: "CrashModel | str | None" = None,
        retry_policy: Optional[RetryPolicy] = None,
        event_log: Optional[EventLog] = None,
        metrics: "Optional[MetricsRegistry]" = None,
        tracer: "Optional[TraceRecorder]" = None,
        partition_model: "PartitionModel | str | None" = None,
        lease_timeout_hours: Optional[float] = None,
        validation: "ResultValidator | bool | None" = None,
        corruption_model: "CorruptionModel | str | None" = None,
    ) -> None:
        self.execution = execution
        self.cluster = cluster
        self.lockstep = lockstep
        fault_model = build_fault_model(fault_model)
        crash_model = build_crash_model(crash_model)
        partition_model = build_partition_model(partition_model)
        corruption_model = build_corruption_model(corruption_model)
        if speculation is True:
            speculation = SpeculationPolicy()
        elif speculation is False:
            speculation = None
        if lockstep:
            families: Tuple[Optional[Perturbation[Any, Any]], ...] = (
                fault_model,
                crash_model,
                partition_model,
                corruption_model,
            )
            for model in families:
                if armed(model):
                    raise ValueError(
                        f"{model.family} injection is not supported in lockstep "
                        "mode (it is the bit-for-bit equivalence gate)"
                    )
            if speculation is not None:
                raise ValueError("speculation needs concurrent workers; not lockstep")
        if lease_timeout_hours is not None and lease_timeout_hours <= 0:
            raise ValueError("lease_timeout_hours must be positive")
        liveness = (
            LivenessMonitor(lease_timeout_hours)
            if lease_timeout_hours is not None
            else None
        )
        self.loop = ClusterEventLoop(
            cluster,
            lockstep=lockstep,
            fault_model=fault_model,
            crash_model=crash_model,
            metrics=metrics,
            partition_model=partition_model,
            liveness=liveness,
        )
        #: Gray-failure attachments: the result-quarantine gate between the
        #: engine and the optimizer, the seeded corruption injector that
        #: exercises it, and the run's suspicion/fencing/quarantine tallies.
        #: A validator on a clean run rejects nothing (inert); the ``"none"``
        #: corruption model draws no RNG.
        self._validator = build_validator(validation)
        self._corruption_model = corruption_model
        self.gray_stats = GrayStats()
        #: Optional observability instruments (``is not None``-guarded and
        #: write-only, so attaching them is trajectory-inert).
        self._metrics = metrics
        self._tracer = tracer
        if metrics is not None:
            # Pre-resolved handles for the once-per-item sites (submit,
            # complete, land) — same hot-path discipline as the event
            # loop's; rarer sites (retries, cancels, speculation) keep the
            # name-addressed convenience calls.
            self._m_eng_submitted: "Counter" = metrics.counter(
                "engine.items.submitted"
            )
            self._m_eng_completed: "Counter" = metrics.counter(
                "engine.items.completed"
            )
            self._m_eng_landed: "Counter" = metrics.counter("engine.samples.landed")
        self.speculation = speculation
        self.retry_policy = retry_policy
        self.stats = SpeculationStats()
        self.crash_stats = CrashStats()
        self._detector = (
            StragglerDetector(speculation) if speculation is not None else None
        )
        self._scheduler = scheduler
        self._used_workers_fn = used_workers_fn
        self._event_log = event_log
        # Simulated time 0 corresponds to each worker's clock at engine
        # construction; used to keep VM-local clocks on their own timelines.
        # Array-backed (cluster order) so finalize's fleet-wide clock
        # synchronisation is a vectorized op instead of a Python loop.
        self._clock_origin: np.ndarray = np.array(
            [vm.clock_hours for vm in cluster.workers], dtype=np.float64
        )
        #: Live item sequence -> its slot, in submission order.
        self._slots: Dict[int, _Slot] = {}
        #: Per-config worker exclusions (speculation/retry placement must
        #: not reuse a node the configuration already touched), oldest
        #: first; bounded by evicting quiescent configs.
        self._exclusions: Dict[Configuration, _Exclusion] = {}
        self.n_evicted_exclusions = 0
        self._dead_seen: Set[str] = set()  # node deaths already observed
        self.n_submitted_requests = 0
        self.n_completed_requests = 0

    # -- submit ---------------------------------------------------------------
    @property
    def duration_hours(self) -> float:
        """Simulated duration of one sample run on a reference-speed worker."""
        return self.execution.wall_clock_hours_per_evaluation

    def duration_for(self, vm: VirtualMachine) -> float:
        """Per-worker sample duration: the SKU's baseline-performance factor
        stretches slow workers' runs along their own timelines."""
        return self.execution.duration_hours_for(vm)

    def _log(self, kind: str, **fields: Any) -> None:
        """Mirror an engine action into the write-ahead event log, if any."""
        if self._event_log is not None:
            config = fields.pop("config", None)
            if config is not None:
                fields["config"] = config_digest(config)
            self._event_log.append(kind, **fields)

    def submit(self, request: WorkRequest) -> List[WorkItem]:
        """Fan a request out into one sample slot (and work item) per VM."""
        if not request.vms:
            raise ValueError(
                "request schedules no samples; complete it inline instead of "
                "submitting it to the event loop"
            )
        owner = _OpenRequest(request)
        exclusion = self._exclusions.setdefault(request.config, _Exclusion())
        exclusion.open_requests += 1
        self._evict_exclusions()
        items = []
        submitted_at = self.loop.now
        for vm in request.vms:
            item = self.loop.submit(request, vm, self.duration_for(vm))
            self._slots[item.sequence] = _Slot(owner, item)
            exclusion.workers.add(vm.vm_id)
            items.append(item)
            self._log(
                "submit",
                item=item.sequence,
                config=request.config,
                worker=vm.vm_id,
                t=item.start_hours,
                iteration=request.iteration,
                budget=request.budget,
                submitted=submitted_at,
                region=vm.region.name,
                sku=vm.sku.name,
            )
            if self._metrics is not None:
                self._m_eng_submitted.inc()
            self._trace_begin(item, "run", submitted_at)
        self.n_submitted_requests += 1
        return items

    def _trace_begin(self, item: WorkItem, kind: str, submitted: float) -> None:
        """Open the item's lifecycle span (no-op without a tracer)."""
        if self._tracer is None:
            return
        self._tracer.begin(
            item.sequence,
            item.vm.vm_id,
            kind,
            submitted,
            item.start_hours,
            config=config_digest(item.request.config)
            if item.request.config is not None
            else None,
        )

    def _evict_exclusions(self) -> None:
        """Bound the per-config exclusion map (oldest quiescent configs go).

        Only configs with no open requests are evictable — an open request's
        exclusions must stay exact.  A re-encountered evicted config falls
        back to ``used_workers_fn`` (the datastore's landed workers), which
        covers every worker that produced a sample; only cancelled or
        mid-chain-failed workers of long-closed requests are forgotten.
        """
        while len(self._exclusions) > CONFIG_EXCLUSION_CAPACITY:
            victim = next(
                (c for c, e in self._exclusions.items() if e.open_requests == 0), None
            )
            if victim is None:
                return  # every tracked config still has an open request
            del self._exclusions[victim]
            self.n_evicted_exclusions += 1

    def _excluded_workers(self, config: Configuration) -> Set[str]:
        """Workers ``config`` has touched: tracked ones plus landed ones."""
        exclusion = self._exclusions.get(config)
        excluded: Set[str] = set(exclusion.workers) if exclusion is not None else set()
        if self._used_workers_fn is not None:
            excluded.update(self._used_workers_fn(config))
        return excluded

    @property
    def n_in_flight_items(self) -> int:
        return self.loop.n_in_flight

    @property
    def n_in_flight_requests(self) -> int:
        return self.n_submitted_requests - self.n_completed_requests

    @property
    def now(self) -> float:
        return self.loop.now

    @property
    def makespan_hours(self) -> float:
        return self.loop.makespan

    # -- completions ----------------------------------------------------------
    def _evaluate(self, item: WorkItem) -> Sample:
        vm = item.vm
        if not self.lockstep:
            # Bring the worker's local clock to the start of this run: idle
            # gaps (and the per-run setup/teardown overhead) accrue burst
            # credits and move temporal drift along the worker's own
            # timeline.  ``measure`` itself advances the clock through the
            # workload, and lockstep mode leaves all advancement to the
            # driver's uniform ``cluster.advance`` instead.
            worker_idx = self.loop.worker_index.index_of(vm.vm_id)
            target = float(self._clock_origin[worker_idx]) + item.start_hours
            gap = target - vm.clock_hours
            if gap > 0:
                vm.advance(gap)
        sample = self.execution.evaluate_on(
            item.request.config, vm, item.request.iteration, item.request.budget
        )
        if item.stretch > 1.0:
            # The injected slowdown leaves a guest-visible footprint (steal
            # time, queueing) so the noise adjuster sees a signal correlated
            # with the fault, exactly like genuine interference would.
            if sample.telemetry is not None:
                sample.telemetry = apply_interference_signature(
                    sample.telemetry, item.stretch
                )
            sample.details["fault_stretch"] = item.stretch
        if item.speculative:
            sample.details["speculative"] = True
        if armed(self._corruption_model):
            # Gray-failure garbage injection: the measurement happened (its
            # RNG was consumed above, keeping the measurement streams
            # aligned with clean runs), but the *reported* value is trash.
            # The true value rides along in the details for auditability.
            corruption = self._corruption_model.decide(
                CorruptionContext(
                    worker_id=vm.vm_id,
                    start_hours=item.start_hours,
                    duration_hours=item.finish_hours - item.start_hours,
                    speculative=item.speculative,
                )
            )
            if corruption.corrupted:
                sample.details["corrupt_result"] = corruption.kind
                sample.details["true_value"] = sample.value
                sample.value = corruption.apply(sample.value)
        item.sample = sample
        return sample

    def next_completed_request(self) -> Tuple[WorkRequest, List[Sample]]:
        """Process completions until some request has all its samples.

        Samples are evaluated in completion order (interleaved across
        requests), which is the order the orchestrator would observe results
        arriving from the cluster.
        """
        while True:
            result = self._process_next_item()
            if result is not None:
                return result

    def _process_next_item(self) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """Fire one event and apply its slot transition; return the request
        it completed, if any.

        Detection events come first: straggler crossings launch clones, and
        a lease expiry before the next completion suspects its copy.
        Otherwise the next report pops — a fenced zombie (rejected), a
        failure (copy lost) or a completion (first finish wins).
        """
        self._speculate_at_crossings()
        suspected = self.loop.poll_suspicion()
        result: Optional[Tuple[WorkRequest, List[Sample]]] = None
        if suspected is not None:
            result = self._handle_suspicion(suspected)
        else:
            item = self.loop.next_completion()
            if item.fenced:
                self._handle_zombie(item)
            elif item.failed:
                result = self._handle_failure(item)
            else:
                result = self._handle_completion(item)
        self._maybe_speculate()
        return result

    def _handle_completion(
        self, item: WorkItem
    ) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """First finish wins: the slot's other copies are cancelled before
        any evaluation, so exactly one sample per slot is ever measured for
        landing; a value that fails validation is quarantined instead."""
        slot = self._win(item)
        sample = self._evaluate(item)
        if self._validator is not None:
            reason = self._validator.check(sample.value)
            if reason is not None:
                return self._quarantine(item, slot, sample, reason)
        if self._detector is not None:
            self._detector.observe(
                self.execution.work_units(item.vm, item.finish_hours - item.start_hours)
            )
            self.stats.detection_threshold_hours = self._detector.threshold()
        self._log(
            "complete",
            item=item.sequence,
            config=item.request.config,
            worker=item.vm.vm_id,
            t=item.finish_hours,
            value=sample.value,
            crashed=sample.crashed,
        )
        if self._metrics is not None:
            self._m_eng_completed.inc()
            if item.speculative:
                self._metrics.inc("engine.speculation.wins")
        if self._tracer is not None:
            self._tracer.end(
                item.sequence, item.finish_hours, "complete", value=sample.value
            )
        return self._land(slot, sample)

    def _win(self, item: WorkItem) -> _Slot:
        """Settle a slot on its first finished copy: cancel the others (a
        clone win cancels the straggling primary too) and release the
        winner's engine-owned reservation."""
        slot = self._slots.pop(item.sequence)
        for clone in slot.clones:
            if clone is not item:
                self._cancel_item(clone)
        if item.speculative:
            if slot.primary is not None:
                self._cancel_item(slot.primary)
            self.stats.n_duplicate_wins += 1
        self._release(item)
        slot.primary, slot.clones = None, []
        return slot

    def _land(
        self, slot: _Slot, sample: Sample
    ) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """Land the slot's one result (real or crash-penalty); returns the
        completed pair when it was the request's last open slot."""
        if slot.landed:
            raise RuntimeError("a sample slot landed twice")
        slot.landed = True
        if self._metrics is not None:
            self._m_eng_landed.inc()
            if sample.crashed:
                self._metrics.inc("engine.samples.crashed")
        owner = slot.owner
        owner.samples.append(sample)
        if len(owner.samples) < len(owner.request.vms):
            return None
        self._exclusions[owner.request.config].open_requests -= 1
        self.n_completed_requests += 1
        return owner.request, owner.samples

    def _release(self, item: WorkItem) -> None:
        """Return an engine-owned reservation: clones and retries hold one,
        first runs belong to the sampler."""
        if self._scheduler is not None and (item.speculative or item.retried):
            self._scheduler.release([item.vm.vm_id])

    # -- lost copies: crashes and lease expiries ------------------------------
    def _handle_failure(
        self, item: WorkItem
    ) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """React to a fail-stop failure event (the copy is lost at its
        failure instant)."""
        worker_id = item.vm.vm_id
        self.crash_stats.n_failures += 1
        if item.failure_kind == "transient":
            self.crash_stats.n_transient_failures += 1
        elif item.failure_kind == "node-death":
            self.crash_stats.n_node_death_failures += 1
        if self.loop.is_dead(worker_id) and worker_id not in self._dead_seen:
            # The failure *revealed* the node death: drain the worker from
            # the placement fleet.  Its reservations stay accounted — they
            # are released through the normal completion/failure paths — so
            # the study degrades gracefully onto the survivors.
            self._dead_seen.add(worker_id)
            self.crash_stats.n_workers_dead += 1
            if self._scheduler is not None:
                self._scheduler.mark_dead(worker_id)
        self._log(
            "fail",
            item=item.sequence,
            config=item.request.config,
            worker=worker_id,
            t=item.finish_hours,
            fault=item.failure_kind,
            speculative=item.speculative,
            worker_dead=self.loop.is_dead(worker_id),
        )
        if self._metrics is not None:
            self._metrics.inc("engine.items.failed")
            self._metrics.inc("engine.failures", fault=item.failure_kind)
        if self._tracer is not None:
            self._tracer.end(
                item.sequence, item.finish_hours, "fail", fault=item.failure_kind
            )
        if item.speculative:
            self.crash_stats.n_speculative_failures += 1
        return self._lose_copy(item, item.finish_hours)

    def _handle_suspicion(
        self, item: WorkItem
    ) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """React to a lease expiry: fence the epoch, lose the copy.

        The worker is only *suspected*, not dead: its queue stays occupied
        until the silent item's report finally arrives, and that report pops
        as a fenced zombie.  The copy is lost at the suspicion instant
        (``loop.poll_suspicion`` already advanced the clock there) — its
        ``finish_hours`` is the *future* zombie report, which a retry's
        backoff must not wait for.
        """
        worker_id = item.vm.vm_id
        suspected_at = self.loop.now
        self.gray_stats.n_suspected += 1
        self._log(
            "suspect",
            item=item.sequence,
            config=item.request.config,
            worker=worker_id,
            t=suspected_at,
            epoch=item.epoch,
            silent_since=item.silent_at,
            partition=item.partition_kind,
            speculative=item.speculative,
        )
        self._log(
            "lease_fence",
            item=item.sequence,
            worker=worker_id,
            t=suspected_at,
            epoch=item.epoch,
        )
        if self._metrics is not None:
            self._metrics.inc("engine.items.suspected")
            self._metrics.inc("engine.leases.fenced")
        if self._tracer is not None:
            self._tracer.end(item.sequence, suspected_at, "suspect")
        if self._scheduler is not None:
            # Placement stops offering the silent worker new work until its
            # stale report drains (the zombie pop restores it).
            self._scheduler.suspend(worker_id)
        return self._lose_copy(item, suspected_at)

    def _lose_copy(
        self, item: WorkItem, decided_at: float
    ) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """Drop a failed or suspected copy from its slot.

        While other copies still race the loss costs only this copy; a lost
        primary leaves the slot in the lost-primary state until its clones
        resolve.  Losing the slot's last copy retries or exhausts it.
        """
        slot = self._slots.pop(item.sequence)
        self._release(item)
        if item.speculative:
            slot.clones = [clone for clone in slot.clones if clone is not item]
        else:
            slot.primary = None
            slot.flagged = False
        if slot.primary is not None or slot.clones:
            return None
        return self._retry_or_exhaust(slot, item, decided_at)

    def _handle_zombie(self, item: WorkItem) -> None:
        """Reject the report of a fenced (stale-epoch) item at its pop.

        The copy was dropped from its slot when its lease expired; this
        report — a completed result carried back by a resurrected worker,
        or a stale failure notice — is deterministically dropped without
        ever being evaluated, so no measurement RNG is consumed and at most
        one result per slot can reach the optimizer.
        """
        self.gray_stats.n_zombies_rejected += 1
        if self._scheduler is not None:
            # The silent worker finally reported back: it is reachable
            # again and rejoins the placement pool.
            self._scheduler.restore(item.vm.vm_id)
        self._log(
            "zombie_rejected",
            item=item.sequence,
            config=item.request.config,
            worker=item.vm.vm_id,
            t=item.finish_hours,
            epoch=item.epoch,
            failed=item.failed,
        )
        if self._metrics is not None:
            self._metrics.inc("engine.items.zombie_rejected")

    def _quarantine(
        self,
        item: WorkItem,
        slot: _Slot,
        sample: Sample,
        reason: str,
    ) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """Reject an evaluated sample whose value failed validation.

        The garbage value never reaches the detector, the datastore or the
        optimizer: the slot is re-measured under the retry budget, and once
        the budget is exhausted it surfaces as the paper's crash-penalty
        sample — the same degraded-but-finite signal the fail-stop path
        produces.
        """
        self.gray_stats.n_quarantined += 1
        self._log(
            "quarantined",
            item=item.sequence,
            config=item.request.config,
            worker=item.vm.vm_id,
            t=item.finish_hours,
            value=str(sample.value),  # NaN/Inf are not valid JSON numbers
            reason=reason,
            attempt=slot.attempts,
        )
        if self._metrics is not None:
            self._metrics.inc("engine.samples.quarantined")
            self._metrics.inc("engine.quarantines", reason=reason)
        if self._tracer is not None:
            self._tracer.end(
                item.sequence, item.finish_hours, "quarantined", reason=reason
            )
        result = self._retry_or_exhaust(slot, item, item.finish_hours)
        if slot.landed:
            self.gray_stats.n_quarantine_penalized += 1
        else:
            self.gray_stats.n_quarantine_retries += 1
        return result

    @property
    def gray_enabled(self) -> bool:
        """Whether any gray-failure feature is armed on this engine."""
        return (
            armed(self.loop.partition_model)
            or self.loop.liveness is not None
            or self._validator is not None
            or armed(self._corruption_model)
        )

    def _retry_or_exhaust(
        self, slot: _Slot, failed_item: WorkItem, decided_at: float
    ) -> Optional[Tuple[WorkRequest, List[Sample]]]:
        """Resubmit a slot with no live copy left, or give up on it.

        A retry goes to the best live worker the configuration has never
        touched, after the policy's backoff from ``decided_at``, and starts
        a new copy generation (fresh clone count and straggler flag).
        Exhausting the budget (or running out of eligible workers) lands a
        ``crashed=True`` sample carrying the paper's crash-penalty value, so
        the optimizer is told a real (bad) result instead of waiting forever
        on a lost one.
        """
        request = slot.owner.request
        policy = self.retry_policy
        if policy is not None and slot.attempts < policy.max_retries:
            vm = self._pick_retry_worker(request.config)
            if vm is not None:
                not_before = decided_at + policy.delay_hours(slot.attempts)
                item = self.loop.submit(
                    request, vm, self.duration_for(vm), not_before=not_before
                )
                item.retried = True
                slot.attempts += 1
                slot.primary, slot.n_clones, slot.flagged = item, 0, False
                self._slots[item.sequence] = slot
                self._exclusions[request.config].workers.add(vm.vm_id)
                if self._scheduler is not None:
                    self._scheduler.reserve([vm.vm_id])
                    self._scheduler.record_external_load(vm.vm_id)
                self.crash_stats.n_retries += 1
                self._log(
                    "retry",
                    item=item.sequence,
                    config=request.config,
                    worker=vm.vm_id,
                    t=item.start_hours,
                    attempt=slot.attempts,
                    failed_worker=failed_item.vm.vm_id,
                    submitted=decided_at,
                    region=vm.region.name,
                    sku=vm.sku.name,
                )
                if self._metrics is not None:
                    self._metrics.inc("engine.items.retried")
                self._trace_begin(item, "retry", decided_at)
                return None
        self.crash_stats.n_exhausted += 1
        if self._metrics is not None:
            self._metrics.inc("engine.retries.exhausted")
        sample = self.execution.crashed_sample(
            request.config,
            failed_item.vm.vm_id,
            iteration=request.iteration,
            budget=request.budget,
        )
        return self._land(slot, sample)

    def _pick_retry_worker(self, config: Configuration) -> Optional[VirtualMachine]:
        """Best live worker the configuration has never touched.

        Unlike speculative duplicates (which only launch on *idle* workers),
        a retry may queue behind busy ones: a lost sample must be recovered
        even on a saturated cluster, so the pick minimises the earliest
        possible start instead of requiring idleness.  Deterministic and
        RNG-free: (earliest start, fastest SKU, cluster position).
        """
        return self.loop.best_retry_worker(self._excluded_workers(config))

    # -- speculative re-execution ---------------------------------------------
    def _cancel_item(self, item: WorkItem) -> None:
        """Cancel a copy that lost its slot's race.

        The loop releases its worker; a cancelled clone also returns its
        engine-owned reservation and counts as a duplicate loss.
        """
        self.loop.cancel(item)
        del self._slots[item.sequence]
        self.stats.n_items_cancelled += 1
        if item.speculative:
            self.stats.n_duplicate_losses += 1
        # The instant the worker is released back to (same expression as
        # ClusterEventLoop.cancel): when the item never started, its span
        # collapses to zero length at its scheduled start.
        cancelled_at = max(item.start_hours, min(self.loop.now, item.finish_hours))
        self._log(
            "cancel",
            item=item.sequence,
            config=item.request.config,
            worker=item.vm.vm_id,
            t=cancelled_at,
        )
        if self._metrics is not None:
            self._metrics.inc("engine.items.cancelled")
            if item.speculative:
                self._metrics.inc("engine.speculation.losses")
        if self._tracer is not None:
            self._tracer.end(item.sequence, cancelled_at, "cancel")
        self._release(item)

    def _live_items(self) -> List[Tuple[_Slot, WorkItem]]:
        """Every live copy with its slot, in submission order."""
        return [(slot, slot.copy(sequence)) for sequence, slot in self._slots.items()]

    def auxiliary_workers_for(self, config: Configuration) -> List[str]:
        """Workers running engine-initiated copies of ``config``'s slots.

        Speculative duplicates and crash retries both occupy an existing
        budget slot rather than a new one, so the sampler's placement
        excludes these workers without letting them count towards the
        budget.
        """
        return [
            item.vm.vm_id
            for _, item in self._live_items()
            if (item.speculative or item.retried) and item.request.config == config
        ]

    def _cloneable(self, limit: int) -> List[Tuple[_Slot, WorkItem]]:
        """Live primaries with fewer than ``limit`` clones launched."""
        return [
            (slot, item)
            for slot, item in self._live_items()
            if not item.speculative and slot.n_clones < limit
        ]

    def _flag(self, slot: _Slot) -> None:
        """Count the slot's current primary as a straggler (once)."""
        if not slot.flagged:
            slot.flagged = True
            self.stats.n_stragglers_detected += 1
            if self._metrics is not None:
                self._metrics.inc("engine.stragglers.detected")

    def _speculate_at_crossings(self) -> None:
        """Process straggler *detection events* before the next completion.

        In a real cluster the monitor notices a straggler the moment its
        elapsed time crosses the threshold — usually between completions.
        Waiting for the next completion would miss exactly the worst case:
        a tail straggler with nothing else in flight (nothing completes
        until the straggler itself does).  So before popping a completion,
        the clock advances to each in-flight run's threshold-crossing time
        that falls earlier, and the duplicate launches there.  Deterministic:
        crossings are processed in (time, submission order) and consume no
        RNG.
        """
        if self.speculation is None or self._detector is None:
            return
        while True:
            threshold = self._detector.threshold()
            if threshold is None:
                return
            next_finish = self.loop.peek_finish()
            if next_finish is None:
                return
            crossings = []
            for slot, item in self._cloneable(self.speculation.max_clones_per_item):
                # Normalised elapsed reaches the threshold at this instant.
                crossing = item.start_hours + threshold / item.vm.speed_factor
                if crossing < next_finish:
                    crossings.append((crossing, item.sequence, slot, item))
            if not crossings:
                return
            crossings.sort(key=lambda entry: (entry[0], entry[1]))
            progressed = False
            for crossing, _, slot, item in crossings:
                next_finish = self.loop.peek_finish()
                if next_finish is not None and crossing >= next_finish:
                    break  # a clone launched this pass moved the horizon
                self.loop.advance_now(crossing)
                self._flag(slot)
                clone_vm = self._pick_speculative_worker(item)
                if clone_vm is None:
                    continue  # nobody idle and eligible at the crossing
                self._submit_clone(slot, item, clone_vm)
                progressed = True
            if not progressed:
                return

    def _maybe_speculate(self) -> None:
        """LATE-style check at a completion event: clone flagged stragglers.

        Runs whose speed-normalised elapsed time exceeds the detector
        threshold are flagged (counted once) and, as soon as an idle
        eligible worker exists, duplicated onto the fastest such worker.
        Deterministic: the live-item scan follows submission order, worker
        ranking is by (speed, cluster index), and no RNG is consumed.
        """
        if self.speculation is None or self._detector is None:
            return
        threshold = self._detector.threshold()
        if threshold is None:
            return
        now = self.loop.now
        for slot, item in self._cloneable(self.speculation.max_clones_per_item):
            if item.start_hours > now:
                continue  # still queued behind other work, not running
            elapsed = self.execution.work_units(item.vm, now - item.start_hours)
            if elapsed <= threshold:
                continue
            self._flag(slot)
            clone_vm = self._pick_speculative_worker(item)
            if clone_vm is None:
                continue  # no idle eligible worker right now; retry later
            self._submit_clone(slot, item, clone_vm)

    def _pick_speculative_worker(self, item: WorkItem) -> Optional[VirtualMachine]:
        """Fastest idle worker the item's configuration has never touched.

        With a task scheduler wired in, its (identically-ordered)
        ``pick_speculative`` keeps the pick pluggable; otherwise the loop's
        per-group idle heaps answer it in O(log n) without a fleet scan.
        """
        excluded = self._excluded_workers(item.request.config)
        if self._scheduler is not None:
            candidates = [
                vm for vm in self.loop.idle_workers() if vm.vm_id not in excluded
            ]
            if not candidates:
                return None
            return self._scheduler.pick_speculative(candidates)
        return self.loop.fastest_idle_worker(excluded)

    def _submit_clone(self, slot: _Slot, item: WorkItem, vm: VirtualMachine) -> None:
        """Launch a speculative duplicate of the slot's straggling primary."""
        request = item.request
        clone = self.loop.submit(request, vm, self.duration_for(vm), speculative=True)
        self._slots[clone.sequence] = slot
        slot.clones.append(clone)
        slot.n_clones += 1
        self._exclusions[request.config].workers.add(vm.vm_id)
        if self._scheduler is not None:
            self._scheduler.reserve([vm.vm_id])
            self._scheduler.record_external_load(vm.vm_id)
        self.stats.n_duplicates_submitted += 1
        self._log(
            "speculate",
            item=clone.sequence,
            config=request.config,
            worker=vm.vm_id,
            t=clone.start_hours,
            original_item=item.sequence,
            submitted=self.loop.now,
            region=vm.region.name,
            sku=vm.sku.name,
        )
        if self._metrics is not None:
            self._metrics.inc("engine.items.speculated")
        self._trace_begin(clone, "speculative", self.loop.now)

    def next_completed_requests(self) -> List[Tuple[WorkRequest, List[Sample]]]:
        """Drain one *wave* of completions: every request finishing at the
        same simulated instant as the first one to complete.

        Completions that land together (e.g. a batch of equal-duration
        samples launched in the same scheduling round) come back as one list,
        so the driver can feed them to the optimizer as a single
        ``tell_batch`` — one surrogate refit per wave instead of one per
        landed result.  Items are still evaluated in exactly the event loop's
        completion order, so the measurement RNG sequence is identical to
        draining requests one at a time.
        """
        completed: List[Tuple[WorkRequest, List[Sample]]] = []
        while True:
            result = self._process_next_item()
            if result is not None:
                completed.append(result)
            next_finish = self.loop.peek_finish()
            if next_finish is None and not completed:
                # Everything left in flight was stale: fenced zombie reports
                # (their slots already landed through re-submissions) drain
                # without landing anything.  An empty wave, not an error.
                return completed
            if completed and (next_finish is None or next_finish > self.loop.now):
                return completed

    # -- teardown -------------------------------------------------------------
    def finalize(self) -> float:
        """Synchronise all clocks to the makespan; returns the makespan.

        At the end of a run every worker has existed for the full makespan
        even if its own timeline finished earlier, and the cluster-wide
        clock advances by the makespan (per-worker clocks were already moved
        individually, so only the orchestrator clock is touched).
        """
        if self.loop.n_in_flight:
            raise RuntimeError("cannot finalize with work still in flight")
        makespan = self.loop.makespan
        if not self.lockstep:
            # Vectorized drain: one gather of the fleet's clocks, one array
            # of gaps, then per-VM advancement only where a gap exists (the
            # VM objects own burst-credit state, so the final touch is
            # per-object by design).
            workers = self.cluster.workers
            clocks = np.fromiter(
                (vm.clock_hours for vm in workers),
                dtype=np.float64,
                count=len(workers),
            )
            gaps = self._clock_origin + makespan - clocks
            for worker_idx in np.nonzero(gaps > 0)[0]:
                workers[worker_idx].advance(float(gaps[worker_idx]))
            self.cluster.advance_clock(makespan)
        return makespan
