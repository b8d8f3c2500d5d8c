"""Model-based test of the engine's sample slots (exactly-once delivery).

A hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.core.AsyncExecutionEngine` with every slot-changing event
armed.  Rules submit requests, drain waves of completions, and queue fault
decisions — a crash or node death, a partition long enough to outlive the
lease, a corrupt value, a straggler stretch — that scripted fault models
hand to whichever submission or evaluation comes next (a first run, a
retry or a speculative clone alike).

:class:`SlotModel` is an independent reference model of the slot
lifecycle.  It replays the engine's event stream — submit, speculate,
retry, fail, suspect, lease_fence, cancel, complete, quarantined,
zombie_rejected — keeping each slot's live copies and retry count, and
decides on its own when a slot lands or is exhausted.  The machine checks
the engine against it:

* every submitted request comes back exactly once, with exactly
  ``len(vms)`` samples, each the value the model landed for that slot (or a
  crash-penalty sample where the model exhausted it);
* no quarantined or fenced value reaches a landed sample;
* open requests equal ``engine.n_in_flight_requests``;
* no slot's live copies share a worker, and the engine's live copies are
  the model's.
"""

import math
from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cloud import Cluster
from repro.core import (
    AsyncExecutionEngine,
    ExecutionEngine,
    RetryPolicy,
    WorkRequest,
)
from repro.core.validation import CorruptionDecision, CorruptionModel
from repro.faults import (
    CrashDecision,
    CrashModel,
    FaultModel,
    PartitionDecision,
    PartitionModel,
    SpeculationPolicy,
)
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC

N_WORKERS = 6
MAX_RETRIES = 2
#: A sample run takes 0.1 simulated hours; a lease tolerates half of that.
LEASE_HOURS = 0.05
MAX_IN_FLIGHT = 12
EXHAUSTED = "exhausted"


class ScriptedCrash(CrashModel):
    """Hands queued crash decisions to the next submissions."""

    name = "scripted-queue"

    def __init__(self):
        super().__init__(seed=0)
        self.queue = deque()

    def decide(self, context):
        if not self.queue:
            return CrashDecision(failed=False)
        fraction, dead = self.queue.popleft()
        return CrashDecision(
            failed=True,
            fail_at_hours=context.start_hours + fraction * context.duration_hours,
            worker_dead=dead,
            kind="node-death" if dead else "transient",
        )


class ScriptedPartition(PartitionModel):
    """Hands queued report delays to the next submissions."""

    name = "scripted-queue"

    def __init__(self):
        super().__init__(seed=0)
        self.queue = deque()

    def decide(self, context):
        if not self.queue:
            return PartitionDecision(delayed=False)
        delay, silent_fraction = self.queue.popleft()
        return PartitionDecision(
            delayed=True,
            delay_hours=delay,
            silent_fraction=silent_fraction,
            kind="partition",
        )


class ScriptedCorruption(CorruptionModel):
    """Turns the next evaluated values into NaN."""

    name = "scripted-queue"

    def __init__(self):
        super().__init__(seed=0)
        self.pending = 0

    def decide(self, context):
        if not self.pending:
            return CorruptionDecision(corrupted=False)
        self.pending -= 1
        return CorruptionDecision(corrupted=True, kind="nan")


class ScriptedStretch(FaultModel):
    """Hands queued duration stretches to the next submissions."""

    name = "scripted-queue"

    def __init__(self):
        super().__init__(seed=0)
        self.queue = deque()

    def stretch(self, context):
        return self.queue.popleft() if self.queue else 1.0


class EventTap:
    """In-memory stand-in for the event log: records what the engine logs."""

    def __init__(self):
        self.events = []

    def append(self, kind, **fields):
        self.events.append(dict(fields, kind=kind))


class SlotModel:
    """Reference model of the slot lifecycle, fed the engine's events.

    A slot is named by its first item's sequence.  A lost last copy must
    be followed at once by the slot's retry; any other next event means the
    engine exhausted the slot, which lands a crash-penalty sample.
    """

    def __init__(self, max_retries):
        self.max_retries = max_retries
        self.slot_of = {}  # live item -> slot
        self.copies = {}  # slot -> {live item: worker}
        self.attempts = {}  # slot -> retries so far
        self.request = {}  # slot -> request iteration
        self.landed = {}  # request iteration -> landed values / EXHAUSTED
        self.fenced = set()
        self.lost = None  # slot whose last copy was just lost

    def consume(self, event):
        kind, item = event["kind"], event.get("item")
        if self.lost is not None and kind not in ("retry", "lease_fence"):
            self.settle()
        if kind == "submit":
            self.copies[item], self.attempts[item] = {}, 0
            self.request[item] = event["iteration"]
            self.landed.setdefault(event["iteration"], [])
            self._add(item, item, event["worker"])
        elif kind == "speculate":
            assert event["original_item"] in self.slot_of, "clone of a dead copy"
            self._add(self.slot_of[event["original_item"]], item, event["worker"])
        elif kind == "retry":
            slot, self.lost = self.lost, None
            assert slot is not None, "retry of a slot whose copies still race"
            self.attempts[slot] += 1
            assert event["attempt"] == self.attempts[slot] <= self.max_retries
            self._add(slot, item, event["worker"])
        elif kind == "lease_fence":
            self.fenced.add(item)
        elif kind == "zombie_rejected":
            assert item in self.fenced and item not in self.slot_of
        elif kind in ("fail", "suspect", "cancel", "complete", "quarantined"):
            slot = self.slot_of.pop(item)
            del self.copies[slot][item]
            if kind == "complete":
                assert not self.copies[slot], "a slot landed with copies racing"
                assert item not in self.fenced
                self._land(slot, event["value"])
            elif kind != "cancel" and not self.copies[slot]:
                self.lost = slot

    def settle(self):
        """Exhaust the slot whose lost last copy was not retried."""
        if self.lost is not None:
            slot, self.lost = self.lost, None
            self._land(slot, EXHAUSTED)

    def _add(self, slot, item, worker):
        assert worker not in self.copies[slot].values(), "live copies share a worker"
        self.copies[slot][item] = worker
        self.slot_of[item] = slot

    def _land(self, slot, outcome):
        del self.copies[slot]
        self.landed[self.request[slot]].append(outcome)


class SlotMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        system = PostgreSQLSystem()
        cluster = Cluster(n_workers=N_WORKERS, seed=3)
        self.workers = cluster.workers
        self.crash = ScriptedCrash()
        self.partition = ScriptedPartition()
        self.corruption = ScriptedCorruption()
        self.stretch = ScriptedStretch()
        self.tap = EventTap()
        self.engine = AsyncExecutionEngine(
            ExecutionEngine(system, TPCC, seed=3),
            cluster,
            fault_model=self.stretch,
            speculation=SpeculationPolicy(slack=1.0, min_history=1, max_clones_per_item=2),
            crash_model=self.crash,
            retry_policy=RetryPolicy(max_retries=MAX_RETRIES, backoff_hours=0.01),
            event_log=self.tap,
            partition_model=self.partition,
            lease_timeout_hours=LEASE_HOURS,
            validation=True,
            corruption_model=self.corruption,
        )
        self.model = SlotModel(MAX_RETRIES)
        self.configs = [
            system.knob_space.sample(np.random.default_rng(seed)) for seed in range(3)
        ]
        self.n_slots = {}  # request iteration -> len(vms)
        self.returned = set()

    def _sync(self):
        for event in self.tap.events:
            self.model.consume(event)
        self.tap.events.clear()
        self.model.settle()

    # -- rules -------------------------------------------------------------
    @precondition(lambda self: self.engine.n_in_flight_items < MAX_IN_FLIGHT)
    @rule(
        config=st.integers(0, 2),
        workers=st.lists(st.integers(0, N_WORKERS - 1), min_size=1, max_size=3, unique=True),
    )
    def submit(self, config, workers):
        iteration = len(self.n_slots)
        vms = [self.workers[index] for index in workers]
        self.engine.submit(WorkRequest(self.configs[config], 1, vms, iteration))
        self.n_slots[iteration] = len(vms)
        self._sync()

    @precondition(lambda self: self.engine.n_in_flight_items > 0)
    @rule()
    def complete(self):
        wave = self.engine.next_completed_requests()
        self._sync()
        for request, samples in wave:
            self._check_returned(request, samples)

    @rule(fraction=st.floats(0.0, 1.0), dead=st.booleans())
    def crash_next(self, fraction, dead):
        self.crash.queue.append((fraction, dead and fraction > 0.8))

    @rule(delay=st.floats(0.1, 1.0), silent_fraction=st.floats(0.0, 1.0))
    def partition_next(self, delay, silent_fraction):
        self.partition.queue.append((delay, silent_fraction))

    @rule()
    def corrupt_next(self):
        self.corruption.pending += 1

    @rule(factor=st.floats(1.5, 6.0))
    def straggle_next(self, factor):
        self.stretch.queue.append(factor)

    # -- checks ------------------------------------------------------------
    def _check_returned(self, request, samples):
        key = request.iteration
        assert key not in self.returned, "a request came back twice"
        self.returned.add(key)
        assert len(samples) == len(request.vms) == self.n_slots[key]
        expected = self.model.landed[key]
        assert len(expected) == len(samples)
        for sample, outcome in zip(samples, expected):
            assert "corrupt_result" not in sample.details
            assert math.isfinite(sample.value)
            if outcome == EXHAUSTED:
                assert sample.crashed
            else:
                assert sample.value == outcome

    @invariant()
    def landed_requests_are_the_returned_ones(self):
        full = set()
        for key, outcomes in self.model.landed.items():
            assert len(outcomes) <= self.n_slots[key], "a slot landed twice"
            if len(outcomes) == self.n_slots[key]:
                full.add(key)
        assert full == self.returned

    @invariant()
    def open_requests_match(self):
        assert len(self.n_slots) - len(self.returned) == self.engine.n_in_flight_requests

    @invariant()
    def live_copies_match_the_model_and_never_share_a_worker(self):
        engine_slots = self.engine._slots
        assert sorted(engine_slots) == sorted(self.model.slot_of)
        for slot in engine_slots.values():
            copies = ([slot.primary] if slot.primary is not None else []) + slot.clones
            workers = [copy.vm.vm_id for copy in copies]
            assert len(set(workers)) == len(workers)

    def teardown(self):
        while self.engine.n_in_flight_items:
            self.complete()
        assert self.returned == set(self.n_slots), "a request never came back"


SlotMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestSlotMachine = SlotMachine.TestCase
