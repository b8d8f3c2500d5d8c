"""Gray-failure partition models: workers that go silent instead of dying.

The crash models of :mod:`repro.faults.crash` kill runs; the models here
*delay their reports*.  A :class:`PartitionModel` is consulted by
:class:`~repro.core.async_engine.ClusterEventLoop` at submission time and
returns a :class:`PartitionDecision` for the item's scheduled window (after
any duration stretch and crash rescheduling): either the report arrives on
time, or the worker goes silent at some instant inside the window and its
terminal report — completion *or* failure — only reaches the orchestrator
``delay_hours`` late.  The orchestrator's view of the worker is pessimistic:
it holds the worker's queue until the delayed report (work is not routed to
a node that cannot be heard from), and during ``[silent_at, finish]`` no
heartbeats arrive, which is what the lease monitor in
:mod:`repro.core.liveness` acts on.  Whether a delayed item becomes a
*zombie* — given up on, re-submitted under a new lease epoch, its eventual
report fenced — is decided by the lease timeout, not by the model: silence
longer than the lease means suspicion, anything shorter is just a late
result.

Three hazard shapes:

* :class:`StallModel` — the run itself pauses mid-flight (GC storm, I/O
  hang) and resumes: moderate delays, silence starting at a uniform point
  of the run.
* :class:`PartitionOutageModel` — the network partitions: the worker keeps
  computing and finishes locally, but nothing is heard until the partition
  heals.  Heavy-tailed delays; the healed report carries a completed
  result, the classic zombie.
* :class:`FlakyReconnectModel` — short reconnect blips at report time:
  small repeated delays that jitter observation order without (normally)
  tripping any lease.

Determinism contract
--------------------
The per-worker streams (domain tag 17), the null model and the composite
are the shared ones of :mod:`repro.faults.base`.  Each model takes a fixed
number of draws per decision regardless of the branch taken.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from repro.faults.base import (
    CompositePerturbation,
    NullPerturbation,
    Perturbation,
    RunContext,
    build,
    checked_rate,
)


#: The scheduled window a partition decision is drawn for (``duration_hours``
#: is the item's final duration: after any stretch, and up to the failure
#: instant of an item a crash model already killed).
PartitionContext = RunContext


@dataclass(frozen=True)
class PartitionDecision:
    """What a partition model decided for one submission.

    ``delay_hours`` is how long after the run's local finish (or failure)
    the terminal report reaches the orchestrator; ``silent_fraction`` is
    where inside the scheduled window the last heartbeat was heard (1.0:
    the worker was responsive right up to its local finish and only the
    report is late).  The event loop turns these into the item's
    ``silent_at`` / delayed ``finish_hours``.
    """

    delayed: bool
    delay_hours: float = 0.0
    silent_fraction: float = 1.0
    kind: str = ""


#: The shared "heard from on time" decision (no per-call allocation).
RESPONSIVE = PartitionDecision(delayed=False)


def _silence(
    rng: np.random.Generator, rate: float, mean_hours: float, kind: str
) -> PartitionDecision:
    """A silence of ``Exp(mean_hours)`` with probability ``rate``, starting at
    a uniform point of the run: three draws, taken unconditionally."""
    hit = rng.random() < rate
    delay = float(rng.exponential(mean_hours))
    fraction = float(rng.random())
    if not hit:
        return RESPONSIVE
    return PartitionDecision(
        delayed=True, delay_hours=delay, silent_fraction=fraction, kind=kind
    )


class PartitionModel(Perturbation[PartitionContext, PartitionDecision]):
    """Base class of the partition family (domain tag 17)."""

    family = "partition"
    TAG = (17,)

    @abc.abstractmethod
    def decide(self, context: PartitionContext) -> PartitionDecision:
        """Decide whether (and how) the submitted run's report is delayed."""


class NoPartitionModel(
    NullPerturbation[PartitionContext, PartitionDecision], PartitionModel
):
    """The ``"none"`` model: every report arrives on time, no RNG consumed.

    The gray-failure subsystem's signature guarantee rests on this model:
    injecting it must reproduce existing trajectories bit-for-bit under the
    same seeds, which is trivially auditable because it touches nothing.
    """

    outcome = RESPONSIVE


class StallModel(PartitionModel):
    """Mid-run stalls: the run pauses for a window, then resumes.

    With probability ``rate`` a submission stalls for an exponentially
    distributed window of mean ``mean_stall_hours``, starting at a uniform
    instant of the run; the run completes (and reports) that much later,
    and the worker is silent from the stall's onset until the report.
    Three draws per decision, unconditionally, so the stream position never
    depends on earlier outcomes.
    """

    name = "stall"

    def __init__(
        self,
        seed: Optional[int] = None,
        rate: float = 0.05,
        mean_stall_hours: float = 0.25,
    ) -> None:
        super().__init__(seed=seed)
        self.rate = checked_rate(rate)
        if mean_stall_hours <= 0:
            raise ValueError("mean_stall_hours must be positive")
        self.mean_stall_hours = float(mean_stall_hours)

    def decide(self, context: PartitionContext) -> PartitionDecision:
        return _silence(self._stream(context), self.rate, self.mean_stall_hours, "stall")


class PartitionOutageModel(PartitionModel):
    """Network partitions: the worker finishes, the report arrives late.

    With probability ``rate`` the link to the worker drops at a uniform
    instant of the run and stays down for an exponentially distributed
    outage of mean ``mean_outage_hours`` *past the local finish* — long
    enough, typically, to outlive a lease and turn the healed report into
    a fenced zombie.  Three draws per decision, unconditionally.
    """

    name = "partition"

    def __init__(
        self,
        seed: Optional[int] = None,
        rate: float = 0.03,
        mean_outage_hours: float = 1.0,
    ) -> None:
        super().__init__(seed=seed)
        self.rate = checked_rate(rate)
        if mean_outage_hours <= 0:
            raise ValueError("mean_outage_hours must be positive")
        self.mean_outage_hours = float(mean_outage_hours)

    def decide(self, context: PartitionContext) -> PartitionDecision:
        return _silence(self._stream(context), self.rate, self.mean_outage_hours, "partition")


class FlakyReconnectModel(PartitionModel):
    """Reconnect blips at report time: short, occasionally repeated delays.

    With probability ``rate`` the report needs between 1 and ``max_blips``
    delivery attempts, each costing an exponentially distributed blip of
    mean ``blip_hours``; the worker was responsive through the whole run
    (``silent_fraction=1.0``), so unless blips stack past the lease
    timeout the only effect is jittered observation order.  Three draws
    per decision, unconditionally.
    """

    name = "flaky"

    def __init__(
        self,
        seed: Optional[int] = None,
        rate: float = 0.1,
        blip_hours: float = 0.02,
        max_blips: int = 3,
    ) -> None:
        super().__init__(seed=seed)
        self.rate = checked_rate(rate)
        if blip_hours <= 0:
            raise ValueError("blip_hours must be positive")
        if max_blips < 1:
            raise ValueError("max_blips must be >= 1")
        self.blip_hours = float(blip_hours)
        self.max_blips = int(max_blips)

    def decide(self, context: PartitionContext) -> PartitionDecision:
        rng = self._stream(context)
        hit = rng.random() < self.rate
        n_blips = int(rng.integers(1, self.max_blips + 1))
        magnitude = float(rng.exponential(1.0))
        if not hit:
            return RESPONSIVE
        return PartitionDecision(
            delayed=True,
            delay_hours=n_blips * self.blip_hours * magnitude,
            silent_fraction=1.0,
            kind="flaky",
        )


class CompositePartitionModel(
    CompositePerturbation[PartitionContext, PartitionDecision], PartitionModel
):
    """Several silence hazards at once: the longest silence dominates.

    Among the delayed decisions the one with the largest delay wins —
    overlapping outages do not add, the worker is simply unreachable until
    the last one heals.  Ties break on member order (deterministic).
    """

    def combine(self, decisions: List[PartitionDecision]) -> PartitionDecision:
        delayed = [d for d in decisions if d.delayed]
        if not delayed:
            return RESPONSIVE
        return max(delayed, key=lambda d: d.delay_hours)


#: Known model names for :func:`build_partition_model` (aliases included).
PARTITION_MODELS = {
    "none": NoPartitionModel,
    "stall": StallModel,
    "partition": PartitionOutageModel,
    "outage": PartitionOutageModel,
    "flaky": FlakyReconnectModel,
    "reconnect": FlakyReconnectModel,
}


def build_partition_model(
    spec: "PartitionModel | str | None",
    seed: Optional[int] = None,
    **kwargs: Any,
) -> Optional[PartitionModel]:
    """Instantiate a partition model by name (see :func:`repro.faults.base.build`)."""
    return build(spec, PartitionModel.family, PARTITION_MODELS, seed, **kwargs)
