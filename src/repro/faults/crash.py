"""Fail-stop crash models: work items that *fail* instead of finishing.

The duration models of :mod:`repro.faults.models` stretch runs; the models
here kill them.  A :class:`CrashModel` is consulted by
:class:`~repro.core.async_engine.ClusterEventLoop` at submission time and
returns a :class:`CrashDecision` for the scheduled ``[start, finish]``
window of the work item: either the run survives, or it fails at a sampled
instant inside the window — optionally taking its worker down permanently
(fail-stop node death).  The event loop reschedules a failed item's
completion event to the failure instant, so the orchestrator *observes* the
failure exactly when a real cluster's monitor would, and the recovery
machinery (retry with backoff, rerouting, crash-penalty surfacing) lives in
:class:`~repro.core.async_engine.AsyncExecutionEngine`.

Determinism contract
--------------------
The per-worker streams (domain tag 13), the null model and the composite are
the shared ones of :mod:`repro.faults.base`.  Each model consumes its stream
a fixed number of times per decision regardless of the branch taken, so a
fixed seed reproduces the crash trace exactly.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.faults.base import (
    CompositePerturbation,
    NullPerturbation,
    Perturbation,
    RunContext,
    build,
    checked_rate,
)


#: The scheduled window a crash decision is drawn for (``duration_hours``
#: is the item's duration after any duration-model stretch).
CrashContext = RunContext


@dataclass(frozen=True)
class CrashDecision:
    """What a crash model decided for one submission.

    ``fail_at_hours`` is an *absolute* simulated time; the event loop clamps
    it into the item's ``[start, finish]`` window.  ``worker_dead`` marks a
    permanent fail-stop of the node: the worker is drained from the fleet
    and never receives work again.
    """

    failed: bool
    fail_at_hours: float = 0.0
    worker_dead: bool = False
    kind: str = ""


#: The shared "nothing happened" decision (no per-call allocation).
SURVIVES = CrashDecision(failed=False)


class CrashModel(Perturbation[CrashContext, CrashDecision]):
    """Base class of the crash family (domain tag 13)."""

    family = "crash"
    TAG = (13,)

    @abc.abstractmethod
    def decide(self, context: CrashContext) -> CrashDecision:
        """Decide whether (and when) the submitted run fails."""


class NoCrashModel(NullPerturbation[CrashContext, CrashDecision], CrashModel):
    """The ``"none"`` model: every run survives, no RNG consumed.

    The crash subsystem's signature guarantee rests on this model: injecting
    it must reproduce existing trajectories bit-for-bit under the same
    seeds, which is trivially auditable because it touches nothing.
    """

    outcome = SURVIVES


class TransientCrashModel(CrashModel):
    """Memoryless mid-run errors: the run dies, the worker survives.

    With probability ``rate`` a submission fails at a uniformly distributed
    instant inside its scheduled window — the benchmark process segfaults,
    the SuT wedges, the VM reboots.  The worker itself comes back
    immediately (its queue resumes at the failure instant), so the only
    damage is the lost run.  Two draws per decision, unconditionally, so
    the stream position never depends on earlier outcomes.
    """

    name = "transient"

    def __init__(self, seed: Optional[int] = None, rate: float = 0.05) -> None:
        super().__init__(seed=seed)
        self.rate = checked_rate(rate)

    def decide(self, context: CrashContext) -> CrashDecision:
        rng = self._stream(context)
        hit = rng.random() < self.rate
        fraction = float(rng.random())
        if not hit:
            return SURVIVES
        return CrashDecision(
            failed=True,
            fail_at_hours=context.start_hours + fraction * context.duration_hours,
            worker_dead=False,
            kind="transient",
        )


class NodeDeathModel(CrashModel):
    """Permanent fail-stop node death under a per-worker Weibull hazard.

    Each worker's time of death is one Weibull draw over its *simulated*
    uptime, scaled so the distribution's mean equals ``mtbf_hours``
    (``shape == 1`` is the classic exponential/MTBF memoryless hazard;
    ``shape > 1`` models wear-out, ``shape < 1`` infant mortality).  A
    submission whose scheduled window reaches past the death instant fails
    there — mid-run if the worker dies while running it, instantly at its
    start if the node was already dead when the work was queued — and the
    worker is permanently drained.  Exactly one draw per worker, taken
    lazily at the worker's first submission, so fleet size and query order
    never shift another worker's fate.
    """

    name = "node-death"

    def __init__(
        self,
        seed: Optional[int] = None,
        mtbf_hours: float = 48.0,
        shape: float = 1.0,
    ) -> None:
        super().__init__(seed=seed)
        if mtbf_hours <= 0:
            raise ValueError("mtbf_hours must be positive")
        if shape <= 0:
            raise ValueError("shape must be positive")
        self.mtbf_hours = float(mtbf_hours)
        self.shape = float(shape)
        # Mean of Weibull(shape, scale=1) is gamma(1 + 1/shape).
        self._scale = self.mtbf_hours / math.gamma(1.0 + 1.0 / self.shape)
        self._death_at: Dict[str, float] = {}

    def death_time(self, worker_id: str) -> float:
        """The worker's (lazily sampled) time of death in simulated hours."""
        death = self._death_at.get(worker_id)
        if death is None:
            # The death instant is a property of the *worker*, shared by
            # regular and speculative runs alike: always channel 0.
            rng = self.stream_for(worker_id)
            death = float(rng.weibull(self.shape)) * self._scale
            self._death_at[worker_id] = death
        return death

    def decide(self, context: CrashContext) -> CrashDecision:
        death = self.death_time(context.worker_id)
        if context.finish_hours <= death:
            return SURVIVES
        return CrashDecision(
            failed=True,
            fail_at_hours=max(context.start_hours, death),
            worker_dead=True,
            kind="node-death",
        )


class CompositeCrashModel(
    CompositePerturbation[CrashContext, CrashDecision], CrashModel
):
    """Several crash hazards at once: the earliest failure wins."""

    def combine(self, decisions: List[CrashDecision]) -> CrashDecision:
        failed = [d for d in decisions if d.failed]
        if not failed:
            return SURVIVES
        return min(failed, key=lambda d: d.fail_at_hours)


#: Known model names for :func:`build_crash_model` (aliases included).
CRASH_MODELS = {
    "none": NoCrashModel,
    "transient": TransientCrashModel,
    "node-death": NodeDeathModel,
    "weibull": NodeDeathModel,
    "mtbf": NodeDeathModel,
}


def build_crash_model(
    spec: "CrashModel | str | None",
    seed: Optional[int] = None,
    **kwargs: Any,
) -> Optional[CrashModel]:
    """Instantiate a crash model by name (see :func:`repro.faults.base.build`)."""
    return build(spec, CrashModel.family, CRASH_MODELS, seed, **kwargs)
