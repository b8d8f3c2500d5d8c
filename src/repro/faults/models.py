"""Pluggable stochastic duration models (runtime-variability injection).

A :class:`FaultModel` turns a work item's deterministic base duration into a
stochastic one by returning a multiplicative *stretch* factor for the
``(worker, start time, duration, co-located load)`` context of the
submission.  The event loop multiplies the base duration by the stretch, so
``stretch == 1.0`` leaves the finish time bit-for-bit unchanged (IEEE-754
multiplication by 1.0 is exact).

Determinism contract
--------------------
The per-worker streams, the null model and the composite are the shared
ones of :mod:`repro.faults.base`; duration models use the empty domain tag.
A worker's stream is consumed once per submission on that worker, in
submission order — which the event loop fixes — so a fixed seed reproduces
a run exactly, and adding or removing *other* workers never perturbs a
worker's own draw sequence.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.faults.base import (
    CompositePerturbation,
    NullPerturbation,
    Perturbation,
    build,
    checked_rate,
)


@dataclass(frozen=True)
class FaultContext:
    """Everything a fault model may condition a stretch draw on.

    ``concurrent_items`` is the number of other work items in flight across
    the cluster at submission time — the co-located load that drives the
    interference-burst model; ``n_workers`` normalises it to an occupancy
    fraction.  ``speculative`` marks a straggler-mitigation duplicate:
    models draw those from a separate per-worker channel so that launching
    a duplicate never shifts the fault trace the *regular* submissions on
    that worker would have seen — speculation on/off comparisons stay
    paired run-for-run.
    """

    worker_id: str
    start_hours: float
    duration_hours: float
    concurrent_items: int = 0
    n_workers: int = 1
    speculative: bool = False

    @property
    def occupancy(self) -> float:
        """Fraction of the cluster busy with other items at submission."""
        return self.concurrent_items / max(self.n_workers, 1)


class FaultModel(Perturbation[FaultContext, float]):
    """Base class of the duration family: :meth:`stretch` is its decision."""

    family = "fault"

    def decide(self, context: FaultContext) -> float:
        return self.stretch(context)

    def _window_rng(
        self, context: FaultContext, window_hours: float
    ) -> np.random.Generator:
        """A throwaway RNG pinned to the submission's ``(worker, window)``.

        Windowed models treat the fault as a property of the *environment*
        at a simulated time — any run starting on this worker inside the
        window inherits the same episode.  That makes the realised fault
        field independent of submission interleaving, so mitigation on/off
        comparisons stay paired even though mitigation reshuffles which run
        lands where.
        """
        window = int(context.start_hours // window_hours)
        return self._derive(context.worker_id, 7, window)

    @abc.abstractmethod
    def stretch(self, context: FaultContext) -> float:
        """Multiplicative duration stretch (>= some small positive bound)."""


class NoFaultModel(NullPerturbation[FaultContext, float], FaultModel):
    """The ``"none"`` model: every stretch is exactly 1.0, no RNG consumed.

    This is the model behind the repo's signature guarantee — injecting it
    must reproduce existing trajectories bit-for-bit under the same seeds.
    """

    outcome = 1.0

    def stretch(self, context: FaultContext) -> float:
        return 1.0


class LognormalTailModel(FaultModel):
    """Heavy-tail runtime stretch: most runs are clean, a few are stragglers.

    With probability ``rate`` a run is hit by a slowdown of
    ``1 + scale * LogNormal(0, sigma)`` — the classic long-tailed runtime
    distribution of interference-prone clusters (median tail stretch
    ``1 + scale``, with a tail that reaches an order of magnitude).  Clean
    runs keep exactly their base duration.

    With ``window_hours`` set, the draw is pinned to the run's
    ``(worker, start-time window)`` instead of the worker's sequential
    stream: the slowdown becomes an *episode of the environment* that any
    run starting in the window inherits.  This keeps the realised fault
    field identical across scheduling policies (the basis of the paired
    speculation on/off benchmark); without it, draws follow per-submission
    stream order.
    """

    name = "lognormal"

    def __init__(
        self,
        seed: Optional[int] = None,
        rate: float = 0.15,
        sigma: float = 1.0,
        scale: float = 2.0,
        max_stretch: float = 40.0,
        window_hours: Optional[float] = None,
    ) -> None:
        super().__init__(seed=seed)
        self.rate = checked_rate(rate)
        if sigma <= 0 or scale <= 0:
            raise ValueError("sigma and scale must be positive")
        if window_hours is not None and window_hours <= 0:
            raise ValueError("window_hours must be positive")
        if max_stretch < 1.0:
            raise ValueError("max_stretch must be >= 1.0 (a fault never speeds up)")
        self.sigma = float(sigma)
        self.scale = float(scale)
        self.max_stretch = float(max_stretch)
        self.window_hours = window_hours

    def stretch(self, context: FaultContext) -> float:
        if self.window_hours is not None:
            rng = self._window_rng(context, self.window_hours)
        else:
            rng = self._stream(context)
        # Two draws per submission, unconditionally, so the stream position
        # does not depend on which branch earlier submissions took.
        hit = rng.random() < self.rate
        tail = float(rng.lognormal(0.0, self.sigma))
        if not hit:
            return 1.0
        return float(min(1.0 + self.scale * tail, self.max_stretch))


class InterferenceBurstModel(FaultModel):
    """Interference bursts whose likelihood grows with co-located load.

    A busy cluster means noisy neighbours: the burst probability scales from
    ``base_rate`` (idle cluster) up to ``base_rate * (1 + coupling)`` (fully
    occupied), and a burst stretches the run by ``1 + Exp(magnitude)``
    (capped).  This couples the noise the scheduler experiences to the load
    it creates — exactly the feedback a queue model should be tested under.
    """

    name = "interference"

    def __init__(
        self,
        seed: Optional[int] = None,
        base_rate: float = 0.2,
        coupling: float = 2.0,
        magnitude: float = 0.9,
        max_extra: float = 6.0,
    ) -> None:
        super().__init__(seed=seed)
        self.base_rate = checked_rate(base_rate, "base_rate")
        if coupling < 0 or magnitude <= 0:
            raise ValueError("coupling must be >= 0 and magnitude > 0")
        if max_extra < 0:
            raise ValueError("max_extra must be >= 0 (a fault never speeds up)")
        self.coupling = float(coupling)
        self.magnitude = float(magnitude)
        self.max_extra = float(max_extra)

    def stretch(self, context: FaultContext) -> float:
        rng = self._stream(context)
        probability = min(
            0.95, self.base_rate * (1.0 + self.coupling * context.occupancy)
        )
        hit = rng.random() < probability
        extra = float(rng.exponential(self.magnitude))
        if not hit:
            return 1.0
        return 1.0 + min(extra, self.max_extra)


class BrownoutModel(FaultModel):
    """Transient slow-worker state machine (healthy <-> browned-out).

    Each worker runs an independent two-state continuous-time Markov chain
    over *simulated* time: healthy dwell times are ``Exp(mean_healthy_hours)``
    and brownout dwells ``Exp(mean_brownout_hours)``; while browned out,
    every run on the worker is stretched by ``slowdown``.  The state is
    evolved lazily to each submission's start time, which is sound because
    the event loop submits per-worker work in non-decreasing start order.
    A run straddling a state boundary uses the state at its start (the
    standard simplification for discrete-event injection).
    """

    name = "brownout"

    def __init__(
        self,
        seed: Optional[int] = None,
        mean_healthy_hours: float = 6.0,
        mean_brownout_hours: float = 1.0,
        slowdown: float = 3.0,
    ) -> None:
        super().__init__(seed=seed)
        if mean_healthy_hours <= 0 or mean_brownout_hours <= 0:
            raise ValueError("dwell means must be positive")
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1.0 (a brownout never speeds up)")
        self.mean_healthy_hours = float(mean_healthy_hours)
        self.mean_brownout_hours = float(mean_brownout_hours)
        self.slowdown = float(slowdown)
        # worker id -> [browned_out, next_transition_hours]
        self._state: Dict[str, list] = {}

    def stretch(self, context: FaultContext) -> float:
        # The brownout state is a property of the *worker*, shared by
        # regular and speculative runs alike; evolution is a pure function
        # of query time (queries are monotone per worker), so speculative
        # queries never shift the dwell-draw sequence either.
        rng = self.stream_for(context.worker_id)
        state = self._state.get(context.worker_id)
        if state is None:
            state = [False, float(rng.exponential(self.mean_healthy_hours))]
            self._state[context.worker_id] = state
        while state[1] <= context.start_hours:
            state[0] = not state[0]
            dwell = (
                self.mean_brownout_hours if state[0] else self.mean_healthy_hours
            )
            state[1] += float(rng.exponential(dwell))
        return self.slowdown if state[0] else 1.0


class CompositeFaultModel(CompositePerturbation[FaultContext, float], FaultModel):
    """Product of several fault models (e.g. heavy tail on top of brownouts)."""

    def stretch(self, context: FaultContext) -> float:
        return self.decide(context)

    def combine(self, decisions: List[float]) -> float:
        factor = 1.0
        for stretch in decisions:
            factor *= stretch
        return factor


#: Known model names for :func:`build_fault_model` (aliases included).
FAULT_MODELS = {
    "none": NoFaultModel,
    "lognormal": LognormalTailModel,
    "heavy-tail": LognormalTailModel,
    "interference": InterferenceBurstModel,
    "brownout": BrownoutModel,
}


def build_fault_model(
    spec: "FaultModel | str | None",
    seed: Optional[int] = None,
    **kwargs: Any,
) -> Optional[FaultModel]:
    """Instantiate a fault model by name (see :func:`repro.faults.base.build`)."""
    return build(spec, FaultModel.family, FAULT_MODELS, seed, **kwargs)
