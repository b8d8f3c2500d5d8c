"""Result quarantine: the gate between the engine and the optimizer.

A gray-failing worker does not only stall — it can return *garbage*: NaN
from a wedged benchmark harness, infinities from a division by a zeroed
counter, wildly out-of-domain readings from a half-configured SuT.  Told to
the optimizer, a single such value poisons the surrogate (NaN propagates
through every fit) or pins the incumbent to a physically impossible
optimum.  The :class:`ResultValidator` sits between
:class:`~repro.core.async_engine.AsyncExecutionEngine` and the sampler: a
completed sample whose objective value fails validation is *quarantined* —
logged, tallied, and re-measured under the slot's retry budget; a slot that
exhausts its budget surfaces as the paper's crash-penalty sample, exactly
like the fail-stop path, so the optimizer always receives exactly one
finite, in-domain result per slot.

:class:`CorruptResultModel` is the matching fault injector: a seeded
per-worker :class:`~repro.faults.base.Perturbation` (domain tag 19, like
the crash and partition models) that corrupts a configurable fraction of
measured values into NaN, infinity or wild out-of-domain readings —
exercising the quarantine gate end to end.  The validator itself consumes no RNG and, on finite in-domain
values, changes nothing: enabling validation on a clean run is bit-for-bit
inert.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.faults.base import (
    NullPerturbation,
    Perturbation,
    RunContext,
    build,
    checked_rate,
)


@dataclass(frozen=True)
class ResultValidator:
    """Objective-domain gate: rejects NaN/Inf and out-of-domain values.

    ``lower``/``upper`` optionally bound the physically plausible objective
    domain (throughput cannot be negative, latency cannot exceed the
    timeout...); without bounds only non-finite values are rejected.
    :meth:`check` returns ``None`` for an acceptable value or a short
    reason string — pure arithmetic, no RNG, no state.
    """

    lower: Optional[float] = None
    upper: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise ValueError("lower bound must not exceed upper bound")

    def check(self, value: float) -> Optional[str]:
        """``None`` when the value may reach the optimizer, else the reason."""
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        if self.lower is not None and value < self.lower:
            return "below-domain"
        if self.upper is not None and value > self.upper:
            return "above-domain"
        return None


def build_validator(
    spec: "ResultValidator | bool | None",
) -> Optional[ResultValidator]:
    """Normalise the ``validation=`` argument: ``True`` means defaults."""
    if spec is True:
        return ResultValidator()
    if spec is False or spec is None:
        return None
    return spec


#: The completed run a corruption decision is drawn for.
CorruptionContext = RunContext


@dataclass(frozen=True)
class CorruptionDecision:
    """What a corruption model decided for one measured value.

    ``kind`` is one of ``"nan"``, ``"inf"``, ``"wild"``; :meth:`apply`
    turns the true measurement into the corrupted reading.
    """

    corrupted: bool
    kind: str = ""

    #: Multiplier for ``"wild"`` corruption: far outside any plausible
    #: objective domain, but still finite (only a bounded validator can
    #: catch it — NaN/Inf are caught unconditionally).
    WILD_FACTOR = 1e9

    def apply(self, value: float) -> float:
        if not self.corrupted:
            return value
        if self.kind == "nan":
            return float("nan")
        if self.kind == "inf":
            return float("inf") if value >= 0 else float("-inf")
        return value * self.WILD_FACTOR


#: The shared "measurement is sound" decision (no per-call allocation).
SOUND = CorruptionDecision(corrupted=False)


class CorruptionModel(Perturbation[CorruptionContext, CorruptionDecision]):
    """Base class of the corruption family (domain tag 19)."""

    family = "corruption"
    TAG = (19,)

    @abc.abstractmethod
    def decide(self, context: CorruptionContext) -> CorruptionDecision:
        """Decide whether (and how) the measured value is corrupted."""


class NoCorruptionModel(
    NullPerturbation[CorruptionContext, CorruptionDecision], CorruptionModel
):
    """The ``"none"`` model: every measurement is sound, no RNG consumed."""

    outcome = SOUND


class CorruptResultModel(CorruptionModel):
    """Seeded garbage injection: NaN, infinities, wild readings.

    With probability ``rate`` a measured value is replaced: a third of the
    hits each become NaN, signed infinity, or a wild (finite but absurd)
    reading.  Two draws per decision, unconditionally, so the stream
    position never depends on earlier outcomes.
    """

    name = "corrupt_result"

    def __init__(self, seed: Optional[int] = None, rate: float = 0.05) -> None:
        super().__init__(seed=seed)
        self.rate = checked_rate(rate)

    def decide(self, context: CorruptionContext) -> CorruptionDecision:
        rng = self._stream(context)
        hit = rng.random() < self.rate
        mode = float(rng.random())
        if not hit:
            return SOUND
        if mode < 1.0 / 3.0:
            kind = "nan"
        elif mode < 2.0 / 3.0:
            kind = "inf"
        else:
            kind = "wild"
        return CorruptionDecision(corrupted=True, kind=kind)


#: Known model names for :func:`build_corruption_model` (aliases included).
CORRUPTION_MODELS = {
    "none": NoCorruptionModel,
    "corrupt_result": CorruptResultModel,
    "corrupt": CorruptResultModel,
}


def build_corruption_model(
    spec: "CorruptionModel | str | None",
    seed: Optional[int] = None,
    **kwargs: Any,
) -> Optional[CorruptionModel]:
    """Instantiate a corruption model by name (see :func:`repro.faults.base.build`)."""
    return build(spec, CorruptionModel.family, CORRUPTION_MODELS, seed, **kwargs)
