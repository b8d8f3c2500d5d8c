"""One base for the four fault families: seeded per-worker perturbations.

Duration stretches (:mod:`repro.faults.models`), crashes
(:mod:`repro.faults.crash`), silences (:mod:`repro.faults.partition`) and
corrupted results (:mod:`repro.core.validation`) are all a
:class:`Perturbation`: one decision drawn per submitted run.  Each model
owns one lazily derived stream per ``(worker, channel)``, seeded by
``SeedSequence([seed, crc32(worker), *TAG, channel])`` — the family's domain
``TAG`` decorrelates families built from one master seed, and channel 1
carries speculative duplicates so mitigation never shifts regular draws.
The null model draws nothing (injecting it is bit-for-bit an uninjected
run); a composite's members all draw on every decision before the family's
:meth:`~CompositePerturbation.combine` rule picks the outcome.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeGuard,
    TypeVar,
)

import numpy as np

C = TypeVar("C")
D = TypeVar("D")
P = TypeVar("P", bound="Perturbation[Any, Any]")


@dataclass(frozen=True)
class RunContext:
    """The scheduled window of one run (crash, partition and corruption).

    ``duration_hours`` is the window the event loop simulates: after any
    stretch and, for silence and corruption, up to the failure instant of a
    run a crash model already killed.  ``speculative`` runs draw from the
    worker's channel 1.
    """

    worker_id: str
    start_hours: float
    duration_hours: float
    speculative: bool = False

    @property
    def finish_hours(self) -> float:
        return self.start_hours + self.duration_hours


class Perturbation(abc.ABC, Generic[C, D]):
    """Base class: seeded per-worker RNG streams + the decision interface."""

    name = "abstract"
    #: Family label used in builder, composite and guard error messages.
    family = "perturbation"
    #: SeedSequence domain tag between the worker hash and the channel.
    TAG: Tuple[int, ...] = ()

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = 0 if seed is None else int(seed)
        self._streams: Dict[Tuple[str, int], np.random.Generator] = {}

    @property
    def is_null(self) -> bool:
        """True when the model never perturbs anything and draws no RNG."""
        return False

    def _derive(self, worker_id: str, *words: int) -> np.random.Generator:
        """A generator seeded by ``[seed, crc32(worker_id), *words]``."""
        entropy = np.random.SeedSequence(
            [self._seed, zlib.crc32(worker_id.encode("utf-8")), *words]
        )
        return np.random.default_rng(entropy)

    def stream_for(self, worker_id: str, channel: int = 0) -> np.random.Generator:
        """A worker's private stream on ``channel`` (lazily derived, cached)."""
        key = (worker_id, channel)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = self._derive(worker_id, *self.TAG, channel)
        return stream

    def _stream(self, context: Any) -> np.random.Generator:
        """The stream a draw for this submission's context comes from."""
        return self.stream_for(context.worker_id, 1 if context.speculative else 0)

    @abc.abstractmethod
    def decide(self, context: C) -> D:
        """The family's outcome for one submitted run."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(seed={self._seed})"


class NullPerturbation(Perturbation[C, D]):
    """The ``"none"`` model: always the family's null ``outcome``, no RNG."""

    name = "none"
    outcome: D

    @property
    def is_null(self) -> bool:
        return True

    def decide(self, context: C) -> D:
        return self.outcome


class CompositePerturbation(Perturbation[C, D]):
    """Several models of one family at once, merged by :meth:`combine`."""

    name = "composite"

    def __init__(self, models: Sequence[Perturbation[C, D]]) -> None:
        if not models:
            raise ValueError("composite needs at least one model")
        for model in models:
            if not isinstance(model, Perturbation) or model.family != self.family:
                raise TypeError(
                    f"a {self.family} composite takes {self.family} models, got {model!r}"
                )
        super().__init__(seed=0)
        self.models = list(models)

    @property
    def is_null(self) -> bool:
        return all(model.is_null for model in self.models)

    def decide(self, context: C) -> D:
        # Every member draws unconditionally: stream positions never depend
        # on which member's outcome wins.
        return self.combine([model.decide(context) for model in self.models])

    @abc.abstractmethod
    def combine(self, decisions: List[D]) -> D:
        """The family's rule for merging the members' decisions."""


def checked_rate(value: float, name: str = "rate") -> float:
    """``value`` as a float; :class:`ValueError` unless it lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1]")
    return float(value)


def armed(model: Optional[P]) -> TypeGuard[P]:
    """True when a model is injected and is not a null model."""
    return model is not None and not model.is_null


def build(
    spec: "P | str | None",
    family: str,
    registry: Mapping[str, Type[P]],
    seed: Optional[int] = None,
    **kwargs: Any,
) -> Optional[P]:
    """Instantiate a model of the ``family`` label by registry name.

    Models of the family and ``None`` (nothing injected) pass through;
    ``"none"`` builds the null model, which ignores seed and kwargs and is
    behaviourally identical to ``None``.  An unknown name raises
    :class:`KeyError`, another family's model :class:`TypeError`.
    """
    if spec is None:
        return None
    if isinstance(spec, Perturbation):
        if spec.family != family:
            raise TypeError(
                f"expected a {family} model, got the {spec.family} model {spec!r}"
            )
        return spec
    name = str(spec).lower()
    if name not in registry:
        raise KeyError(f"unknown {family} model {spec!r}; known: {sorted(registry)}")
    cls = registry[name]
    return cls() if issubclass(cls, NullPerturbation) else cls(seed=seed, **kwargs)
