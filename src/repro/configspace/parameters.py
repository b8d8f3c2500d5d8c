"""Typed tunable parameters (knobs).

Each parameter knows how to sample a random value, encode a value into
``[0, 1]`` for surrogate models, decode it back, and produce a nearby
"neighbour" value for local search.  Log-scaled numeric parameters are
supported because most DBMS memory knobs (``shared_buffers``, ``work_mem``,
…) span several orders of magnitude.

Besides the scalar interface, every parameter processes whole batches as
one *native column*: an ndarray of float64 values (floats), int64 values
(integers) or int64 choice positions (categoricals).  ``decode_native``,
``sample_native`` and ``neighbour_native`` produce such columns with one
vectorized operation, ``encode_native`` maps one into ``[0, 1]`` and
``to_list`` turns one into Python values.  The list APIs
(``decode_array``, ``sample_array``, ``neighbour_array``) are thin wrappers
over them.  The candidate pool of the SMAC and GP optimizers
(:meth:`~repro.configspace.space.ConfigurationSpace.candidate_pool`) works
on native columns directly.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np


def _object_column(values: List) -> np.ndarray:
    """A 1-D object array holding ``values`` as they are (no unpacking)."""
    column = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        column[index] = value
    return column


class Parameter:
    """Base class for a single tunable knob."""

    def __init__(self, name: str, default) -> None:
        if not name:
            raise ValueError("parameter name must be non-empty")
        self.name = name
        self.default = default

    # -- interface -------------------------------------------------------
    def sample(self, rng: np.random.Generator):
        """Draw a uniform random legal value."""
        raise NotImplementedError

    def encode(self, value) -> float:
        """Map a legal value into [0, 1]."""
        raise NotImplementedError

    def decode(self, unit: float):
        """Map a [0, 1] scalar back to a legal value."""
        raise NotImplementedError

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2):
        """Return a nearby legal value (for local search)."""
        raise NotImplementedError

    def validate(self, value) -> None:
        """Raise ``ValueError`` if ``value`` is not legal for this knob."""
        raise NotImplementedError

    # -- columnar interface ----------------------------------------------
    # Subclasses override the native primitives with vectorized
    # implementations; the base-class fallbacks build object columns through
    # the scalar interface, which keeps custom Parameter subclasses working.
    def decode_native(self, units: np.ndarray) -> np.ndarray:
        """Decode a batch of ``[0, 1]`` scalars into a native column."""
        return _object_column([self.decode(u) for u in np.asarray(units, dtype=float)])

    def sample_native(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` uniform random legal values as a native column."""
        return self.decode_native(rng.random(n))

    def neighbour_native(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        """``n`` nearby legal values of ``value`` as a native column."""
        return _object_column([self.neighbour(value, rng, scale=scale) for _ in range(n)])

    def encode_native(self, column: np.ndarray) -> np.ndarray:
        """Encode a native column into ``[0, 1]``."""
        return self.encode_array(column)

    def to_list(self, column: np.ndarray) -> List:
        """The Python values held by a native column."""
        return column.tolist()

    def encode_array(self, values: Sequence) -> np.ndarray:
        """Encode a batch of legal values into ``[0, 1]`` (one array op)."""
        return np.array([self.encode(v) for v in values], dtype=float)

    def decode_array(self, units: np.ndarray) -> List:
        """Decode a batch of ``[0, 1]`` scalars back to legal values."""
        return self.to_list(self.decode_native(units))

    def sample_array(self, n: int, rng: np.random.Generator) -> List:
        """Draw ``n`` uniform random legal values."""
        return self.to_list(self.sample_native(n, rng))

    def neighbour_array(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> List:
        """Return ``n`` nearby legal values of ``value`` (for local search)."""
        return self.to_list(self.neighbour_native(value, n, rng, scale=scale))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, default={self.default!r})"


class FloatParameter(Parameter):
    """Continuous knob on ``[lower, upper]``, optionally log-scaled."""

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        default: Optional[float] = None,
        log: bool = False,
    ) -> None:
        if not lower < upper:
            raise ValueError(f"{name}: lower must be < upper")
        if log and lower <= 0:
            raise ValueError(f"{name}: log-scaled parameters require lower > 0")
        self.lower = float(lower)
        self.upper = float(upper)
        self.log = log
        if default is None:
            default = math.sqrt(lower * upper) if log else (lower + upper) / 2.0
        super().__init__(name, float(default))
        self.validate(self.default)

    def validate(self, value) -> None:
        value = float(value)
        if not (self.lower <= value <= self.upper):
            raise ValueError(
                f"{self.name}: value {value} outside [{self.lower}, {self.upper}]"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return self.decode(float(rng.random()))

    def encode(self, value) -> float:
        self.validate(value)
        value = float(value)
        if self.log:
            return (math.log(value) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower)
            )
        return (value - self.lower) / (self.upper - self.lower)

    def decode(self, unit: float) -> float:
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            raw = math.exp(
                math.log(self.lower)
                + unit * (math.log(self.upper) - math.log(self.lower))
            )
        else:
            raw = self.lower + unit * (self.upper - self.lower)
        # exp(log(...)) can round one ulp past a bound (1 and 3 decode unit
        # 1.0 to 3.0000000000000004); clamp so decoded values stay legal.
        return float(min(max(raw, self.lower), self.upper))

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2) -> float:
        unit = self.encode(value)
        step = float(rng.normal(0.0, scale))
        return self.decode(min(max(unit + step, 0.0), 1.0))

    # -- columnar --------------------------------------------------------
    def encode_array(self, values: Sequence) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.size and not (
            np.all(values >= self.lower) and np.all(values <= self.upper)
        ):
            raise ValueError(
                f"{self.name}: batch contains values outside "
                f"[{self.lower}, {self.upper}]"
            )
        if self.log:
            return (np.log(values) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower)
            )
        return (values - self.lower) / (self.upper - self.lower)

    def decode_native(self, units: np.ndarray) -> np.ndarray:
        units = np.clip(np.asarray(units, dtype=float), 0.0, 1.0)
        if self.log:
            raw = np.exp(
                math.log(self.lower)
                + units * (math.log(self.upper) - math.log(self.lower))
            )
        else:
            raw = self.lower + units * (self.upper - self.lower)
        return np.clip(raw, self.lower, self.upper)

    def neighbour_native(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        unit = self.encode(value)
        steps = rng.normal(0.0, scale, size=n)
        return self.decode_native(np.clip(unit + steps, 0.0, 1.0))


class IntegerParameter(Parameter):
    """Integer knob on ``[lower, upper]`` (inclusive), optionally log-scaled."""

    def __init__(
        self,
        name: str,
        lower: int,
        upper: int,
        default: Optional[int] = None,
        log: bool = False,
    ) -> None:
        if not lower < upper:
            raise ValueError(f"{name}: lower must be < upper")
        if log and lower <= 0:
            raise ValueError(f"{name}: log-scaled parameters require lower > 0")
        self.lower = int(lower)
        self.upper = int(upper)
        self.log = log
        if default is None:
            default = (
                int(round(math.sqrt(lower * upper))) if log else (lower + upper) // 2
            )
        super().__init__(name, int(default))
        self.validate(self.default)

    def validate(self, value) -> None:
        if int(value) != value:
            raise ValueError(f"{self.name}: value {value!r} is not an integer")
        value = int(value)
        if not (self.lower <= value <= self.upper):
            raise ValueError(
                f"{self.name}: value {value} outside [{self.lower}, {self.upper}]"
            )

    def sample(self, rng: np.random.Generator) -> int:
        return self.decode(float(rng.random()))

    def encode(self, value) -> float:
        self.validate(value)
        value = int(value)
        if self.log:
            return (math.log(value) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower)
            )
        return (value - self.lower) / (self.upper - self.lower)

    def decode(self, unit: float) -> int:
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            raw = math.exp(
                math.log(self.lower)
                + unit * (math.log(self.upper) - math.log(self.lower))
            )
        else:
            raw = self.lower + unit * (self.upper - self.lower)
        return int(min(max(int(round(raw)), self.lower), self.upper))

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2) -> int:
        unit = self.encode(value)
        step = float(rng.normal(0.0, scale))
        candidate = self.decode(min(max(unit + step, 0.0), 1.0))
        if candidate == int(value):
            # Force at least a one-step move so local search cannot stall.
            direction = 1 if rng.random() < 0.5 else -1
            candidate = int(min(max(int(value) + direction, self.lower), self.upper))
        return candidate

    # -- columnar --------------------------------------------------------
    def encode_array(self, values: Sequence) -> np.ndarray:
        values = np.asarray(values)
        as_int = values.astype(np.int64)
        if values.size and not (
            np.all(as_int == values)
            and np.all(as_int >= self.lower)
            and np.all(as_int <= self.upper)
        ):
            raise ValueError(
                f"{self.name}: batch contains non-integers or values outside "
                f"[{self.lower}, {self.upper}]"
            )
        if self.log:
            return (np.log(as_int) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower)
            )
        return (as_int - self.lower) / (self.upper - self.lower)

    def decode_native(self, units: np.ndarray) -> np.ndarray:
        units = np.clip(np.asarray(units, dtype=float), 0.0, 1.0)
        if self.log:
            raw = np.exp(
                math.log(self.lower)
                + units * (math.log(self.upper) - math.log(self.lower))
            )
        else:
            raw = self.lower + units * (self.upper - self.lower)
        # np.round and builtins.round both round half to even, so this
        # matches the scalar decode() exactly.
        return np.clip(np.round(raw), self.lower, self.upper).astype(np.int64)

    def neighbour_native(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        unit = self.encode(value)
        steps = rng.normal(0.0, scale, size=n)
        candidates = self.decode_native(np.clip(unit + steps, 0.0, 1.0))
        stalled = np.flatnonzero(candidates == int(value))
        if stalled.size:
            # Force at least a one-step move so local search cannot stall.
            directions = np.where(rng.random(stalled.size) < 0.5, 1, -1)
            forced = np.clip(int(value) + directions, self.lower, self.upper)
            candidates[stalled] = forced
        return candidates


class CategoricalParameter(Parameter):
    """Unordered categorical knob."""

    def __init__(self, name: str, choices: Sequence, default=None) -> None:
        choices_list: List = list(choices)
        if len(choices_list) < 2:
            raise ValueError(f"{name}: categorical parameters need >= 2 choices")
        for position, choice in enumerate(choices_list):
            for earlier in choices_list[:position]:
                # Choices that compare equal (``1`` and ``True``, ``0`` and
                # ``0.0``) would share one code: lookups by value find the
                # first, so the other could never be encoded or perturbed.
                if repr(choice) == repr(earlier) or choice == earlier:
                    raise ValueError(
                        f"{name}: duplicate choices {earlier!r} and {choice!r}"
                    )
        self.choices = choices_list
        if default is None:
            default = choices_list[0]
        super().__init__(name, default)
        self.validate(self.default)

    def validate(self, value) -> None:
        if value not in self.choices:
            raise ValueError(f"{self.name}: {value!r} not in {self.choices!r}")

    def sample(self, rng: np.random.Generator):
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def encode(self, value) -> float:
        self.validate(value)
        index = self.choices.index(value)
        # Centre of the bucket assigned to this category.
        return (index + 0.5) / len(self.choices)

    def decode(self, unit: float):
        unit = min(max(float(unit), 0.0), 1.0)
        index = min(int(unit * len(self.choices)), len(self.choices) - 1)
        return self.choices[index]

    def neighbour(self, value, rng: np.random.Generator, scale: float = 0.2):
        self.validate(value)
        others = [c for c in self.choices if c != value]
        return others[int(rng.integers(0, len(others)))]

    # -- columnar --------------------------------------------------------
    # A categorical's native column holds choice positions (int64 codes).
    def _index_of(self, value) -> int:
        try:
            return self.choices.index(value)
        except ValueError:
            raise ValueError(f"{self.name}: {value!r} not in {self.choices!r}")

    def encode_native(self, column: np.ndarray) -> np.ndarray:
        return (column + 0.5) / len(self.choices)

    def encode_array(self, values: Sequence) -> np.ndarray:
        return self.encode_native(
            np.array([self._index_of(v) for v in values], dtype=np.int64)
        )

    def decode_native(self, units: np.ndarray) -> np.ndarray:
        units = np.clip(np.asarray(units, dtype=float), 0.0, 1.0)
        return np.minimum(
            (units * len(self.choices)).astype(np.int64), len(self.choices) - 1
        )

    def sample_native(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, len(self.choices), size=n)

    def neighbour_native(
        self, value, n: int, rng: np.random.Generator, scale: float = 0.2
    ) -> np.ndarray:
        self.validate(value)
        # Uniform over the other choices: draw among k - 1 positions and
        # skip over the position of ``value``.
        position = self.choices.index(value)
        draws = rng.integers(0, len(self.choices) - 1, size=n)
        return draws + (draws >= position)

    def to_list(self, column: np.ndarray) -> List:
        return [self.choices[i] for i in column.tolist()]


class BooleanParameter(CategoricalParameter):
    """Boolean knob, encoded as a two-choice categorical."""

    def __init__(self, name: str, default: bool = False) -> None:
        super().__init__(name, choices=[False, True], default=bool(default))

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(rng.integers(0, 2))
