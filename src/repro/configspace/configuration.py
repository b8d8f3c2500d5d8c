"""Immutable configuration objects.

A :class:`Configuration` is a frozen mapping of knob name to value bound to
the :class:`~repro.configspace.space.ConfigurationSpace` it was drawn from.
Configurations hash on their values so that the datastore and schedulers can
use them as dictionary keys (the multi-fidelity scheduler needs to recognise
"the same config promoted to a higher budget").
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

import numpy as np


class Configuration(Mapping):
    """A single assignment of values to every knob in a configuration space."""

    def __init__(self, space, values: Dict) -> None:
        from repro.configspace.space import ConfigurationSpace  # local, avoid cycle

        if not isinstance(space, ConfigurationSpace):
            raise TypeError("space must be a ConfigurationSpace")
        missing = set(space.names) - set(values)
        extra = set(values) - set(space.names)
        if missing:
            raise ValueError(f"configuration missing knobs: {sorted(missing)}")
        if extra:
            raise ValueError(f"configuration has unknown knobs: {sorted(extra)}")
        for name, value in values.items():
            space[name].validate(value)
        self._space = space
        self._values = dict(values)
        self._key = tuple(
            (name, self._normalise(self._values[name])) for name in space.names
        )

    @classmethod
    def _from_validated(cls, space, values: Dict) -> "Configuration":
        """Build a configuration from values known to be complete and legal.

        Used by :class:`~repro.configspace.space.CandidatePool`, where
        values come straight out of a parameter's own ``sample_native`` /
        ``neighbour_native`` columns and re-validating each one per
        configuration would dominate the batch cost.
        """
        config = object.__new__(cls)
        config._space = space
        config._values = dict(values)
        config._key = tuple(
            (name, cls._normalise(config._values[name])) for name in space.names
        )
        return config

    @staticmethod
    def _normalise(value):
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
        return value

    # -- Mapping protocol --------------------------------------------------
    def __getitem__(self, name: str):
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._space.names)

    def __len__(self) -> int:
        return len(self._values)

    # -- identity ------------------------------------------------------------
    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"Configuration({inner})"

    # -- conversions -----------------------------------------------------------
    @property
    def space(self):
        return self._space

    def as_dict(self) -> Dict:
        """Plain dictionary copy of the knob values."""
        return dict(self._values)

    def to_unit_array(self) -> np.ndarray:
        """Encode this configuration into the unit hypercube."""
        return self._space.encode(self)

    def with_updates(self, **updates) -> "Configuration":
        """Return a copy with some knob values replaced."""
        values = dict(self._values)
        values.update(updates)
        return Configuration(self._space, values)
