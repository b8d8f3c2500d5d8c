"""Configuration spaces: ordered collections of typed parameters."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace.configuration import Configuration
from repro.configspace.parameters import Parameter


class ConfigurationSpace:
    """An ordered set of knobs with sampling and encoding helpers.

    The order of parameters is the order in which they are added and defines
    the column order of the unit-cube encoding consumed by surrogate models.
    """

    def __init__(self, parameters: Optional[Iterable[Parameter]] = None, seed: Optional[int] = None) -> None:
        self._parameters: Dict[str, Parameter] = {}
        # detlint DET001 audit: every production caller (samplers, optimizers,
        # experiments) threads an explicit seed or passes its own Generator to
        # sample()/neighbours(); seed=None is the documented interactive
        # opt-in to ambient entropy, not a reproducibility path.
        self._rng = np.random.default_rng(seed)
        if parameters is not None:
            for parameter in parameters:
                self.add(parameter)

    # -- construction ------------------------------------------------------
    def add(self, parameter: Parameter) -> "ConfigurationSpace":
        if not isinstance(parameter, Parameter):
            raise TypeError("can only add Parameter instances")
        if parameter.name in self._parameters:
            raise ValueError(f"duplicate parameter name: {parameter.name}")
        self._parameters[parameter.name] = parameter
        return self

    # -- basic accessors ------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return list(self._parameters.keys())

    @property
    def parameters(self) -> List[Parameter]:
        return list(self._parameters.values())

    def __getitem__(self, name: str) -> Parameter:
        return self._parameters[name]

    def __contains__(self, name: str) -> bool:
        return name in self._parameters

    def __len__(self) -> int:
        return len(self._parameters)

    @property
    def dimension(self) -> int:
        """Number of knobs (== dimensionality of the unit-cube encoding)."""
        return len(self._parameters)

    # -- configurations ------------------------------------------------------
    def default_configuration(self) -> Configuration:
        return Configuration(self, {p.name: p.default for p in self.parameters})

    def configuration(self, values: Dict) -> Configuration:
        """Build a configuration from a complete dict of knob values."""
        return Configuration(self, values)

    def partial_configuration(self, **overrides) -> Configuration:
        """Default configuration with some knobs overridden."""
        values = {p.name: p.default for p in self.parameters}
        values.update(overrides)
        return Configuration(self, values)

    def sample(self, rng: Optional[np.random.Generator] = None) -> Configuration:
        rng = rng if rng is not None else self._rng
        return Configuration(self, {p.name: p.sample(rng) for p in self.parameters})

    def sample_batch(self, n: int, rng: Optional[np.random.Generator] = None) -> List[Configuration]:
        """Draw ``n`` random configurations, one columnar draw per knob."""
        return self.candidate_pool(n, rng).configurations()

    def candidate_pool(
        self,
        n_random: int,
        rng: Optional[np.random.Generator] = None,
        incumbents: Sequence[Configuration] = (),
        per_incumbent: int = 0,
        scale: float = 0.2,
        incumbent_rows: Optional[np.ndarray] = None,
    ) -> "CandidatePool":
        """Random configurations plus single-knob perturbations of incumbents.

        The ``n_random`` random rows are drawn first, one native column per
        knob.  Then, per incumbent, the perturbed knob of each of its
        ``per_incumbent`` neighbours is drawn, and all neighbours that share
        a knob are perturbed with one ``neighbour_native`` call, in knob
        order.  ``incumbent_rows``, when given, are the incumbents' encoded
        rows (e.g. from the surrogate's training matrix); the pool reuses
        them as the unchanged part of each neighbour's encoding.
        """
        if n_random < 0:
            raise ValueError("n must be non-negative")
        rng = rng if rng is not None else self._rng
        parameters = self.parameters
        columns = [p.sample_native(n_random, rng) for p in parameters] if n_random else []
        if per_incumbent <= 0:
            incumbents = []
        knobs: List[np.ndarray] = []
        perturbed: Dict[int, Tuple[List[np.ndarray], List[np.ndarray]]] = {}
        for offset, config in enumerate(incumbents):
            # The neighbours are built without per-configuration
            # re-validation, so the base values must be legal *in this
            # space* (the config may come from a structurally identical
            # space with different bounds).
            for p in parameters:
                p.validate(config[p.name])
            chosen = rng.integers(0, self.dimension, size=per_incumbent)
            knobs.append(chosen)
            # The distinct knobs in ascending order, as ``np.unique`` gives
            # them; a plain ``np.unique`` would import ``numpy.ma`` mid-study.
            for knob in np.flatnonzero(np.bincount(chosen)).tolist():
                slots = np.flatnonzero(chosen == knob)
                p = parameters[knob]
                column = p.neighbour_native(config[p.name], slots.size, rng, scale=scale)
                slot_parts, column_parts = perturbed.setdefault(knob, ([], []))
                slot_parts.append(slots + offset * per_incumbent)
                column_parts.append(column)
        return CandidatePool(
            self,
            n_random,
            columns,
            list(incumbents),
            per_incumbent,
            np.concatenate(knobs) if knobs else np.zeros(0, dtype=np.int64),
            {
                knob: (np.concatenate(slots), np.concatenate(column))
                for knob, (slots, column) in perturbed.items()
            },
            incumbent_rows,
        )

    # -- encoding ------------------------------------------------------
    def encode(self, config: Configuration) -> np.ndarray:
        """Encode a configuration into a vector in the unit hypercube."""
        self._check_space(config)
        return np.array(
            [self[name].encode(config[name]) for name in self.names], dtype=float
        )

    def _check_space(self, config: Configuration) -> None:
        if config.space is not self:
            # Allow structurally identical spaces (e.g. rebuilt knob spaces).
            if config.space.names != self.names:
                raise ValueError("configuration does not belong to this space")

    def encode_batch(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Unit-cube encoding of a batch, one columnar op per knob."""
        if not configs:
            return np.zeros((0, self.dimension), dtype=float)
        for config in configs:
            self._check_space(config)
        out = np.empty((len(configs), self.dimension), dtype=float)
        for column, name in enumerate(self.names):
            values = [config[name] for config in configs]
            out[:, column] = self[name].encode_array(values)
        return out

    def decode(self, unit_vector) -> Configuration:
        """Decode a unit-cube vector back into a configuration."""
        vector = np.asarray(unit_vector, dtype=float).ravel()
        if vector.shape[0] != self.dimension:
            raise ValueError(
                f"expected a vector of length {self.dimension}, got {vector.shape[0]}"
            )
        values = {
            name: self[name].decode(vector[i]) for i, name in enumerate(self.names)
        }
        return Configuration(self, values)

    # -- neighbourhoods ------------------------------------------------------
    def neighbour(
        self,
        config: Configuration,
        rng: Optional[np.random.Generator] = None,
        n_changes: int = 1,
        scale: float = 0.2,
    ) -> Configuration:
        """Perturb ``n_changes`` randomly chosen knobs of ``config``."""
        rng = rng if rng is not None else self._rng
        if n_changes < 1:
            raise ValueError("n_changes must be >= 1")
        n_changes = min(n_changes, self.dimension)
        chosen = rng.choice(self.dimension, size=n_changes, replace=False)
        values = config.as_dict()
        for index in chosen:
            name = self.names[int(index)]
            values[name] = self[name].neighbour(values[name], rng, scale=scale)
        return Configuration(self, values)

    def neighbours(
        self,
        config: Configuration,
        n: int,
        rng: Optional[np.random.Generator] = None,
        scale: float = 0.2,
    ) -> List[Configuration]:
        """A list of ``n`` single-knob perturbations of ``config``.

        The perturbed knob is drawn per neighbour, then all neighbours that
        share a knob are perturbed with one columnar ``neighbour_native``
        call on that knob's parameter.
        """
        return self.candidate_pool(0, rng, [config], n, scale=scale).configurations()


class CandidatePool:
    """A batch of candidate configurations held as columns.

    Built by :meth:`ConfigurationSpace.candidate_pool`.  Rows
    ``[0, n_random)`` are random configurations, kept as one native column
    per knob (see :mod:`repro.configspace.parameters`).  Row
    ``n_random + j`` perturbs knob ``knobs[j]`` of incumbent
    ``j // per_incumbent``; the perturbed values are kept per knob as
    ``(neighbour indices, native column)``.  The unit-cube encoding ``X``
    is computed on first use, and only rows that are asked for become
    :class:`Configuration` objects.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        n_random: int,
        columns: List[np.ndarray],
        incumbents: List[Configuration],
        per_incumbent: int,
        knobs: np.ndarray,
        perturbed: Dict[int, Tuple[np.ndarray, np.ndarray]],
        incumbent_rows: Optional[np.ndarray],
    ) -> None:
        self.space = space
        self.n_random = n_random
        self._columns = columns
        self._incumbents = incumbents
        self._per_incumbent = per_incumbent
        self._knobs = knobs
        self._perturbed = perturbed
        self._incumbent_rows = incumbent_rows
        self._X: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.n_random + len(self._knobs)

    @property
    def X(self) -> np.ndarray:
        """Unit-cube encoding of every row, shape ``(len(self), dimension)``."""
        if self._X is None:
            self._X = self._encode()
        return self._X

    def _encode(self) -> np.ndarray:
        parameters = self.space.parameters
        X = np.empty((len(self), self.space.dimension), dtype=float)
        for knob, column in enumerate(self._columns):
            X[: self.n_random, knob] = parameters[knob].encode_native(column)
        if len(self._knobs):
            rows = self._incumbent_rows
            if rows is None:
                rows = self.space.encode_batch(self._incumbents)
            X[self.n_random :] = np.repeat(rows, self._per_incumbent, axis=0)
            for knob, (slots, column) in self._perturbed.items():
                X[self.n_random + slots, knob] = parameters[knob].encode_native(column)
        return X

    def configuration(self, row: int) -> Configuration:
        """Materialise one row as a :class:`Configuration`."""
        if not 0 <= row < len(self):
            raise IndexError(f"row {row} outside a pool of {len(self)}")
        parameters = self.space.parameters
        if row < self.n_random:
            values = {
                p.name: p.to_list(column[row : row + 1])[0]
                for p, column in zip(parameters, self._columns)
            }
        else:
            j = row - self.n_random
            values = self._incumbents[j // self._per_incumbent].as_dict()
            knob = int(self._knobs[j])
            slots, column = self._perturbed[knob]
            at = int(np.searchsorted(slots, j))
            p = parameters[knob]
            values[p.name] = p.to_list(column[at : at + 1])[0]
        return Configuration._from_validated(self.space, values)

    def configurations(self) -> List[Configuration]:
        """Materialise every row, in row order."""
        space = self.space
        names = space.names
        parameters = space.parameters
        lists = [p.to_list(column) for p, column in zip(parameters, self._columns)]
        configs = [
            Configuration._from_validated(space, dict(zip(names, row)))
            for row in zip(*lists)
        ]
        rows = [
            incumbent.as_dict()
            for incumbent in self._incumbents
            for _ in range(self._per_incumbent)
        ]
        for knob, (slots, column) in self._perturbed.items():
            name = names[knob]
            for slot, value in zip(slots.tolist(), parameters[knob].to_list(column)):
                rows[slot][name] = value
        configs.extend(Configuration._from_validated(space, values) for values in rows)
        return configs
