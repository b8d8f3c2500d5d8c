"""Reference candidate pool: every candidate built as a ``Configuration``.

``ConfigurationSpace.candidate_pool`` keeps its candidates as native
columns and encodes them column by column, reusing each incumbent's encoded
row.  This module keeps the list path it replaced as the oracle it is
checked against: ``sample_batch`` draws one Python list per knob and builds
one ``Configuration`` per row, ``neighbours`` copies an incumbent's dict
per neighbour and perturbs one knob of each, and ``encode_batch`` encodes
the whole list again, knob by knob.  The per-knob list arithmetic is
written out here as the parameters did it (plus the clamp of decoded floats
to their bounds), so the oracle does not lean on the native primitives it
checks.
"""

import math
from typing import Dict, List

import numpy as np

from repro.configspace import (
    CategoricalParameter,
    Configuration,
    FloatParameter,
    IntegerParameter,
)


def _decode_list(p, units) -> List:
    units = np.clip(np.asarray(units, dtype=float), 0.0, 1.0)
    if p.log:
        raw = np.exp(
            math.log(p.lower) + units * (math.log(p.upper) - math.log(p.lower))
        )
    else:
        raw = p.lower + units * (p.upper - p.lower)
    if isinstance(p, IntegerParameter):
        return np.clip(np.round(raw), p.lower, p.upper).astype(np.int64).tolist()
    # Floats are clamped too: exp(log(...)) can round one ulp past a bound.
    return np.clip(raw, p.lower, p.upper).tolist()


def sample_list(p, n: int, rng: np.random.Generator) -> List:
    """``n`` random values of knob ``p`` as a Python list."""
    if isinstance(p, CategoricalParameter):
        indices = rng.integers(0, len(p.choices), size=n)
        return [p.choices[i] for i in indices.tolist()]
    if isinstance(p, (FloatParameter, IntegerParameter)):
        return _decode_list(p, rng.random(n))
    return [p.decode(u) for u in rng.random(n)]


def neighbour_list(p, value, n: int, rng: np.random.Generator, scale: float) -> List:
    """``n`` perturbations of ``value`` for knob ``p`` as a Python list."""
    if isinstance(p, CategoricalParameter):
        p.validate(value)
        others = [c for c in p.choices if c != value]
        indices = rng.integers(0, len(others), size=n)
        return [others[i] for i in indices.tolist()]
    if not isinstance(p, (FloatParameter, IntegerParameter)):
        return [p.neighbour(value, rng, scale=scale) for _ in range(n)]
    unit = p.encode(value)
    steps = rng.normal(0.0, scale, size=n)
    candidates = _decode_list(p, np.clip(unit + steps, 0.0, 1.0))
    if isinstance(p, IntegerParameter):
        candidates = np.array(candidates, dtype=np.int64)
        stalled = np.flatnonzero(candidates == int(value))
        if stalled.size:
            directions = np.where(rng.random(stalled.size) < 0.5, 1, -1)
            candidates[stalled] = np.clip(int(value) + directions, p.lower, p.upper)
        candidates = candidates.tolist()
    return candidates


def encode_list(p, values: List) -> np.ndarray:
    """Unit-cube encoding of a list of values of knob ``p``."""
    if isinstance(p, CategoricalParameter):
        indices = np.array([p.choices.index(v) for v in values], dtype=float)
        return (indices + 0.5) / len(p.choices)
    if isinstance(p, (FloatParameter, IntegerParameter)):
        return p.encode_array(values)
    return np.array([p.encode(v) for v in values], dtype=float)


def sample_batch(space, n: int, rng: np.random.Generator) -> List[Configuration]:
    if n == 0:
        return []
    columns = [sample_list(p, n, rng) for p in space.parameters]
    return [
        Configuration._from_validated(space, dict(zip(space.names, row)))
        for row in zip(*columns)
    ]


def neighbours(
    space, config: Configuration, n: int, rng: np.random.Generator, scale: float
) -> List[Configuration]:
    if n <= 0:
        return []
    base = config.as_dict()
    for name in space.names:
        space[name].validate(base[name])
    chosen = rng.integers(0, space.dimension, size=n)
    rows: List[Dict] = [dict(base) for _ in range(n)]
    for index, name in enumerate(space.names):
        slots = np.flatnonzero(chosen == index)
        if slots.size == 0:
            continue
        perturbed = neighbour_list(space[name], base[name], slots.size, rng, scale)
        for slot, value in zip(slots.tolist(), perturbed):
            rows[slot][name] = value
    return [Configuration._from_validated(space, values) for values in rows]


def encode_batch(space, configs: List[Configuration]) -> np.ndarray:
    out = np.empty((len(configs), space.dimension), dtype=float)
    for column, name in enumerate(space.names):
        out[:, column] = encode_list(space[name], [config[name] for config in configs])
    return out


class ListCandidatePool:
    """The ``CandidatePool`` interface over a plain list of configurations."""

    def __init__(self, space, configs: List[Configuration]) -> None:
        self.space = space
        self._configs = configs
        self.X = encode_batch(space, configs)

    def __len__(self) -> int:
        return len(self._configs)

    def configuration(self, row: int) -> Configuration:
        return self._configs[row]

    def configurations(self) -> List[Configuration]:
        return list(self._configs)


def candidate_pool(
    space,
    n_random,
    rng=None,
    incumbents=(),
    per_incumbent=0,
    scale=0.2,
    incumbent_rows=None,
) -> ListCandidatePool:
    """Drop-in for ``ConfigurationSpace.candidate_pool`` (same signature, so
    it can be patched over the method); ``incumbent_rows`` is ignored."""
    if n_random < 0:
        raise ValueError("n must be non-negative")
    rng = rng if rng is not None else space._rng
    configs = sample_batch(space, n_random, rng)
    for incumbent in incumbents:
        configs.extend(neighbours(space, incumbent, per_incumbent, rng, scale))
    return ListCandidatePool(space, configs)
