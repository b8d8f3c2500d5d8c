"""Property test: columnar candidate pool == the list-of-Configuration oracle.

``ConfigurationSpace.candidate_pool`` keeps random rows as native columns
and neighbour rows as (incumbent, knob, value), encodes column by column and
reuses each incumbent's encoded row.  ``candidate_pool_oracle`` builds every
candidate as a ``Configuration`` and encodes the list.  On random mixed
spaces both must draw the same random numbers, encode bit-for-bit the same
matrix and materialise equal configurations with equal hashes and the same
Python value types.  With the oracle patched over the method, SMAC and GP
must propose the same configurations.
"""

import numpy as np
import pytest
from candidate_pool_oracle import candidate_pool as oracle_pool
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.configspace import (
    BooleanParameter,
    CategoricalParameter,
    ConfigurationSpace,
    FloatParameter,
    IntegerParameter,
    Parameter,
)
from repro.optimizers import GaussianProcessOptimizer, SMACOptimizer
from repro.systems.postgres.knobs import build_postgres_knob_space


class UnitParameter(Parameter):
    """Scalar-only knob on [0, 1]: exercises the base-class fallbacks."""

    def __init__(self, name):
        super().__init__(name, 0.5)

    def sample(self, rng):
        return float(rng.random())

    def encode(self, value):
        self.validate(value)
        return float(value)

    def decode(self, unit):
        return float(min(max(unit, 0.0), 1.0))

    def neighbour(self, value, rng, scale=0.2):
        return self.decode(value + rng.normal(0.0, scale))

    def validate(self, value):
        if not (0.0 <= value <= 1.0):
            raise ValueError("out of range")


CHOICES = ("a", "b", "lru", 3, 7.5, None, (1, 2))


@st.composite
def knobs(draw, name):
    kind = draw(st.sampled_from(["float", "int", "int2", "cat", "bool", "unit"]))
    log = draw(st.booleans())
    if kind == "float":
        lower = draw(st.floats(0.01, 100.0)) if log else draw(st.floats(-100.0, 100.0))
        width = draw(st.floats(0.01, 1e4))
        return FloatParameter(name, lower, lower + width, log=log)
    if kind in ("int", "int2"):
        lower = draw(st.integers(1 if log else -50, 200))
        # A 2-value range makes most perturbations round back to the base
        # value, which forces the one-step nudge.
        width = 1 if kind == "int2" else draw(st.integers(1, 50_000))
        return IntegerParameter(name, lower, lower + width, log=log)
    if kind == "cat":
        choices = draw(st.lists(st.sampled_from(CHOICES), min_size=2, max_size=5, unique=True))
        return CategoricalParameter(name, choices)
    if kind == "bool":
        return BooleanParameter(name, default=draw(st.booleans()))
    return UnitParameter(name)


@st.composite
def pool_cases(draw):
    n_knobs = draw(st.integers(1, 6))
    space = ConfigurationSpace([draw(knobs(f"k{i}")) for i in range(n_knobs)], seed=0)
    seed = draw(st.integers(0, 2**32 - 1))
    setup = np.random.default_rng(seed)
    incumbents = [space.sample(setup) for _ in range(draw(st.integers(0, 4)))]
    if incumbents and draw(st.booleans()):
        incumbents[0] = space.default_configuration()
    return {
        "space": space,
        "seed": seed,
        "incumbents": incumbents,
        "n_random": draw(st.integers(0, 40)),
        "per_incumbent": draw(st.integers(0, 12)),
        "scale": draw(st.sampled_from([1e-9, 0.1, 0.15, 0.5])),
        "reuse_rows": draw(st.booleans()),
    }


def _same_values(a, b):
    assert a == b
    assert hash(a) == hash(b)
    for name in a:
        assert type(a[name]) is type(b[name]), name
        assert a[name] == b[name], name


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pool_cases())
def test_columnar_pool_matches_list_oracle(case):
    space = case["space"]
    incumbents = case["incumbents"]
    args = (case["n_random"],)
    kwargs = {
        "incumbents": incumbents,
        "per_incumbent": case["per_incumbent"],
        "scale": case["scale"],
    }
    rows = space.encode_batch(incumbents) if case["reuse_rows"] else None

    expected_rng = np.random.default_rng(case["seed"])
    expected = oracle_pool(space, *args, rng=expected_rng, **kwargs)
    rng = np.random.default_rng(case["seed"])
    pool = space.candidate_pool(*args, rng=rng, incumbent_rows=rows, **kwargs)

    assert rng.bit_generator.state == expected_rng.bit_generator.state
    assert len(pool) == len(expected)
    assert pool.X.shape == expected.X.shape
    assert pool.X.tobytes() == expected.X.tobytes()
    configs = pool.configurations()
    assert len(configs) == len(expected)
    for row, want in enumerate(expected.configurations()):
        _same_values(configs[row], want)
        _same_values(pool.configuration(row), want)


def test_pool_rows_out_of_range_raise():
    space = ConfigurationSpace([FloatParameter("x", 0.0, 1.0)], seed=0)
    pool = space.candidate_pool(3, incumbents=[space.default_configuration()], per_incumbent=2)
    assert len(pool) == 5
    for row in (-1, 5):
        with pytest.raises(IndexError):
            pool.configuration(row)


# -- optimizers ---------------------------------------------------------------
WEIGHTS = np.random.default_rng(3).normal(size=21)


def _cost(space, config):
    unit = space.encode(config)
    return float(unit @ WEIGHTS + 0.5 * (unit[0] - 0.3) ** 2)


def _propose(make_optimizer, rounds=8, batch=4):
    """Configurations proposed over ``rounds`` batches of ``batch`` asks."""
    space = build_postgres_knob_space(seed=0)
    optimizer = make_optimizer(space)
    proposed = []
    for _ in range(rounds):
        configs = optimizer.ask_batch(batch)
        proposed.extend(configs)
        optimizer.tell_batch([(c, _cost(space, c), 1.0) for c in configs])
    return proposed, optimizer._rng.bit_generator.state


@pytest.mark.parametrize(
    "make_optimizer",
    [
        lambda space: SMACOptimizer(space, seed=11, n_initial_design=5),
        lambda space: GaussianProcessOptimizer(space, seed=11, n_initial_design=5),
    ],
    ids=["smac", "gp"],
)
def test_optimizer_proposals_match_oracle(monkeypatch, make_optimizer):
    columnar, columnar_state = _propose(make_optimizer)
    with monkeypatch.context() as patch:
        patch.setattr(ConfigurationSpace, "candidate_pool", oracle_pool)
        listed, listed_state = _propose(make_optimizer)
    assert len(columnar) == 32
    for got, want in zip(columnar, listed):
        _same_values(got, want)
    assert columnar_state == listed_state
