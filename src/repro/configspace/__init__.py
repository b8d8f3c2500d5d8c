"""Configuration-space substrate.

Every system-under-test exposes its tunable knobs as a
:class:`~repro.configspace.space.ConfigurationSpace` made of typed
parameters.  Configurations can be sampled uniformly, encoded into the unit
hypercube (the representation consumed by the optimizers' surrogate models)
and perturbed into neighbours for SMAC-style local search.
"""

from repro.configspace.parameters import (
    BooleanParameter,
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    Parameter,
)
from repro.configspace.configuration import Configuration
from repro.configspace.space import CandidatePool, ConfigurationSpace

__all__ = [
    "BooleanParameter",
    "CandidatePool",
    "CategoricalParameter",
    "Configuration",
    "ConfigurationSpace",
    "FloatParameter",
    "IntegerParameter",
    "Parameter",
]
