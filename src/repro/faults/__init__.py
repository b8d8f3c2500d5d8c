"""Stochastic interference & straggler fault injection.

The event loop of :mod:`repro.core.async_engine` is deterministic by design:
every sample's duration comes straight from its worker's SKU
``perf_factor``.  Real clouds are not like that — the whole premise of the
source paper is that tuning must survive performance *noise* — so this
subsystem supplies pluggable stochastic duration models the event loop
consults when computing each work item's finish time, plus the straggler
machinery (quantile detection, speculative re-execution policy) the
execution engine uses to mitigate them.

Guarantees:

* **Equivalence** — with the ``"none"`` model (or no model at all) every
  trajectory is bit-for-bit identical to an uninjected run: no RNG is
  consumed, no arithmetic changes.
* **Reproducibility** — every model draws from seeded *per-worker* RNG
  streams (spawned from one master seed keyed by worker id), so a fixed
  seed and submission sequence yield identical stretches regardless of how
  many workers exist or in which order they are queried.

All four fault families — :mod:`repro.faults.models` (duration
stretches), :mod:`repro.faults.crash` (fail-stop crashes: transient mid-run
errors, permanent node death), :mod:`repro.faults.partition` (gray-failure
silences: stalls, partitions, flaky reconnects — reports delayed instead of
runs killed) and :mod:`repro.core.validation` (corrupted results) — derive
from :class:`~repro.faults.base.Perturbation`, which implements both
guarantees once: the per-worker streams (one ``SeedSequence`` domain tag
per family), the ``"none"`` model, the composite and the name registry
builder.  :mod:`repro.faults.straggler` holds detection and speculation.
"""

from repro.faults.crash import (
    CRASH_MODELS,
    CompositeCrashModel,
    CrashContext,
    CrashDecision,
    CrashModel,
    NoCrashModel,
    NodeDeathModel,
    TransientCrashModel,
    build_crash_model,
)
from repro.faults.models import (
    FAULT_MODELS,
    BrownoutModel,
    CompositeFaultModel,
    FaultContext,
    FaultModel,
    InterferenceBurstModel,
    LognormalTailModel,
    NoFaultModel,
    build_fault_model,
)
from repro.faults.partition import (
    PARTITION_MODELS,
    CompositePartitionModel,
    FlakyReconnectModel,
    NoPartitionModel,
    PartitionContext,
    PartitionDecision,
    PartitionModel,
    PartitionOutageModel,
    StallModel,
    build_partition_model,
)
from repro.faults.straggler import SpeculationPolicy, StragglerDetector

__all__ = [
    "CRASH_MODELS",
    "FAULT_MODELS",
    "PARTITION_MODELS",
    "BrownoutModel",
    "CompositeCrashModel",
    "CompositeFaultModel",
    "CompositePartitionModel",
    "CrashContext",
    "CrashDecision",
    "CrashModel",
    "FaultContext",
    "FaultModel",
    "FlakyReconnectModel",
    "InterferenceBurstModel",
    "LognormalTailModel",
    "NoCrashModel",
    "NodeDeathModel",
    "NoFaultModel",
    "NoPartitionModel",
    "PartitionContext",
    "PartitionDecision",
    "PartitionModel",
    "PartitionOutageModel",
    "SpeculationPolicy",
    "StallModel",
    "StragglerDetector",
    "TransientCrashModel",
    "build_crash_model",
    "build_fault_model",
    "build_partition_model",
]
