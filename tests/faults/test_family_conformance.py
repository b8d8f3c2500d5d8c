"""One contract, four fault families.

Every fault family — duration (``FaultModel``), crash, partition and
corruption — derives from :class:`repro.faults.base.Perturbation`, so each
must honour the same contract: a null model that is ``is_null`` and draws
nothing, a registry builder that passes instances and ``None`` through and
rejects unknown names and other families' models, and (for the families
that have one) a composite that is null iff all its members are and that
draws from every member on every decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
import pytest

from repro.core.validation import (
    CORRUPTION_MODELS,
    SOUND,
    CorruptionContext,
    CorruptionModel,
    CorruptResultModel,
    NoCorruptionModel,
    build_corruption_model,
)
from repro.faults import (
    CRASH_MODELS,
    FAULT_MODELS,
    PARTITION_MODELS,
    BrownoutModel,
    CompositeCrashModel,
    CompositeFaultModel,
    CompositePartitionModel,
    CrashContext,
    CrashModel,
    FaultContext,
    FaultModel,
    FlakyReconnectModel,
    InterferenceBurstModel,
    LognormalTailModel,
    NoCrashModel,
    NodeDeathModel,
    NoFaultModel,
    NoPartitionModel,
    PartitionContext,
    PartitionModel,
    PartitionOutageModel,
    StallModel,
    TransientCrashModel,
    build_crash_model,
    build_fault_model,
    build_partition_model,
)
from repro.faults.crash import SURVIVES
from repro.faults.partition import RESPONSIVE


@dataclass(frozen=True)
class Family:
    name: str
    base: type
    null: type
    null_outcome: object
    registry: Dict[str, type]
    #: The documented registry: every name (aliases included) -> class.
    documented: Dict[str, type]
    build: Callable
    context: Callable
    decide: str
    composite: Optional[type]
    #: An always-firing member and an independent one, for composites.
    hot: Callable
    member: Callable


def _fault_ctx(start=0.0, speculative=False):
    return FaultContext("worker-0", start, 0.5, 2, 10, speculative)


FAMILIES = [
    Family(
        name="fault",
        base=FaultModel,
        null=NoFaultModel,
        null_outcome=1.0,
        registry=FAULT_MODELS,
        documented={
            "none": NoFaultModel,
            "lognormal": LognormalTailModel,
            "heavy-tail": LognormalTailModel,
            "interference": InterferenceBurstModel,
            "brownout": BrownoutModel,
        },
        build=build_fault_model,
        context=_fault_ctx,
        decide="stretch",
        composite=CompositeFaultModel,
        hot=lambda: LognormalTailModel(seed=11, rate=1.0),
        member=lambda: InterferenceBurstModel(seed=4, base_rate=0.5),
    ),
    Family(
        name="crash",
        base=CrashModel,
        null=NoCrashModel,
        null_outcome=SURVIVES,
        registry=CRASH_MODELS,
        documented={
            "none": NoCrashModel,
            "transient": TransientCrashModel,
            "node-death": NodeDeathModel,
            "weibull": NodeDeathModel,
            "mtbf": NodeDeathModel,
        },
        build=build_crash_model,
        context=lambda start=0.0, speculative=False: CrashContext(
            "worker-0", start, 1.0, speculative
        ),
        decide="decide",
        composite=CompositeCrashModel,
        hot=lambda: TransientCrashModel(seed=11, rate=1.0),
        member=lambda: TransientCrashModel(seed=4, rate=0.5),
    ),
    Family(
        name="partition",
        base=PartitionModel,
        null=NoPartitionModel,
        null_outcome=RESPONSIVE,
        registry=PARTITION_MODELS,
        documented={
            "none": NoPartitionModel,
            "stall": StallModel,
            "partition": PartitionOutageModel,
            "outage": PartitionOutageModel,
            "flaky": FlakyReconnectModel,
            "reconnect": FlakyReconnectModel,
        },
        build=build_partition_model,
        context=lambda start=0.0, speculative=False: PartitionContext(
            "worker-0", start, 1.0, speculative
        ),
        decide="decide",
        composite=CompositePartitionModel,
        hot=lambda: PartitionOutageModel(seed=11, rate=1.0),
        member=lambda: StallModel(seed=4, rate=0.5),
    ),
    Family(
        name="corruption",
        base=CorruptionModel,
        null=NoCorruptionModel,
        null_outcome=SOUND,
        registry=CORRUPTION_MODELS,
        documented={
            "none": NoCorruptionModel,
            "corrupt_result": CorruptResultModel,
            "corrupt": CorruptResultModel,
        },
        build=build_corruption_model,
        context=lambda start=0.0, speculative=False: CorruptionContext(
            "worker-0", start, 1.0, speculative
        ),
        decide="decide",
        composite=None,
        hot=lambda: CorruptResultModel(seed=11, rate=1.0),
        member=lambda: CorruptResultModel(seed=4, rate=0.5),
    ),
]
COMPOSITE_FAMILIES = [f for f in FAMILIES if f.composite is not None]


def _ids(families):
    return [f.name for f in families]


def _decide(family, model, **context):
    return getattr(model, family.decide)(family.context(**context))


@pytest.mark.parametrize("family", FAMILIES, ids=_ids(FAMILIES))
class TestFamilyContract:
    def test_null_model_is_null_and_draws_nothing(self, family):
        model = family.build("none", seed=3)
        assert type(model) is family.null
        assert model.is_null
        for i in range(50):
            for speculative in (False, True):
                decision = _decide(
                    family, model, start=float(i), speculative=speculative
                )
                assert decision == family.null_outcome
        # Structural inertness, not merely behavioural: no stream exists.
        assert model._streams == {}

    def test_active_models_are_not_null(self, family):
        assert not family.hot().is_null

    def test_registry_is_the_documented_one(self, family):
        assert family.registry == family.documented
        for name, cls in family.documented.items():
            model = family.build(name, seed=1)
            assert type(model) is cls
            assert isinstance(model, family.base)
            if cls is not family.null:
                assert model._seed == 1
            assert type(family.build(name.upper(), seed=1)) is cls

    def test_instances_and_none_pass_through(self, family):
        assert family.build(None) is None
        model = family.member()
        assert family.build(model) is model

    def test_unknown_name_raises_key_error(self, family):
        with pytest.raises(KeyError, match=f"unknown {family.name} model"):
            family.build("cosmic-rays")

    def test_other_family_models_raise_type_error(self, family):
        for other in FAMILIES:
            if other is family:
                continue
            with pytest.raises(TypeError, match=f"expected a {family.name} model"):
                family.build(other.member())


@pytest.mark.parametrize("family", COMPOSITE_FAMILIES, ids=_ids(COMPOSITE_FAMILIES))
class TestCompositeContract:
    def test_null_iff_all_members_null(self, family):
        null = family.null
        assert family.composite([null()]).is_null
        assert family.composite([null(), null()]).is_null
        assert not family.composite([null(), family.member()]).is_null
        assert not family.composite([family.hot(), family.member()]).is_null

    def test_needs_at_least_one_member(self, family):
        with pytest.raises(ValueError):
            family.composite([])

    def test_rejects_other_family_members(self, family):
        for other in FAMILIES:
            if other is family:
                continue
            with pytest.raises(TypeError, match=f"{family.name} composite"):
                family.composite([family.member(), other.member()])

    def test_every_member_draws_unconditionally(self, family):
        """Member stream positions must not depend on sibling outcomes."""
        solo = family.member()
        member = family.member()
        composite = family.composite([family.hot(), member])
        for i in range(30):
            _decide(family, solo, start=float(i))
            _decide(family, composite, start=float(i))
        # After 30 composite decisions the member's stream sits exactly
        # where the solo model's does.
        assert _decide(family, member, start=99.0) == _decide(
            family, solo, start=99.0
        )
        assert np.array_equal(
            member.stream_for("worker-0").random(4),
            solo.stream_for("worker-0").random(4),
        )
