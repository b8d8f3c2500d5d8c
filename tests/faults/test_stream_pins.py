"""Byte-level pins of every fault family's seeded streams and decisions.

Two properties are pinned for every registered model name (default
kwargs, master seed 5) and for each family's composite:

* ``stream_for(worker, channel)`` is the generator seeded by
  ``SeedSequence([seed, crc32(worker), *TAG, channel])`` with the literal
  domain tags below — and the windowed lognormal draw by
  ``SeedSequence([seed, crc32(worker), 7, window])``;
* a decision trace over 2 workers x 2 channels x 50 fixed contexts hashes
  to a recorded SHA-256 digest.

A refactor of the fault models must leave both unchanged: any shift in a
stream's entropy or in a model's draw order changes every injected study.
"""

from __future__ import annotations

import dataclasses
import hashlib
import zlib

import numpy as np
import pytest

from repro.core.validation import CORRUPTION_MODELS, CorruptionContext
from repro.faults import (
    CRASH_MODELS,
    FAULT_MODELS,
    PARTITION_MODELS,
    CompositeCrashModel,
    CompositeFaultModel,
    CompositePartitionModel,
    CrashContext,
    FaultContext,
    LognormalTailModel,
    PartitionContext,
)

SEED = 5
WORKERS = ("worker-0", "worker-1")
CHANNELS = (0, 1)
N_CONTEXTS = 50

#: family -> (registry, SeedSequence domain tag, context class, decide method)
FAMILIES = {
    "fault": (FAULT_MODELS, (), FaultContext, "stretch"),
    "crash": (CRASH_MODELS, (13,), CrashContext, "decide"),
    "partition": (PARTITION_MODELS, (17,), PartitionContext, "decide"),
    "corruption": (CORRUPTION_MODELS, (19,), CorruptionContext, "decide"),
}

COMPOSITES = {
    "fault": CompositeFaultModel,
    "crash": CompositeCrashModel,
    "partition": CompositePartitionModel,
}

#: SHA-256 of each decision trace (see ``_trace``).  These are recorded
#: values: a digest that changes means every study injecting that model
#: changes trajectory.
GOLDEN = {
    ("fault", "none"): (
        "d83f91348064d2badeec615730ea4b7d8936583eb11e65a6f26ac06b3d2a996b"
    ),
    ("fault", "lognormal"): (
        "44fd044eaa9474798fefbb9c67c875c33c5f91f192f7f0caad8a5c991fbdce5a"
    ),
    ("fault", "heavy-tail"): (
        "44fd044eaa9474798fefbb9c67c875c33c5f91f192f7f0caad8a5c991fbdce5a"
    ),
    ("fault", "interference"): (
        "baa0578349c5b014287c6ab92de00e9e21d414558491cbc7c87421045b274609"
    ),
    ("fault", "brownout"): (
        "32eeafea0c16cd950318396af819714625b1e0ec80f6c020ff874d574dfa99c4"
    ),
    ("fault", "lognormal-windowed"): (
        "99e9c5fb529fef6fdd09ab2e72084eef17b29b62562e67967131a3d27664ee5a"
    ),
    ("fault", "composite"): (
        "e8549235d1ebb6edbcdabc2b1e84ab730dc56d305f0e7020f60ddd877204e52c"
    ),
    ("crash", "none"): (
        "a3b211799202749d5bee596c3767f46df765c46ec48ed8f796d2d50e69da50cf"
    ),
    ("crash", "transient"): (
        "195f7dff3aea957f8fcb038213f9761ff4f2574308b9ab00b7515bcac6391f6d"
    ),
    ("crash", "node-death"): (
        "d975cb02bed275a4386c2389db28ebd0b96bac1638dd5f20953234a8c08e9280"
    ),
    ("crash", "weibull"): (
        "d975cb02bed275a4386c2389db28ebd0b96bac1638dd5f20953234a8c08e9280"
    ),
    ("crash", "mtbf"): (
        "d975cb02bed275a4386c2389db28ebd0b96bac1638dd5f20953234a8c08e9280"
    ),
    ("crash", "composite"): (
        "0c1adc1dcecab647fcb4a2fccf874ca4328a133c7cffae69e7f4750f512574ec"
    ),
    ("partition", "none"): (
        "2e57e377265df8ac9e85270e42fdb67d641a7be4d4e9aa909ad170a9a2677842"
    ),
    ("partition", "stall"): (
        "270eed2319b2717c7d7519f6c8d536ba2d966f44b8ca0c865ec5925e63ea8599"
    ),
    ("partition", "partition"): (
        "b82b697b7962394d62410d0e176ec22a88d460fe8fe2101c298720d7f2ef4860"
    ),
    ("partition", "outage"): (
        "b82b697b7962394d62410d0e176ec22a88d460fe8fe2101c298720d7f2ef4860"
    ),
    ("partition", "flaky"): (
        "5524c721db4210b9df9223fe0578e93e3f720ceeae667e2ae6a3da2bc42ac76b"
    ),
    ("partition", "reconnect"): (
        "5524c721db4210b9df9223fe0578e93e3f720ceeae667e2ae6a3da2bc42ac76b"
    ),
    ("partition", "composite"): (
        "4f8892f26a5081dd0a67ee457db62f4b0a004f991cbecbe47dc0aacb66f46b97"
    ),
    ("corruption", "none"): (
        "53d11893e96a5b0c474f742ad82db7ad94d8eb70d7fca7d2e00fe10be308522d"
    ),
    ("corruption", "corrupt_result"): (
        "3c34e053b6c0280f24a5cb6da887d762af2cbb96d6053ba1d2517aac262a8a6a"
    ),
    ("corruption", "corrupt"): (
        "3c34e053b6c0280f24a5cb6da887d762af2cbb96d6053ba1d2517aac262a8a6a"
    ),
}


def _build(family, name):
    registry = FAMILIES[family][0]
    if name == "lognormal-windowed":
        return LognormalTailModel(seed=SEED, window_hours=0.5)
    if name == "composite":
        members = [
            cls(seed=SEED)
            for key, cls in sorted(registry.items())
            if key != "none" and key == cls.name
        ]
        return COMPOSITES[family](members)
    return registry[name](seed=SEED)


def _context(family, worker, channel, i):
    start = 1.3 * i
    duration = 0.1 + 0.05 * (i % 7)
    cls = FAMILIES[family][2]
    if family == "fault":
        return cls(
            worker_id=worker,
            start_hours=start,
            duration_hours=duration,
            concurrent_items=i % 10,
            n_workers=10,
            speculative=channel == 1,
        )
    return cls(
        worker_id=worker,
        start_hours=start,
        duration_hours=duration,
        speculative=channel == 1,
    )


def _encode(decision):
    if isinstance(decision, float):
        return decision.hex()
    return repr(dataclasses.astuple(decision))


def _trace(family, name):
    model = _build(family, name)
    decide = getattr(model, FAMILIES[family][3])
    lines = []
    for i in range(N_CONTEXTS):
        for worker in WORKERS:
            for channel in CHANNELS:
                decision = decide(_context(family, worker, channel, i))
                lines.append(f"{worker}|{channel}|{i}|{_encode(decision)}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _expected_rng(seed, worker, tag, channel):
    entropy = np.random.SeedSequence(
        [seed, zlib.crc32(worker.encode("utf-8")), *tag, channel]
    )
    return np.random.default_rng(entropy)


@pytest.mark.parametrize("family,name", sorted(GOLDEN))
def test_stream_for_entropy_is_pinned(family, name):
    tag = FAMILIES[family][1]
    model = _build(family, name)
    # A composite owns streams of its own too (master seed 0, never drawn).
    seed = 0 if name == "composite" else SEED
    for worker in WORKERS:
        for channel in CHANNELS:
            got = model.stream_for(worker, channel).random(8)
            want = _expected_rng(seed, worker, tag, channel).random(8)
            assert got.tolist() == want.tolist()


def test_windowed_lognormal_draw_is_pinned():
    model = LognormalTailModel(seed=SEED, window_hours=0.5)
    for worker in WORKERS:
        for start in (0.0, 0.49, 0.5, 3.7):
            context = FaultContext(
                worker_id=worker, start_hours=start, duration_hours=0.1
            )
            got = model._window_rng(context, 0.5).random(4)
            want = _expected_rng(SEED, worker, (7,), int(start // 0.5)).random(4)
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("family,name", sorted(GOLDEN))
def test_decision_trace_matches_golden_digest(family, name):
    assert _trace(family, name) == GOLDEN[(family, name)]


def test_golden_table_covers_every_registered_name():
    names = {
        (family, name) for family, spec in FAMILIES.items() for name in spec[0]
    }
    assert names <= set(GOLDEN)
