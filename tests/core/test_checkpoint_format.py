"""Tests for the compact checkpoint encoding.

:meth:`TuningLoop.checkpoint` writes through :func:`dump_checkpoint`, which
stores every PCG64-backed ``np.random.Generator`` as its four state words
and leaves every other object to the default pickling (forests compact
themselves, see ``tests/ml/test_forest_pickle.py``).  ``resume`` stays a
plain ``pickle.load``, so checkpoints written before the compact encoding
still load — checked here against an emulation of that writer.
"""

import copyreg
import io
import pickle

import numpy as np
import pytest

from repro.cloud import Cluster
from repro.core import ExecutionEngine, StudyInterrupted, TunaSampler, TuningLoop
from repro.core import tuner as tuner_module
from repro.core.tuner import dump_checkpoint
from repro.ml.forest import RandomForestRegressor, _FlatForest
from repro.ml.tree import DecisionTreeRegressor
from repro.optimizers import SMACOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


def round_trip(obj):
    return pickle.loads(dump_checkpoint(obj))


class TestGeneratorEncoding:
    def test_buffered_half_continues_bit_identically(self):
        rng = np.random.default_rng(2024)
        rng.random(5)
        # An odd number of 32-bit draws leaves half a 64-bit word buffered.
        for _ in range(3):
            rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        restored = round_trip(rng)
        assert restored is not rng
        assert restored.bit_generator.state == rng.bit_generator.state
        for _ in range(3):
            assert restored.integers(0, 2**32, dtype=np.uint32) == rng.integers(
                0, 2**32, dtype=np.uint32
            )
        np.testing.assert_array_equal(restored.random(16), rng.random(16))
        np.testing.assert_array_equal(
            restored.normal(size=7), rng.normal(size=7)
        )

    def test_pcg64_is_written_as_state_words(self):
        payload = dump_checkpoint(np.random.default_rng(1))
        assert b"_pcg64_generator" in payload
        assert b"__generator_ctor" not in payload
        assert len(payload) < len(
            pickle.dumps(np.random.default_rng(1), protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_other_bit_generators_keep_default_pickling(self):
        rng = np.random.Generator(np.random.Philox(7))
        rng.random(3)
        payload = dump_checkpoint(rng)
        assert b"_pcg64_generator" not in payload
        restored = pickle.loads(payload)
        assert isinstance(restored.bit_generator, np.random.Philox)
        np.testing.assert_array_equal(restored.random(8), rng.random(8))

    def test_shared_generator_loads_as_one_object(self):
        rng = np.random.default_rng(5)
        restored = round_trip({"a": rng, "b": [rng, rng]})
        assert restored["a"] is restored["b"][0] is restored["b"][1]


# ------------------------------------------------------- legacy checkpoints
def _legacy_state(obj):
    """The instance dict the writer before the compact encoding stored."""
    state = obj.__dict__.copy()
    if isinstance(obj, RandomForestRegressor):
        # Forests then held their per-tree views eagerly, as ``trees_``.
        del state["_trees"]
        state["trees_"] = obj.trees_
    if isinstance(obj, DecisionTreeRegressor):
        # Trees then held an eager feature-subsampling stream.
        seed = state.pop("_seed")
        stream = state.pop("_rng_stream")
        state["_rng"] = stream if stream is not None else np.random.default_rng(seed)
    return copyreg.__newobj__, (type(obj),), state


def legacy_dumps(obj):
    """Plain ``pickle.dumps``, with forests and trees written in full.

    Generators take numpy's own encoding; forests carry their per-tree
    ``trees_`` and the stacked table its ``_child`` array, as the older
    writer stored them.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    table = copyreg.dispatch_table.copy()
    for cls in (RandomForestRegressor, _FlatForest, DecisionTreeRegressor):
        table[cls] = _legacy_state
    pickler.dispatch_table = table
    pickler.dump(obj)
    return buffer.getvalue()


def make_smac_sampler(seed=4):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=10, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    optimizer = SMACOptimizer(
        system.knob_space,
        seed=seed,
        n_initial_design=4,
        n_candidates=60,
        n_local=10,
        n_trees=6,
    )
    return TunaSampler(optimizer, execution, cluster, seed=seed)


def trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget, s.crashed)
        for s in sampler.datastore.all_samples()
    ]


LOOP_KWARGS = dict(max_samples=36, batch_size=4)


def test_legacy_checkpoint_resumes_bit_for_bit(tmp_path, monkeypatch):
    reference = make_smac_sampler()
    ref_result = TuningLoop(reference, **LOOP_KWARGS).run()

    payloads = []

    def legacy_writer(obj):
        payloads.append(legacy_dumps(obj))
        return payloads[-1]

    monkeypatch.setattr(tuner_module, "dump_checkpoint", legacy_writer)
    log = str(tmp_path / "events.jsonl")
    with pytest.raises(StudyInterrupted):
        TuningLoop(
            make_smac_sampler(),
            event_log=log,
            checkpoint_path=str(tmp_path / "study.ckpt"),
            stop_after_waves=4,
            **LOOP_KWARGS,
        ).run()
    monkeypatch.undo()
    # The checkpoint really is in the old layout: numpy's Generator
    # encoding and per-tree objects inside the fitted forests.
    assert b"__generator_ctor" in payloads[-1]
    assert b"_pcg64_generator" not in payloads[-1]
    assert b"DecisionTreeRegressor" in payloads[-1]

    loop = TuningLoop.resume(log)
    result = loop.run()
    assert trajectory(loop.sampler) == trajectory(reference)
    assert result.wall_clock_hours == ref_result.wall_clock_hours
    assert result.best_config == ref_result.best_config


def test_compact_checkpoint_resumes_bit_for_bit(tmp_path):
    reference = make_smac_sampler()
    TuningLoop(reference, **LOOP_KWARGS).run()
    log = str(tmp_path / "events.jsonl")
    ckpt = tmp_path / "study.ckpt"
    with pytest.raises(StudyInterrupted):
        TuningLoop(
            make_smac_sampler(),
            event_log=log,
            checkpoint_path=str(ckpt),
            stop_after_waves=4,
            **LOOP_KWARGS,
        ).run()
    payload = ckpt.read_bytes()
    assert b"_pcg64_generator" in payload
    assert b"__generator_ctor" not in payload
    assert b"DecisionTreeRegressor" not in payload
    loop = TuningLoop.resume(log)
    loop.run()
    assert trajectory(loop.sampler) == trajectory(reference)
