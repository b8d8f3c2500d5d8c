"""Tests for the durable event log and checkpoint/resume.

The headline guarantee: a study killed at *any* wave boundary and resumed
from its checkpoint reproduces the uninterrupted run's trajectory
bit-for-bit — optimizer state, engine clocks, RNG streams and the in-flight
set all round-trip through the pickle.  The event log is strict on replay:
truncation, corruption, sequence gaps and digest mismatches fail loudly
with the offending line.
"""

import json
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import Cluster
from repro.core import (
    EventLog,
    EventLogError,
    ExecutionEngine,
    RetryPolicy,
    StudyInterrupted,
    TunaSampler,
    TuningLoop,
)
from repro.core.eventlog import config_digest, file_sha256
from repro.faults import build_crash_model, build_fault_model
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


def make_sampler(seed=9, n_workers=10):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    opt = RandomSearchOptimizer(system.knob_space, seed=seed)
    return TunaSampler(opt, execution, cluster, seed=seed)


def trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget, s.crashed)
        for s in sampler.datastore.all_samples()
    ]


LOOP_KWARGS = dict(max_samples=30, batch_size=5)


def crash_kwargs():
    """Built fresh per call because model instances carry RNG streams."""
    return dict(crash_model=build_crash_model("transient", seed=3), retry_policy=RetryPolicy())


def fault_kwargs():
    return dict(fault_model=build_fault_model("lognormal", seed=7), speculation=True)


def gray_kwargs():
    """A dense gray-failure cocktail: partitions, leases and corruption.

    Rates are cranked far above the defaults so that a kill at any early
    wave boundary lands mid-episode — leases armed, zombies in flight,
    quarantines pending — and the resume has real gray state to restore.
    Built fresh per call because model instances carry RNG streams.
    """
    from repro.core.validation import CorruptResultModel
    from repro.faults import PartitionOutageModel

    return dict(
        partition_model=PartitionOutageModel(
            seed=3, rate=0.3, mean_outage_hours=2.0
        ),
        lease_timeout=0.05,
        validation=True,
        corruption_model=CorruptResultModel(seed=4, rate=0.2),
        retry_policy=RetryPolicy(),
    )


def run_uninterrupted(seed=9, **extra):
    sampler = make_sampler(seed)
    result = TuningLoop(sampler, **LOOP_KWARGS, **extra).run()
    return sampler, result


def run_killed_and_resumed(tmp_path, kill_after, seed=9, **extra):
    log = str(tmp_path / "events.jsonl")
    ckpt = str(tmp_path / "study.ckpt")
    sampler = make_sampler(seed)
    with pytest.raises(StudyInterrupted):
        TuningLoop(
            sampler,
            event_log=log,
            checkpoint_path=ckpt,
            stop_after_waves=kill_after,
            **LOOP_KWARGS,
            **extra,
        ).run()
    resumed_loop = TuningLoop.resume(log)
    result = resumed_loop.run()
    return resumed_loop, result, log, ckpt


class TestResumeEquivalence:
    @pytest.mark.parametrize("kill_after", [1, 3, 5])
    def test_bit_for_bit_plain(self, tmp_path, kill_after):
        ref_sampler, ref_result = run_uninterrupted()
        loop, result, _, _ = run_killed_and_resumed(tmp_path, kill_after)
        assert trajectory(loop.sampler) == trajectory(ref_sampler)
        assert result.wall_clock_hours == ref_result.wall_clock_hours
        assert result.best_config == ref_result.best_config
        assert result.best_catalog_value == ref_result.best_catalog_value
        assert result.n_samples == ref_result.n_samples

    def test_bit_for_bit_with_crash_injection(self, tmp_path):
        ref_sampler, ref_result = run_uninterrupted(**crash_kwargs())
        loop, result, _, _ = run_killed_and_resumed(
            tmp_path, kill_after=2, **crash_kwargs()
        )
        assert trajectory(loop.sampler) == trajectory(ref_sampler)
        assert result.wall_clock_hours == ref_result.wall_clock_hours
        assert result.engine_stats == ref_result.engine_stats

    def test_bit_for_bit_with_faults_and_speculation(self, tmp_path):
        ref_sampler, ref_result = run_uninterrupted(**fault_kwargs())
        loop, result, _, _ = run_killed_and_resumed(
            tmp_path, kill_after=2, **fault_kwargs()
        )
        assert trajectory(loop.sampler) == trajectory(ref_sampler)
        assert result.wall_clock_hours == ref_result.wall_clock_hours
        assert result.engine_stats == ref_result.engine_stats

    def test_resume_directly_from_checkpoint_file(self, tmp_path):
        ref_sampler, _ = run_uninterrupted()
        log = str(tmp_path / "events.jsonl")
        ckpt = str(tmp_path / "study.ckpt")
        with pytest.raises(StudyInterrupted):
            TuningLoop(
                make_sampler(),
                event_log=log,
                checkpoint_path=ckpt,
                stop_after_waves=2,
                **LOOP_KWARGS,
            ).run()
        loop = TuningLoop.resume(ckpt)
        loop.run()
        assert trajectory(loop.sampler) == trajectory(ref_sampler)

    def test_resumed_log_replays_cleanly_end_to_end(self, tmp_path):
        loop, result, log, _ = run_killed_and_resumed(tmp_path, kill_after=2)
        events = EventLog.replay(log)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "open"
        assert "checkpoint" in kinds
        assert "resume" in kinds
        assert kinds[-1] == "finish"
        # Every accepted sample left a write-ahead record.
        assert kinds.count("sample") == result.n_samples
        # Submissions and completions/failures balance.
        n_terminal = kinds.count("complete") + kinds.count("fail")
        assert kinds.count("submit") + kinds.count("retry") + kinds.count(
            "speculate"
        ) >= n_terminal

    @pytest.mark.parametrize("kill_after", [1, 2, 3])
    def test_bit_for_bit_with_gray_failures(self, tmp_path, kill_after):
        """Killed mid-suspicion — armed leases, zombies still in the heap,
        quarantine retries pending — and resumed bit-for-bit."""
        ref_sampler, ref_result = run_uninterrupted(**gray_kwargs())
        loop, result, log, _ = run_killed_and_resumed(
            tmp_path, kill_after=kill_after, **gray_kwargs()
        )
        assert trajectory(loop.sampler) == trajectory(ref_sampler)
        assert result.wall_clock_hours == ref_result.wall_clock_hours
        assert result.engine_stats == ref_result.engine_stats
        # The cocktail actually exercised every gray path.
        assert result.engine_stats["n_suspected"] > 0
        assert result.engine_stats["n_zombies_rejected"] > 0
        assert result.engine_stats["n_quarantined"] > 0
        # The resumed log carries the new event kinds and they balance.
        kinds = [e["kind"] for e in EventLog.replay(log)]
        assert kinds.count("suspect") == kinds.count("lease_fence")
        assert kinds.count("suspect") >= kinds.count("zombie_rejected")

    def test_interrupt_without_checkpoint_path(self, tmp_path):
        with pytest.raises(StudyInterrupted) as excinfo:
            TuningLoop(
                make_sampler(), stop_after_waves=1, **LOOP_KWARGS
            ).run()
        assert excinfo.value.checkpoint_path is None
        assert excinfo.value.wave == 1

    def test_checkpoint_outside_a_run_raises(self, tmp_path):
        loop = TuningLoop(
            make_sampler(),
            checkpoint_path=str(tmp_path / "c.ckpt"),
            **LOOP_KWARGS,
        )
        with pytest.raises(RuntimeError, match="asynchronous run"):
            loop.checkpoint()

    def test_run_on_a_finished_loop_raises(self):
        loop = TuningLoop(make_sampler(), **LOOP_KWARGS, **crash_kwargs())
        result = loop.run()
        hours = loop.sampler.cluster.clock_hours
        with pytest.raises(RuntimeError, match="already run"):
            loop.run()
        # The refused run touched nothing: the cluster clock was finalised once.
        assert loop.sampler.cluster.clock_hours == hours
        assert result.engine_stats is not None
        assert result.engine_stats == loop.engine.engine_stats()

    def test_resume_returns_the_checkpointed_engine(self, tmp_path):
        log = str(tmp_path / "events.jsonl")
        killed = TuningLoop(
            make_sampler(),
            event_log=log,
            checkpoint_path=str(tmp_path / "study.ckpt"),
            stop_after_waves=2,
            **LOOP_KWARGS,
        )
        with pytest.raises(StudyInterrupted):
            killed.run()
        # An aborted run is no longer running: it cannot be checkpointed.
        with pytest.raises(RuntimeError, match="asynchronous run"):
            killed.checkpoint()
        loop = TuningLoop.resume(log)
        # The kill fired right after wave 2's checkpoint, so the restored
        # engine is the killed one as of that instant.
        assert loop.engine.n_submitted_requests == killed.engine.n_submitted_requests > 0
        assert loop.engine.loop.now == killed.engine.loop.now > 0
        with pytest.raises(RuntimeError, match="asynchronous run"):
            loop.checkpoint()
        result = loop.run()
        assert result.engine_stats == loop.engine.engine_stats()

    def test_default_driver_resumes_bit_for_bit(self, tmp_path):
        """Lockstep (the default ``batch_size=1``) checkpoints at its wave
        boundaries and resumes like any batched study."""
        ref_sampler = make_sampler()
        ref_result = TuningLoop(ref_sampler, max_samples=20).run()
        log = str(tmp_path / "events.jsonl")
        sampler = make_sampler()
        with pytest.raises(StudyInterrupted):
            TuningLoop(
                sampler,
                max_samples=20,
                event_log=log,
                checkpoint_path=str(tmp_path / "study.ckpt"),
                stop_after_waves=2,
            ).run()
        loop = TuningLoop.resume(log)
        result = loop.run()
        assert trajectory(loop.sampler) == trajectory(ref_sampler)
        assert result.wall_clock_hours == ref_result.wall_clock_hours
        assert result.n_iterations == ref_result.n_iterations
        assert result.best_config == ref_result.best_config
        assert [e["kind"] for e in EventLog.replay(log)][-1] == "finish"


class TestEventLogStrictness:
    def _valid_log(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        log.append("submit", worker="w-0")
        log.append("complete", worker="w-0")
        log.close()
        return log.path

    def test_replay_round_trips(self, tmp_path):
        path = self._valid_log(tmp_path)
        events = EventLog.replay(path)
        assert [e["kind"] for e in events] == ["open", "submit", "complete"]
        assert [e["seq"] for e in events] == [0, 1, 2]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(EventLogError):
            EventLog.replay(str(tmp_path / "nope.jsonl"))

    def test_truncated_tail_names_the_line(self, tmp_path):
        path = self._valid_log(tmp_path)
        with open(path, "r+", encoding="utf-8") as fh:
            content = fh.read()
            fh.seek(0)
            fh.write(content[:-15])  # chop mid-record
            fh.truncate()
        with pytest.raises(EventLogError) as excinfo:
            EventLog.replay(path)
        assert excinfo.value.line == 3

    def test_corrupted_line_names_the_line(self, tmp_path):
        path = self._valid_log(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = lines[1][:-4] + "\x00}"  # mangle the record's tail
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(EventLogError) as excinfo:
            EventLog.replay(path)
        assert excinfo.value.line == 2

    def test_sequence_gap_names_the_line(self, tmp_path):
        path = self._valid_log(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        del lines[1]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(EventLogError, match="sequence gap") as excinfo:
            EventLog.replay(path)
        assert excinfo.value.line == 2

    def test_missing_header_rejected(self, tmp_path):
        path = str(tmp_path / "headless.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            # detlint: allow[DET006] -- forges a headerless envelope on purpose to prove replay rejects it
            fh.write(json.dumps({"seq": 0, "kind": "submit"}) + "\n")
        with pytest.raises(EventLogError, match="header"):
            EventLog.replay(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            # detlint: allow[DET006] -- forges a future-version envelope on purpose to prove replay rejects it
            fh.write(json.dumps({"seq": 0, "kind": "open", "version": 99}) + "\n")
        with pytest.raises(EventLogError, match="version"):
            EventLog.replay(path)

    def test_empty_log_rejected(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(EventLogError):
            EventLog.replay(path)

    def test_envelope_fields_are_reserved(self, tmp_path):
        log = EventLog(str(tmp_path / "e.jsonl"))
        with pytest.raises(ValueError, match="envelope"):
            log.append("submit", seq=42)  # detlint: allow[DET006] -- exercises the reserved-key guard itself

    def test_provenance_sha_is_memoised_across_logs(self, tmp_path):
        """Two logs from one process share the provenance SHA, and only the
        first open pays for a ``git rev-parse`` subprocess."""
        from repro.core import eventlog as eventlog_mod

        first = EventLog(str(tmp_path / "a.jsonl"))
        first.append("submit", worker="w-0")
        first.close()
        memo = eventlog_mod._GIT_SHA_MEMO
        assert memo is not None  # the first open primed the cache

        def boom():
            raise AssertionError("memoised SHA must not re-fork git")

        original = eventlog_mod._git_sha_uncached
        eventlog_mod._git_sha_uncached = boom
        try:
            second = EventLog(str(tmp_path / "b.jsonl"))
            second.append("submit", worker="w-1")
            second.close()
        finally:
            eventlog_mod._git_sha_uncached = original
        sha_a = EventLog.replay(first.path)[0]["git_sha"]
        sha_b = EventLog.replay(second.path)[0]["git_sha"]
        assert sha_a == sha_b == memo

    def test_reopen_resyncs_from_the_file_tail(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        log = EventLog(path)
        log.append("submit")
        log.close()
        # A new handle (stale counter) must continue, not restart, the chain.
        other = EventLog(path)
        other.append("complete")
        events = EventLog.replay(path)
        assert [e["seq"] for e in events] == [0, 1, 2]

    def test_reopen_truncates_a_partial_tail(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        log = EventLog(path)
        log.append("submit")
        log.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "kind": "half')  # kill mid-write
        other = EventLog(path)
        other.append("complete")
        events = EventLog.replay(path)
        assert [e["kind"] for e in events] == ["open", "submit", "complete"]


class TestCheckpointIntegrity:
    def _killed_study(self, tmp_path):
        log = str(tmp_path / "events.jsonl")
        ckpt = str(tmp_path / "study.ckpt")
        with pytest.raises(StudyInterrupted):
            TuningLoop(
                make_sampler(),
                event_log=log,
                checkpoint_path=ckpt,
                stop_after_waves=1,
                **LOOP_KWARGS,
            ).run()
        return log, ckpt

    def test_digest_matches_the_file(self, tmp_path):
        log, ckpt = self._killed_study(tmp_path)
        event = EventLog.last_checkpoint(log)
        assert event["path"] == os.path.abspath(ckpt)
        assert event["sha256"] == file_sha256(ckpt)

    def test_tampered_checkpoint_is_rejected(self, tmp_path):
        log, ckpt = self._killed_study(tmp_path)
        with open(ckpt, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(EventLogError, match="digest"):
            TuningLoop.resume(log)

    def test_missing_checkpoint_is_rejected(self, tmp_path):
        log, ckpt = self._killed_study(tmp_path)
        os.remove(ckpt)
        with pytest.raises(EventLogError, match="missing"):
            TuningLoop.resume(log)

    def test_log_without_checkpoint_is_rejected(self, tmp_path):
        path = str(tmp_path / "no_ckpt.jsonl")
        log = EventLog(path)
        log.append("submit")
        log.close()
        with pytest.raises(EventLogError, match="no checkpoint"):
            TuningLoop.resume(path)

    def test_kill_between_write_and_rename_is_harmless(self, tmp_path):
        """A crash after writing ``.tmp`` but before ``os.replace`` leaves
        the previous checkpoint (and its logged digest) authoritative."""
        ref_sampler, _ = run_uninterrupted()
        log, ckpt = self._killed_study(tmp_path)
        # Forge the aftermath of a kill mid-checkpoint: a stale temp file
        # with garbage next to the intact stable checkpoint.
        with open(ckpt + ".tmp", "wb") as fh:
            fh.write(b"half-written checkpoint payload")
        loop = TuningLoop.resume(log)
        loop.run()
        assert trajectory(loop.sampler) == trajectory(ref_sampler)

    def test_a_pickle_that_is_not_a_loop_is_rejected(self, tmp_path):
        """Checkpoints of the older ``{"loop", "state"}`` layout do not load."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({"loop": None, "state": None}))
        with pytest.raises(ValueError, match="TuningLoop checkpoint"):
            TuningLoop.resume(str(path))


class TestDatastoreWriteAhead:
    def test_samples_are_logged_before_storage(self, tmp_path):
        log_path = str(tmp_path / "e.jsonl")
        sampler = make_sampler()
        TuningLoop(
            sampler, event_log=log_path, **LOOP_KWARGS
        ).run()
        events = EventLog.replay(log_path)
        logged = [e for e in events if e["kind"] == "sample"]
        stored = sampler.datastore.all_samples()
        assert len(logged) == len(stored)
        for event, sample in zip(logged, stored):
            assert event["config"] == config_digest(sample.config)
            assert event["worker"] == sample.worker_id
            assert event["value"] == sample.value
            assert event["crashed"] == sample.crashed


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=12)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


class TestRecordEncoding:
    """Appends write exactly what ``json.dumps(sort_keys=True, default=str)``
    wrote, and every record is in the file when ``append`` returns."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=8))
    def test_encoder_matches_json_dumps(self, record):
        from repro.core import eventlog as eventlog_mod

        want = json.dumps(record, sort_keys=True, default=str)
        assert eventlog_mod._ENCODE(record) == want

    def test_fallback_encoder_matches_json_dumps(self, monkeypatch):
        from repro.core import eventlog as eventlog_mod

        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        encode = eventlog_mod._record_encoder()
        record = {"t": 0.1, "nan": float("nan"), "w": "wörker", "ok": True, "x": object()}
        assert encode(record) == json.dumps(record, sort_keys=True, default=str)

    def test_each_record_is_written_before_append_returns(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        for i in range(3):
            record = log.append("submit", worker=f"w-{i}", t=i / 3)
            lines = open(log.path, encoding="utf-8").read().splitlines()
            assert len(lines) == i + 2  # the header, then one line per append
            assert json.loads(lines[-1]) == record
        log.close()
