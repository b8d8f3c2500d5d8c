"""Append-only JSONL write-ahead event log for tuning studies.

Durability substrate of the crash-fault subsystem: every externally
observable action of a study (submissions, completions, failures, retries,
speculative launches, landed samples, checkpoints) is appended as one JSON
object per line, so a killed study can be audited line by line and resumed
from its last checkpoint.  The file format is deliberately boring — JSONL,
append-only, flushed per event — because boring is what survives a crash.

Records share a tiny envelope: a contiguous ``seq`` number (gaps mean lost
events), the record ``kind``, and kind-specific fields.  The first record is
the ``"open"`` header carrying provenance (format version, git SHA, UTC
timestamp), mirroring the benchmark artifacts, so a weeks-old log can be
traced to the commit that produced it.

:func:`EventLog.replay` is strict by design: a truncated tail, a corrupted
line or a sequence gap raises :class:`EventLogError` naming the offending
line — silently loading a partial study would poison every conclusion drawn
from it.
"""

from __future__ import annotations

import hashlib
import json
import json.encoder
import os
import subprocess
from datetime import datetime, timezone
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # annotation only; configspace never imports core
    from repro.configspace import Configuration

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..")
)


def _record_encoder() -> Callable[[Dict[str, Any]], str]:
    """``json.dumps(record, sort_keys=True, default=str)`` as one reusable
    callable.

    ``json.dumps`` builds a new encoder, and the C encoder behind it, for
    every record; an append is cheap enough that this setup was a large
    share of its cost.  The C encoder is built once here, with the
    arguments ``JSONEncoder.iterencode`` passes it; records are plain data
    without cycles, so the circular-reference markers are left out.  Without the C module
    the pure-Python encoder is reused instead.
    """
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:
        return json.JSONEncoder(sort_keys=True, default=str, check_circular=False).encode
    encode = make(
        None, str, json.encoder.encode_basestring_ascii, None, ": ", ", ", True, False, True
    )
    return lambda record: "".join(encode(record, 0))


_ENCODE = _record_encoder()


class EventLogError(RuntimeError):
    """A log could not be replayed; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        super().__init__(message)
        self.line = line


_GIT_SHA_MEMO: Optional[str] = None


def _git_sha() -> str:
    """Current commit SHA, or "unknown" outside a usable git checkout.

    Memoised per process: the checkout cannot change mid-run, and opening
    many logs (one per study in a multi-tenant process) must not fork a
    ``git rev-parse`` subprocess per open.
    """
    global _GIT_SHA_MEMO
    if _GIT_SHA_MEMO is not None:
        return _GIT_SHA_MEMO
    _GIT_SHA_MEMO = _git_sha_uncached()
    return _GIT_SHA_MEMO


def _git_sha_uncached() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


@lru_cache(maxsize=4096)
def config_digest(config: Configuration) -> str:
    """Short stable digest identifying a configuration in log records.

    Hashes the sorted parameter/value mapping, so the digest is independent
    of dict ordering and process hash randomisation — the same configuration
    always logs the same digest, across runs and across resumes.  Memoised
    (configurations are immutable and hashable): a study logs and traces the
    same configuration once per worker fan-out, and re-serialising it every
    time would dominate the instrumentation cost.
    """
    payload = json.dumps(config.as_dict(), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def file_sha256(path: str) -> str:
    """Content digest of a file (checkpoint integrity verification)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class EventLog:
    """Append-only JSONL event log, one study per file.

    The file handle opens lazily on the first append (in append mode, so a
    resumed study continues the same file) and is dropped on pickling —
    checkpoints capture the sequence counter, not the handle, and the next
    append after a resume reopens the file.
    """

    VERSION = 1

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = None
        self._seq = 0

    # -- writes ---------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._fh is not None:
            return
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        if not fresh:
            # Reopening an existing log (a resumed study, or a handle closed
            # mid-run): the file is the source of truth for the sequence
            # counter.  The pickled counter is stale whenever events landed
            # between checkpoint time and the kill — e.g. the "checkpoint"
            # record itself, which is written *after* the state is pickled.
            self._seq = self._recover_next_seq()
        # Unbuffered: each record reaches the file in one write(2), with no
        # text or buffer layer in between.
        self._fh = open(self.path, "ab", buffering=0)
        if fresh and self._seq == 0:
            self.append(
                "open",
                version=self.VERSION,
                git_sha=_git_sha(),
                # detlint: allow[DET002] -- provenance stamp in the header only; replay never consumes it
                generated_at=datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
            )

    def _recover_next_seq(self) -> int:
        """WAL-style tail recovery: next sequence number for an existing log.

        A kill mid-``write`` can leave a partial final line; that event was
        never durable (its write never completed), so the partial tail is
        truncated away before appending resumes — otherwise the next append
        would concatenate onto it and corrupt the record.  Complete lines
        are never touched; :meth:`replay` still reports any damage loudly.
        """
        with open(self.path, "rb") as fh:
            data = fh.read()
        if not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            with open(self.path, "r+b") as fh:
                fh.truncate(cut)
            data = data[:cut]
        next_seq = 0
        for line in data.decode("utf-8", errors="replace").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and isinstance(record.get("seq"), int):
                next_seq = max(next_seq, record["seq"] + 1)
        return next_seq

    def append(self, kind: str, **fields: Any) -> Dict:
        """Append one event; flushed immediately so a kill loses at most the
        event being written (which replay then reports as a truncated tail).
        """
        self._ensure_open()
        if "seq" in fields or "kind" in fields:
            clash = sorted({"seq", "kind"} & fields.keys())
            raise ValueError(f"event fields {clash} would clobber the log envelope")
        record = {"seq": self._seq, "kind": str(kind)}
        record.update(fields)
        line = (_ENCODE(record) + "\n").encode("utf-8")
        # A raw write may be partial; finish the record before returning.
        while line:
            line = line[self._fh.write(line) :]
        self._seq += 1
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def n_events(self) -> int:
        return self._seq

    # -- checkpoint durability across pickling --------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_fh"] = None
        return state

    # -- replay ---------------------------------------------------------------
    @staticmethod
    def replay(path: str) -> List[Dict]:
        """Load and validate a log; fails loudly on any damage.

        Raises :class:`EventLogError` with the 1-based line number when a
        line is not valid JSON (corruption or a truncated tail), when the
        ``seq`` chain has a gap or reordering (lost events), or when the
        header is missing or from an unknown format version.
        """
        if not os.path.exists(path):
            raise EventLogError(f"event log {path!r} does not exist")
        events: List[Dict] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip() == "" and lineno > 1:
                    raise EventLogError(
                        f"{path}:{lineno}: blank line inside the event log "
                        "(truncated or corrupted write)",
                        line=lineno,
                    )
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise EventLogError(
                        f"{path}:{lineno}: corrupted or truncated event "
                        f"({exc.msg}); refusing to load a partial study",
                        line=lineno,
                    ) from exc
                if not isinstance(record, dict) or "seq" not in record:
                    raise EventLogError(
                        f"{path}:{lineno}: not an event record (missing 'seq')",
                        line=lineno,
                    )
                if record["seq"] != lineno - 1:
                    raise EventLogError(
                        f"{path}:{lineno}: sequence gap — expected seq "
                        f"{lineno - 1}, found {record['seq']} (events were "
                        "lost or reordered)",
                        line=lineno,
                    )
                events.append(record)
        if not events:
            raise EventLogError(f"{path}: empty event log", line=1)
        header = events[0]
        if header.get("kind") != "open":
            raise EventLogError(
                f"{path}:1: first record must be the 'open' header, "
                f"found {header.get('kind')!r}",
                line=1,
            )
        if header.get("version") != EventLog.VERSION:
            raise EventLogError(
                f"{path}:1: unsupported event-log version "
                f"{header.get('version')!r} (supported: {EventLog.VERSION})",
                line=1,
            )
        return events

    @staticmethod
    def last_checkpoint(path: str) -> Dict:
        """Replay a log and return its most recent ``"checkpoint"`` event.

        Verifies that the referenced checkpoint file still exists and that
        its content digest matches what was recorded at checkpoint time —
        a tampered or half-written checkpoint must not resurrect a study.
        """
        events = EventLog.replay(path)
        checkpoints = [e for e in events if e.get("kind") == "checkpoint"]
        if not checkpoints:
            raise EventLogError(
                f"{path}: no checkpoint recorded; the study cannot be resumed"
            )
        last = checkpoints[-1]
        ckpt_path = last.get("path", "")
        if not os.path.isabs(ckpt_path):
            ckpt_path = os.path.join(os.path.dirname(os.path.abspath(path)), ckpt_path)
        if not os.path.exists(ckpt_path):
            raise EventLogError(
                f"{path}: checkpoint file {last.get('path')!r} is missing"
            )
        digest = file_sha256(ckpt_path)
        if digest != last.get("sha256"):
            raise EventLogError(
                f"{path}: checkpoint {last.get('path')!r} content digest "
                f"{digest[:12]}... does not match the recorded "
                f"{str(last.get('sha256'))[:12]}... (corrupted or tampered)"
            )
        last = dict(last)
        last["path"] = ckpt_path
        return last
