"""Offline tuning loop and deployment evaluation.

The paper's evaluation protocol (§6) is: run a sampling methodology offline
for a fixed wall-clock budget, pick the best configuration from its catalog,
then *deploy* that configuration on a set of brand-new nodes and report the
mean and standard deviation of its performance there.  :class:`TuningLoop`
implements the first half and :func:`deploy_configuration` the second.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional

import numpy as np

from repro.cloud.vm import VirtualMachine
from repro.configspace import Configuration
from repro.core.async_engine import AsyncExecutionEngine, RetryPolicy
from repro.core.eventlog import EventLog
from repro.core.execution import ExecutionEngine
from repro.core.samplers import IterationReport, Sampler
from repro.core.validation import CorruptionModel, ResultValidator
from repro.faults import CrashModel, FaultModel, PartitionModel, SpeculationPolicy
from repro.faults.base import armed
from repro.ml.metrics import coefficient_of_variation, relative_range
from repro.systems.base import SystemUnderTest
from repro.workloads.base import Workload

if TYPE_CHECKING:  # annotation only; obs is an optional attachment
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import TraceRecorder


@dataclass
class TuningResult:
    """Everything a tuning run produced.

    ``engine_stats`` carries the fault-path counts of every armed family
    (speculation, crashes, gray failures; see
    :meth:`~repro.core.async_engine.AsyncExecutionEngine.engine_stats`);
    ``None`` when none was armed.
    """

    sampler_name: str
    workload_name: str
    best_config: Configuration
    best_catalog_value: float
    higher_is_better: bool = True
    history: List[IterationReport] = field(default_factory=list)
    n_iterations: int = 0
    n_samples: int = 0
    wall_clock_hours: float = 0.0
    engine_stats: Optional[dict] = None

    def best_so_far_trace(self) -> List[float]:
        """Best *reported* value after each iteration (convergence curve)."""
        trace: List[float] = []
        best: Optional[float] = None
        for report in self.history:
            value = report.reported_value
            if best is None:
                best = value
            elif self.higher_is_better:
                best = max(best, value)
            else:
                best = min(best, value)
            trace.append(best)
        return trace


@dataclass
class DeploymentResult:
    """Performance of one configuration deployed on fresh nodes (§6)."""

    config: Configuration
    values: List[float]
    crashes: int
    objective_unit: str
    higher_is_better: bool

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    @property
    def cov(self) -> float:
        return coefficient_of_variation(self.values)

    @property
    def worst(self) -> float:
        return float(np.min(self.values)) if self.higher_is_better else float(np.max(self.values))

    @property
    def relative_range(self) -> float:
        """Relative range, by the same definition the outlier detector uses.

        A single deployment value carries no spread information, so — like
        :meth:`repro.core.outlier.OutlierDetector.is_unstable_values` — it
        reports zero rather than dividing a degenerate range by the mean
        (and a zero mean raises, exactly as in
        :func:`repro.ml.metrics.relative_range`).
        """
        if len(self.values) < 2:
            return 0.0
        return relative_range(self.values)


def _pcg64_generator(state: int, inc: int, has_uint32: int, uinteger: int):
    """Rebuild a PCG64-backed Generator from its four state words.

    The checkpoint writer reduces every such Generator to a call of this
    function; ``pickle.load`` calls it back.  The constructor seed is
    irrelevant: the whole state is overwritten before the stream is used.
    """
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return np.random.Generator(bit_generator)


def _reduce_generator(rng: np.random.Generator):
    """Pickle a PCG64 Generator as its state words; others as numpy does."""
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return rng.__reduce__()
    words = bit_generator.state
    return _pcg64_generator, (
        words["state"]["state"],
        words["state"]["inc"],
        words["has_uint32"],
        words["uinteger"],
    )


#: Reductions the checkpoint writer applies on top of the default ones.
_CHECKPOINT_DISPATCH = copyreg.dispatch_table.copy()
_CHECKPOINT_DISPATCH[np.random.Generator] = _reduce_generator


def dump_checkpoint(obj: Any) -> bytes:
    """Pickle ``obj`` the way :meth:`TuningLoop.checkpoint` writes it.

    Identical to ``pickle.dumps`` except that PCG64 Generators are stored
    as their four state words, about a third of numpy's own encoding and
    several times faster to write.  ``pickle.loads`` reads the result, and
    restored streams continue bit for bit.  (Forests compact themselves:
    :class:`~repro.ml.forest.RandomForestRegressor` pickles only its
    stacked node table.)
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _CHECKPOINT_DISPATCH
    pickler.dump(obj)
    return buffer.getvalue()


class StudyInterrupted(RuntimeError):
    """The ``stop_after_waves`` kill switch fired mid-study.

    Simulates a fail-stop of the tuning *process* itself (as opposed to a
    worker): the study stops dead at a wave boundary, exactly like a killed
    run, and can be resurrected with :meth:`TuningLoop.resume` from its
    last checkpoint.
    """

    def __init__(self, wave: int, checkpoint_path: Optional[str] = None) -> None:
        self.wave = wave
        self.checkpoint_path = checkpoint_path
        message = f"study interrupted after wave {wave}"
        if checkpoint_path:
            message += f"; resume from {checkpoint_path}"
        super().__init__(message)


@dataclass
class _RunState:
    """Everything the driver accumulates between waves.

    Held on the :class:`TuningLoop` next to its engine, so one pickle of the
    loop captures both, and a resumed run continues from the exact wave
    boundary the checkpoint was taken at.
    """

    history: List[IterationReport] = field(default_factory=list)
    hours: float = 0.0
    samples: int = 0
    submitted: int = 0
    submitted_samples: int = 0
    completed: int = 0
    zero_streak: int = 0
    wave_index: int = 0


class TuningLoop:
    """Runs a sampler for a fixed number of iterations or wall-clock budget.

    One driver runs every study: proposals go to the loop's
    :class:`~repro.core.async_engine.AsyncExecutionEngine` (built once, at
    construction, as :attr:`engine`) and completions come back to the
    sampler; ``batch_size`` sets how many samples are in flight at once.
    A loop runs once: a second :meth:`run` raises.

    Parameters
    ----------
    batch_size:
        In-flight sample watermark.  ``1`` (default) is lockstep mode: one
        request in flight and the whole cluster advanced uniformly between
        requests, the one-suggestion-at-a-time loop of traditional tuning
        (it reproduces the sequential reference in
        ``tests/core/sequential_oracle.py`` bit-for-bit).  Larger batches
        keep every worker busy on its own timeline, so the run's wall-clock
        is the makespan of the busiest worker rather than
        ``n_iterations x eval_cost``.  The watermark gates *submission*, not
        admission: a request is submitted whole, so a multi-node request
        entering below the watermark may momentarily push the in-flight
        count above it (a hard cap would deadlock any request wider than
        the remaining window).
    fault_model, speculation, crash_model, retry_policy, partition_model, \
validation, corruption_model, metrics, tracer:
        Passed to the engine unchanged; see
        :class:`~repro.core.async_engine.AsyncExecutionEngine`.  A model is
        an instance (e.g. ``build_fault_model("lognormal", seed=7)``) or a
        registry name (built with seed 0); ``"none"`` and ``None`` reproduce
        existing trajectories bit-for-bit, and any *active* model or a
        speculation policy requires ``batch_size >= 2`` (lockstep mode is
        the equivalence gate and stays uninjected).  ``metrics=True`` and
        ``tracer=True`` attach default observability recorders; an attached
        registry also observes the sampler's scheduler and optimizer.
    lease_timeout:
        Liveness-lease timeout in simulated hours (the engine's
        ``lease_timeout_hours``).  A worker silent for longer is suspected
        and its slot re-submitted under a new epoch; ``None`` (default)
        disables the monitor.
    event_log:
        Durable append-only JSONL write-ahead log for the study: a file
        path or an :class:`~repro.core.eventlog.EventLog` instance.  Every
        submission/completion/failure/retry/speculation/sample event and
        every checkpoint is recorded, so the study is auditable and
        resumable.
    checkpoint_path:
        Where :meth:`checkpoint` serializes the study (atomic
        write-then-rename).  When set, a checkpoint is taken automatically
        every ``checkpoint_every`` waves.
    checkpoint_every:
        Wave interval between automatic checkpoints (default 1: every wave
        boundary).
    stop_after_waves:
        Testing/demo kill switch: raise :class:`StudyInterrupted` once this
        many waves have been processed (after the wave's checkpoint, when
        checkpointing is armed), simulating a killed tuning process.
    """

    #: Abort after this many *consecutive* iterations that schedule no new
    #: samples.  Such iterations cost no wall-clock and collect no samples,
    #: so they advance no stopping criterion; a sampler stuck re-proposing
    #: fully-covered configurations would otherwise spin forever.  Genuine
    #: zero-sample events (promotions covered by reused samples, the odd
    #: duplicate suggestion) never cluster anywhere near this bound.
    MAX_ZERO_PROGRESS_ITERATIONS = 32

    def __init__(
        self,
        sampler: Sampler,
        n_iterations: Optional[int] = None,
        wall_clock_hours: Optional[float] = None,
        max_samples: Optional[int] = None,
        batch_size: int = 1,
        fault_model: FaultModel | str | None = None,
        speculation: SpeculationPolicy | bool | None = None,
        crash_model: CrashModel | str | None = None,
        retry_policy: Optional[RetryPolicy] = None,
        event_log: EventLog | str | os.PathLike | None = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        stop_after_waves: Optional[int] = None,
        metrics: "MetricsRegistry | bool | None" = None,
        tracer: "TraceRecorder | bool | None" = None,
        partition_model: PartitionModel | str | None = None,
        lease_timeout: Optional[float] = None,
        validation: "ResultValidator | bool | None" = None,
        corruption_model: CorruptionModel | str | None = None,
    ) -> None:
        if n_iterations is None and wall_clock_hours is None and max_samples is None:
            raise ValueError(
                "specify at least one stopping criterion "
                "(n_iterations, wall_clock_hours or max_samples)"
            )
        if n_iterations is not None and n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if stop_after_waves is not None and stop_after_waves < 1:
            raise ValueError("stop_after_waves must be >= 1")
        self.sampler = sampler
        self.n_iterations = n_iterations
        self.wall_clock_hours = wall_clock_hours
        self.max_samples = max_samples
        self.batch_size = batch_size
        if isinstance(event_log, (str, os.PathLike)):
            event_log = EventLog(event_log)
        self.event_log = event_log
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.stop_after_waves = stop_after_waves
        scheduler = getattr(sampler, "scheduler", None)
        self.engine = AsyncExecutionEngine(
            sampler.execution,
            sampler.cluster,
            lockstep=batch_size == 1,
            fault_model=fault_model,
            speculation=speculation,
            crash_model=crash_model,
            retry_policy=retry_policy,
            partition_model=partition_model,
            lease_timeout_hours=lease_timeout,
            validation=validation,
            corruption_model=corruption_model,
            event_log=event_log,
            scheduler=scheduler,
            used_workers_fn=sampler.datastore.workers_used,
            metrics=metrics,
            tracer=tracer,
        )
        if self.engine.metrics is not None:
            # One registry observes the whole stack: placement decisions and
            # surrogate refits land next to the engine's lifecycle counters.
            if scheduler is not None:
                scheduler.metrics = self.engine.metrics
            sampler.optimizer.metrics = self.engine.metrics
        if event_log is not None:
            # Write-ahead logging: the datastore mirrors every landed sample
            # into the log before recording it in memory.
            sampler.datastore.event_log = event_log
        self._state = _RunState()
        #: ``"ready"`` -> ``"running"`` -> ``"finished"``; an aborted run
        #: (``StudyInterrupted`` or an error) goes back to ``"ready"``.
        #: :meth:`checkpoint` is valid only while running, since an aborted
        #: run can stop mid-wave.
        self._phase = "ready"

    def _should_stop(self, iteration: int, hours: float, samples: int) -> bool:
        if self.n_iterations is not None and iteration >= self.n_iterations:
            return True
        if self.wall_clock_hours is not None and hours >= self.wall_clock_hours:
            return True
        if self.max_samples is not None and samples >= self.max_samples:
            return True
        return False

    def _track_progress(self, report: IterationReport, streak: int) -> int:
        """Update (and bound) the consecutive zero-progress iteration count."""
        if report.n_new_samples > 0:
            return 0
        streak += 1
        if streak > self.MAX_ZERO_PROGRESS_ITERATIONS:
            raise RuntimeError(
                f"{streak} consecutive iterations scheduled no new samples; "
                "the sampler keeps re-proposing fully-covered configurations "
                "and the run would never reach its stopping criterion"
            )
        return streak

    def _handle_reports(self, reports: List[IterationReport]) -> None:
        state = self._state
        workload = self.sampler.execution.workload
        for report in reports:
            report.details.setdefault("objective_unit", workload.objective.unit)
            report.details.setdefault("higher_is_better", workload.higher_is_better)
            state.history.append(report)
            state.samples += report.n_new_samples
            state.completed += 1
            state.zero_streak = self._track_progress(report, state.zero_streak)
            if self.engine.lockstep:
                # Lockstep advances the whole cluster by each request's
                # wall-clock (zero for a request that scheduled nothing).
                state.hours += report.wall_clock_hours
                if report.wall_clock_hours > 0:
                    self.sampler.cluster.advance(report.wall_clock_hours)

    def run(self) -> TuningResult:
        """Drive the sampler through the asynchronous execution engine.

        Proposals are submitted while in-flight capacity remains and no
        stopping criterion has tripped; completions are fed back to the
        sampler as they land (in completion order, which for batches > 1
        interleaves requests).  Once a criterion trips, in-flight work is
        drained — matching a real cluster, where started benchmarks finish.
        ``batch_size=1`` runs the engine in lockstep mode: one request in
        flight and uniform cluster advancement.  A loop returned by
        :meth:`resume` continues from its checkpointed wave.
        """
        if self._phase == "finished":
            raise RuntimeError("this loop has already run to completion")
        engine, state = self.engine, self._state
        # Let placement exclude workers running speculative duplicates or
        # crash retries (their eventual result occupies an existing budget
        # slot rather than a fresh one).
        probe = engine.speculation is not None or (
            armed(engine.loop.crash_model) and engine.retry_policy is not None
        )
        if probe:
            self.sampler.speculation_probe = engine.auxiliary_workers_for
        self._phase = "running"
        try:
            while True:
                # Fill the in-flight window.  Submission is gated on
                # *submitted* work (samples already in flight count towards
                # the budget), so a large batch does not overshoot
                # ``max_samples`` while the final samples are still running.
                while engine.n_in_flight_items < self.batch_size and not (
                    self._should_stop(
                        state.submitted, state.hours, state.submitted_samples
                    )
                ):
                    try:
                        request = self.sampler.propose_work(state.submitted)
                    except RuntimeError:
                        if engine.n_in_flight_items > 0:
                            # Scheduling failed (the sampler already rolled
                            # back any promotion reservation); draining
                            # in-flight work frees workers, so retry after
                            # the next completion.
                            break
                        raise
                    state.submitted += 1
                    if not request.vms:
                        # Nothing to run (budget covered by reused samples):
                        # complete inline at zero wall-clock cost.
                        self._handle_reports(
                            self.sampler.complete_work_batch([(request, [])])
                        )
                        continue
                    state.submitted_samples += len(request.vms)
                    engine.submit(request)
                if engine.n_in_flight_items == 0:
                    break
                # Drain one wave: every request finishing at the same
                # simulated instant lands together and is fed back as a
                # single batched tell, so the surrogate refits once per wave.
                wave = engine.next_completed_requests()
                if not wave:
                    # Only stale (fenced) zombie reports were left in flight;
                    # they drained without landing anything — not a wave.
                    continue
                self._handle_reports(self.sampler.complete_work_batch(wave))
                if not engine.lockstep:
                    state.hours = engine.makespan_hours
                state.wave_index += 1
                if (
                    self.checkpoint_path is not None
                    and state.wave_index % self.checkpoint_every == 0
                ):
                    self.checkpoint()
                if (
                    self.stop_after_waves is not None
                    and state.wave_index >= self.stop_after_waves
                ):
                    raise StudyInterrupted(state.wave_index, self.checkpoint_path)
        finally:
            self._phase = "ready"
            # The probe binds the sampler to this loop's engine; never leave
            # it dangling (even on abort).
            if probe:
                self.sampler.speculation_probe = None

        self._phase = "finished"
        wall_clock = state.hours if engine.lockstep else engine.finalize()
        if self.event_log is not None:
            self.event_log.append(
                "finish",
                n_samples=state.samples,
                wall_clock_hours=wall_clock,
            )

        workload = self.sampler.execution.workload
        best_config, best_value = self.sampler.best_configuration()
        return TuningResult(
            sampler_name=self.sampler.name,
            workload_name=workload.name,
            best_config=best_config,
            best_catalog_value=best_value,
            higher_is_better=workload.higher_is_better,
            history=state.history,
            n_iterations=state.completed,
            n_samples=state.samples,
            wall_clock_hours=wall_clock,
            engine_stats=engine.engine_stats(),
        )

    # ----------------------------------------------------------- durability
    def checkpoint(self) -> str:
        """Serialize the whole study to ``checkpoint_path`` (atomically).

        The checkpoint is a single pickle of the loop — its engine and
        driver counters included: one object graph, so every shared
        reference (engine ↔ sampler ↔ cluster ↔ event log ↔ RNG streams)
        survives round-tripping intact.  PCG64 streams are stored as their
        state words and each fitted forest as one node table (see
        :func:`dump_checkpoint`).  Written via a temp file +
        :func:`os.replace`, so a kill mid-write leaves the previous
        checkpoint untouched; the sha256 digest recorded in the event log
        lets :meth:`resume` detect truncation/corruption.  Returns the
        checkpoint's absolute path.
        """
        if self.checkpoint_path is None:
            raise RuntimeError("no checkpoint_path configured")
        if self._phase != "running":
            raise RuntimeError(
                "checkpoint() is only valid while an asynchronous run is "
                "active (it is called automatically at wave boundaries)"
            )
        payload = dump_checkpoint(self)
        digest = hashlib.sha256(payload).hexdigest()
        path = os.path.abspath(self.checkpoint_path)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        if self.event_log is not None:
            self.event_log.append(
                "checkpoint",
                path=path,
                sha256=digest,
                wave=self._state.wave_index,
                n_samples=self._state.samples,
            )
        return path

    @classmethod
    def resume(cls, path: str | os.PathLike) -> "TuningLoop":
        """Resurrect a killed study from a checkpoint (or its event log).

        ``path`` may point either directly at a checkpoint file or at an
        event log, in which case the log's last ``"checkpoint"`` event is
        located, its recorded sha256 digest verified against the file on
        disk, and that checkpoint loaded.  The returned loop continues from
        the exact wave boundary the checkpoint captured: calling
        :meth:`run` on it reproduces the uninterrupted run's remaining
        trajectory bit-for-bit.  The ``stop_after_waves`` kill switch is
        cleared on the resumed loop (the simulated kill already happened).
        Loading is a plain ``pickle.load`` of the loop.
        """
        path = os.fspath(path)
        with open(path, "rb") as fh:
            first = fh.read(1)
        if first != b"\x80":
            # Not a pickle: treat as an event log and chase its last
            # checkpoint record (digest-verified inside last_checkpoint).
            event = EventLog.last_checkpoint(path)
            path = event["path"]
        with open(path, "rb") as fh:
            loop = pickle.load(fh)
        if not isinstance(loop, cls):
            raise ValueError(f"{path} does not hold a {cls.__name__} checkpoint")
        loop._phase = "ready"
        # The simulated process kill already happened; a resumed study runs
        # to its real stopping criterion.
        loop.stop_after_waves = None
        if loop.event_log is not None:
            loop.event_log.append("resume", checkpoint=path, wave=loop._state.wave_index)
        return loop


def deploy_configuration(
    system: SystemUnderTest,
    workload: Workload,
    config: Configuration,
    nodes: List[VirtualMachine],
    seed: Optional[int] = None,
) -> DeploymentResult:
    """Evaluate a tuned configuration on freshly provisioned nodes.

    Crashed runs are replaced by the execution engine's crash penalty, exactly
    as during tuning, so a crashing configuration shows up as both slow and
    highly variable — which is how Fig. 14 presents it.
    """
    if not nodes:
        raise ValueError("need at least one deployment node")
    engine = ExecutionEngine(system, workload, seed=seed)
    values: List[float] = []
    crashes = 0
    for vm in nodes:
        sample = engine.evaluate_on(config, vm)
        if sample.crashed:
            crashes += 1
        values.append(sample.value)
    return DeploymentResult(
        config=config,
        values=values,
        crashes=crashes,
        objective_unit=workload.objective.unit,
        higher_is_better=workload.higher_is_better,
    )
