"""Layer spans for the traced study, recorded from outside the program.

Wrappers are installed at *class* level around the public functions each
layer exposes and removed again afterwards.  Instance-level wrappers would
land in the instance ``__dict__`` and be pickled by
``TuningLoop.checkpoint()``; class attributes are not.

A span is ``[name, start, end, parent, attrs]`` with ``perf_counter``
seconds; ``parent`` is the index of the enclosing span (-1 for the root).
The study is single-threaded, so a plain stack gives the parent.  The layer
of a span is the part of its name before the first dot.

Timing terms used by :func:`layer_metrics`:

* ``.s`` and ``.share`` are *inclusive*: the time during which the layer was
  on the stack (nested calls of the same layer counted once), so nested
  layers overlap -- the noise adjuster's share contains its forest fits,
  which also count towards ``ml``;
* ``.self_s`` is *exclusive*: span duration minus the time its child spans
  cover.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace import ConfigurationSpace
from repro.core.async_engine import AsyncExecutionEngine
from repro.core.eventlog import EventLog
from repro.core.execution import ExecutionEngine
from repro.core.noise_adjuster import NoiseAdjuster
from repro.core.outlier import OutlierDetector
from repro.core.samplers import TunaSampler
from repro.core.scheduler import MultiFidelityTaskScheduler
from repro.core.tuner import TuningLoop
from repro.ml.forest import RandomForestRegressor
from repro.optimizers.base import Optimizer

Attrs = Callable[[tuple, dict, Any], Any]


def _fit_cells(args: tuple, kwargs: dict, result: Any) -> Tuple[int, int]:
    X = np.asarray(args[1])
    return int(X.shape[0]), int(X.shape[1])


def _train_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return int(args[0].n_training_samples)


def _outlier_verdict(args: tuple, kwargs: dict, result: Any) -> Tuple[Any, bool]:
    samples = list(args[1])
    return (samples[0].config if samples else None), bool(result)


def _n_configs(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result) if isinstance(result, list) else len(args[1])


def _n_landed(args: tuple, kwargs: dict, result: Any) -> int:
    reports = result if isinstance(result, list) else [result]
    return sum(report.n_new_samples for report in reports)


def _length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _file_kb(args: tuple, kwargs: dict, result: Any) -> float:
    return os.path.getsize(result) / 1024.0


#: (class, method, span name, attribute extractor) for every wrapped call.
TRACED: Sequence[Tuple[type, str, str, Optional[Attrs]]] = (
    (TuningLoop, "run", "tuner.run", None),
    (TuningLoop, "checkpoint", "tuner.checkpoint", _file_kb),
    (TunaSampler, "propose_work", "samplers.propose", None),
    (TunaSampler, "complete_work", "samplers.complete", _n_landed),
    (TunaSampler, "complete_work_batch", "samplers.complete", _n_landed),
    (Optimizer, "ask_batch", "optimizers.ask", None),
    (Optimizer, "tell", "optimizers.tell", None),
    (Optimizer, "tell_batch", "optimizers.tell", None),
    (RandomForestRegressor, "fit", "ml.fit", _fit_cells),
    (RandomForestRegressor, "predict", "ml.predict", None),
    (RandomForestRegressor, "predict_mean_std", "ml.predict", None),
    (ConfigurationSpace, "sample_batch", "configspace.sample", _n_configs),
    (ConfigurationSpace, "encode_batch", "configspace.encode", _n_configs),
    (ConfigurationSpace, "neighbours", "configspace.neighbours", _n_configs),
    (NoiseAdjuster, "train", "noise_adjuster.train", _train_rows),
    (NoiseAdjuster, "adjust", "noise_adjuster.adjust", None),
    (OutlierDetector, "is_unstable", "outlier.check", _outlier_verdict),
    (MultiFidelityTaskScheduler, "assign", "scheduler.assign", None),
    (MultiFidelityTaskScheduler, "eligible_workers", "scheduler.eligible", _length),
    (AsyncExecutionEngine, "submit", "engine.submit", None),
    (AsyncExecutionEngine, "next_completed_requests", "engine.wave", None),
    (ExecutionEngine, "evaluate_on", "execution.evaluate", None),
    (EventLog, "append", "eventlog.append", None),
)


class SpanRecorder:
    """In-memory span stack over the calls listed in :data:`TRACED`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._originals: List[Tuple[type, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, attrs: Optional[Attrs]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for cls, method, name, attrs in TRACED:
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, attrs))

    def remove(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "run": self.run_id},
            }
            for index, (name, start, end, parent, _) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def layer_metrics(
    spans: List[list], engine_stats: Optional[Dict], event_log: Optional[str]
) -> Dict[str, float]:
    """Per-layer counts, times and shares of one traced study."""
    n = len(spans)
    durations = [end - start for _, start, end, _, _ in spans]
    layers = [name.split(".")[0] for name, _, _, _, _ in spans]
    child_time = [0.0] * n
    # Inclusive layer time counts a span only when no ancestor shares its
    # layer; ``on_stack`` holds, per span, the layers of its ancestors.
    on_stack: List[frozenset] = [frozenset()] * n
    inclusive: Dict[str, float] = {}
    under_noise = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
            on_stack[i] = on_stack[parent] | {layers[parent]}
            under_noise[i] = under_noise[parent] or spans[parent][0] == "noise_adjuster.train"
        if layers[i] not in on_stack[i]:
            inclusive[layers[i]] = inclusive.get(layers[i], 0.0) + durations[i]

    def select(span_name: str) -> List[int]:
        return [i for i in range(n) if spans[i][0] == span_name]

    def in_layer(layer: str) -> List[int]:
        return [i for i in range(n) if layers[i] == layer]

    def total(indices: List[int]) -> float:
        return float(sum(durations[i] for i in indices))

    def self_s(indices: List[int]) -> float:
        return float(sum(durations[i] - child_time[i] for i in indices))

    def ms(indices: List[int], q: float) -> float:
        return float(np.percentile([durations[i] for i in indices], q) * 1e3) if indices else 0.0

    def attr_sum(indices: List[int]) -> float:
        return sum(spans[i][4] for i in indices)

    def cells(indices: List[int]) -> int:
        return sum(spans[i][4][0] * spans[i][4][1] for i in indices)

    (root,) = select("tuner.run")
    study_s = durations[root]

    def share(layer: str) -> float:
        return 100.0 * inclusive.get(layer, 0.0) / study_s

    assign = select("scheduler.assign")
    trains = select("noise_adjuster.train")
    fits = select("ml.fit")
    noise_fits = [i for i in fits if under_noise[i]]
    smac_fits = [i for i in fits if not under_noise[i]]
    asks = select("optimizers.ask")
    checkpoints = select("tuner.checkpoint")
    proposes = select("samplers.propose")
    completes = select("samplers.complete")
    outliers = select("outlier.check")
    checked = {spans[i][4][0] for i in outliers}
    flagged = {spans[i][4][0] for i in outliers if spans[i][4][1]}
    stats = engine_stats or {}

    # Host ms per accepted sample over the last quarter of the samples,
    # over the first quarter: 1.0 is linear time in samples.  Samples land
    # per wave, so with few waves the quarters share a wave and this is 0.
    landed = np.cumsum([spans[i][4] for i in completes])
    ends = np.array([spans[i][2] for i in completes]) - spans[root][1]

    def t_at(k: float) -> float:
        return float(ends[np.searchsorted(landed, k)])

    n_landed = landed[-1]
    q4_q1 = (t_at(n_landed) - t_at(0.75 * n_landed)) / t_at(0.25 * n_landed)

    return {
        "scheduler.assign.calls": len(assign),
        "scheduler.assign.s": total(assign),
        "scheduler.assign.ms_p90": ms(assign, 90),
        "scheduler.eligible_per_assign": attr_sum(select("scheduler.eligible")) / len(assign),
        "scheduler.share": share("scheduler"),
        "noise_adjuster.train.calls": len(trains),
        "noise_adjuster.refit_ratio": len(noise_fits) / len(trains) if trains else 0.0,
        "noise_adjuster.width": spans[noise_fits[-1]][4][1] if noise_fits else 0,
        "noise_adjuster.rows": spans[trains[-1]][4] if trains else 0,
        "noise_adjuster.adjust.calls": len(select("noise_adjuster.adjust")),
        "noise_adjuster.s": inclusive.get("noise_adjuster", 0.0),
        "noise_adjuster.share": share("noise_adjuster"),
        "ml.fit.smac.calls": len(smac_fits),
        "ml.fit.smac.s": total(smac_fits),
        "ml.fit.smac.cells": cells(smac_fits),
        "ml.fit.noise.calls": len(noise_fits),
        "ml.fit.noise.s": total(noise_fits),
        "ml.fit.noise.cells": cells(noise_fits),
        "ml.predict.calls": len(select("ml.predict")),
        "ml.predict.s": total(select("ml.predict")),
        "ml.share": share("ml"),
        "optimizers.ask.calls": len(asks),
        "optimizers.ask.self_s": self_s(asks),
        "optimizers.ask.ms_p50": ms(asks, 50),
        "optimizers.ask.ms_p90": ms(asks, 90),
        "optimizers.tell.calls": len(select("optimizers.tell")),
        "optimizers.refits_per_ask": len(smac_fits) / len(asks),
        "optimizers.share": share("optimizers"),
        "configspace.calls": len(in_layer("configspace")),
        "configspace.configs": attr_sum(in_layer("configspace")),
        "configspace.s": inclusive.get("configspace", 0.0),
        "configspace.share": share("configspace"),
        "tuner.checkpoint.calls": len(checkpoints),
        "tuner.checkpoint.kb": attr_sum(checkpoints) / len(checkpoints) if checkpoints else 0.0,
        "tuner.checkpoint.share": 100.0 * total(checkpoints) / study_s,
        "eventlog.appends": len(select("eventlog.append")),
        "eventlog.kb": os.path.getsize(event_log) / 1024.0 if event_log else 0.0,
        "eventlog.share": share("eventlog"),
        "engine.submit.calls": len(select("engine.submit")),
        "engine.waves": len(select("engine.wave")),
        "engine.s": inclusive.get("engine", 0.0),
        "engine.retries": stats.get("n_retries", 0),
        "engine.duplicates": stats.get("n_duplicates_submitted", 0),
        "engine.fenced": stats.get("n_suspected", 0),
        "engine.zombies": stats.get("n_zombies_rejected", 0),
        "engine.quarantined": stats.get("n_quarantined", 0),
        "engine.share": share("engine"),
        "samplers.propose.calls": len(proposes),
        "samplers.propose.ms_p50": ms(proposes, 50),
        "samplers.propose.ms_p90": ms(proposes, 90),
        "samplers.complete.calls": len(completes),
        "samplers.self_s": self_s(in_layer("samplers")),
        "outlier.calls": len(outliers),
        "outlier.unstable_frac": len(flagged) / len(checked),
        "execution.evals": len(select("execution.evaluate")),
        "execution.s": inclusive.get("execution", 0.0),
        "tuner.self_s": self_s([root]),
        "tuner.ms_per_sample.q4_q1": q4_q1,
    }
