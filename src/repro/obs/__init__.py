"""Observability over the discrete-event tuning stack.

Three layers, all off by default and trajectory-inert when enabled:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters, gauges
  and bounded histograms, threaded through the event loop, engine,
  scheduler and optimizers via ``metrics=`` parameters;
* :mod:`repro.obs.tracing` — work-item lifecycle spans over simulated time
  (live via ``tracer=TraceRecorder()``, or offline from any replayed event
  log), exportable as Chrome trace-event JSON;
* :mod:`repro.obs.report` — study run reports (markdown/JSON) rendered by
  ``python -m repro.obs report <eventlog>``.

Host time enters only through the injectable :mod:`repro.obs.clock` shim;
the default :class:`NullClock` never reads the wall clock.

The engine imports :mod:`repro.obs.metrics` (its counter table) in every
study; the tracer and the report load on first use, so that import stays
cheap.
"""

from importlib import import_module
from typing import Any

from repro.obs.clock import Clock, HostClock, NullClock
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

_LAZY = {
    "RunReport": "repro.obs.report",
    "report_from_log": "repro.obs.report",
    "Span": "repro.obs.tracing",
    "TraceRecorder": "repro.obs.tracing",
    "spans_from_events": "repro.obs.tracing",
    "to_chrome_trace": "repro.obs.tracing",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "HostClock",
    "MetricsRegistry",
    "NullClock",
    "RunReport",
    "Span",
    "TraceRecorder",
    "report_from_log",
    "spans_from_events",
    "to_chrome_trace",
]
