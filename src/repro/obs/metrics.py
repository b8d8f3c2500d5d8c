"""Metrics registry: counters, gauges and bounded histograms by name.

The registry is also the engine's counter table.  Every
:class:`~repro.core.async_engine.ClusterEventLoop` and
:class:`~repro.core.async_engine.AsyncExecutionEngine` counts each of its
events once, into the registry attached by ``metrics=`` or — with
observability off — into a private one, and ``TuningResult.engine_stats``
is derived from those counters.  Histograms, gauges and the per-group busy
hours stay behind the ``metrics=`` switch.

Bounded memory comes from two slotting primitives, so a registry wired into
a million-sample study stays fleet-sized:

* :class:`SpillSummary` — running aggregates (count / sum / min / max) of
  everything ever observed, O(1) memory;
* :class:`RingBuffer` — a fixed-capacity numpy-backed ring of the most
  recent values; once full, the oldest value is *spilled* into a
  :class:`SpillSummary`, so the window never silently truncates the story.

Every histogram is one ring; counters and gauges are single slots.

Instruments are addressed by ``name`` plus optional labels; the same
``(name, labels)`` pair always returns the same instrument, so call sites
never hold references across checkpoints (the registry itself pickles, and
is captured by :meth:`repro.core.tuner.TuningLoop.checkpoint` as part of the
engine graph).

Determinism: nothing here draws entropy, and host time enters only through
the injectable :mod:`repro.obs.clock` shim — with the default
:class:`~repro.obs.clock.NullClock`, :meth:`MetricsRegistry.timer` records
nothing and the registry's contents are a pure function of the observed
sequence.  Counting never feeds back into a trajectory, and the other
instruments are guarded by ``if metrics is not None`` and only ever *add*
to registry state, so an attached registry is trajectory-inert (guarded by
``tests/obs/test_obs_equivalence.py``, the same discipline as
``fault_model="none"``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.obs.clock import Clock, NullClock


class SpillSummary:
    """Running aggregates over an unbounded stream, O(1) memory."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def merge(self, other: "SpillSummary") -> None:
        """Fold another summary into this one (per-group → rollup).

        Equivalent to having observed both streams: counts and totals add,
        extrema combine.  Merging an empty summary is a no-op, so rollups
        can fold groups unconditionally.
        """
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            if self.minimum is None or other.minimum < self.minimum:
                self.minimum = other.minimum
        if other.maximum is not None:
            if self.maximum is None or other.maximum > self.maximum:
                self.maximum = other.maximum

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class RingBuffer:
    """Fixed-capacity ring of floats; evicted values feed a spill summary.

    The ring holds the most recent ``capacity`` appended values.  Older
    values are gone from the buffer but remain visible through
    :attr:`spilled` (a :class:`SpillSummary` of evictions only) and through
    the all-time counters, so bounded memory never silently truncates the
    run's aggregate story.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._values = np.empty(capacity, dtype=np.float64)
        self._next = 0  # write cursor
        self._size = 0
        self.n_appended = 0
        self.spilled = SpillSummary()

    def __len__(self) -> int:
        return self._size

    @property
    def n_spilled(self) -> int:
        return self.spilled.count

    def append(self, value: float) -> None:
        value = float(value)
        if self._size == self.capacity:
            self.spilled.observe(float(self._values[self._next]))
        else:
            self._size += 1
        self._values[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self.n_appended += 1

    def as_array(self) -> np.ndarray:
        """Buffered values, oldest first (a copy; safe to mutate)."""
        if self._size < self.capacity:
            return self._values[: self._size].copy()
        return np.concatenate(
            (self._values[self._next :], self._values[: self._next])
        )

    def all_time(self) -> SpillSummary:
        """Aggregates over everything ever appended (spilled + buffered)."""
        combined = SpillSummary()
        combined.merge(self.spilled)
        for value in self.as_array():
            combined.observe(float(value))
        return combined

    def snapshot(self) -> Dict[str, object]:
        """All-time aggregates plus the buffered window, one dict."""
        out = self.all_time().as_dict()
        out["n_appended"] = self.n_appended
        out["n_spilled"] = self.n_spilled
        out["window"] = self.as_array().tolist()
        return out

    def quantile(self, q: float) -> float:
        """Quantile over the *buffered* (most recent) window.

        Bit-for-bit ``np.quantile(window, q)`` (``method="linear"``) for
        finite values, via one partition: the virtual index ``(n - 1) * q``
        and numpy's two-sided lerp (interpolating down from the upper
        neighbour once ``t >= 0.5``).  ``np.quantile`` itself would import
        ``numpy.ma`` in the middle of a study.
        """
        if self._size == 0:
            raise ValueError("quantile of an empty ring buffer")
        window = self._values[: self._size]
        index = (self._size - 1) * q
        below = int(index)
        if below >= self._size - 1:
            return float(window.max())
        low, high = np.partition(window, (below, below + 1))[below : below + 2]
        t = index - below
        diff = high - low
        return float(high - diff * (1 - t) if t >= 0.5 else low + diff * t)


def _key(name: str, labels: Dict[str, object]) -> str:
    """Canonical instrument key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def base_name(key: str) -> str:
    """Instrument name with the label suffix stripped."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


class Counter:
    """Monotonically increasing tally (accepts float increments, e.g. hours)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        self.value += amount


class Gauge:
    """Last-written level (queue depths, reservation counts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Bounded distribution: recent window + all-time spill aggregates."""

    def __init__(self, window: int = 1024) -> None:
        self.ring = RingBuffer(window)

    def observe(self, value: float) -> None:
        self.ring.append(value)

    @property
    def count(self) -> int:
        return self.ring.n_appended

    def quantile(self, q: float) -> float:
        """Quantile estimate over the recent window."""
        return self.ring.quantile(q)

    def all_time(self) -> SpillSummary:
        """Aggregates over everything ever observed (spilled + buffered)."""
        return self.ring.all_time()

    def as_dict(self) -> Dict[str, object]:
        out = self.all_time().as_dict()
        if len(self.ring):
            out["p50"] = self.quantile(0.50)
            out["p90"] = self.quantile(0.90)
            out["p99"] = self.quantile(0.99)
        return out


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges and histograms.

    ``window`` bounds every histogram's recent-value ring; ``clock`` is the
    injectable host-time source used by :meth:`timer` (default: the
    deterministic :class:`~repro.obs.clock.NullClock`, under which timers
    are no-ops).
    """

    def __init__(self, window: int = 1024, clock: Optional[Clock] = None) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.clock: Clock = clock if clock is not None else NullClock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments ----------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(self.window)
        return instrument

    def alias(self, name: str, target: str) -> None:
        """Expose counter ``target`` under a second key ``name``: two layers
        that name one event share one count instead of counting it twice."""
        self._counters[name] = self.counter(target)

    # -- hot-path conveniences ------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        self.counter(name, **labels).inc(amount)

    def set(self, name: str, value: float, **labels: object) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.histogram(name, **labels).observe(value)

    @contextmanager
    def timer(self, name: str, **labels: object) -> Iterator[None]:
        """Time a block in host seconds — a no-op under the NullClock."""
        if not self.clock.enabled:
            yield
            return
        started = self.clock.now()
        try:
            yield
        finally:
            self.observe(name, self.clock.now() - started, **labels)

    # -- rollups & export -----------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of a counter (0.0 if it was never touched)."""
        instrument = self._counters.get(_key(name, labels))
        return 0.0 if instrument is None else instrument.value

    def total(self, key: str) -> float:
        """Counter ``key`` (labels included), or a bare name summed over
        every label set it was counted under."""
        return sum(
            (
                counter.value
                for name, counter in self._counters.items()
                if name == key or base_name(name) == key
            ),
            0.0,
        )

    def rollup(self, name: str) -> SpillSummary:
        """All-time aggregates of ``name`` merged across every label set."""
        combined = SpillSummary()
        for key, histogram in self._histograms.items():
            if base_name(key) == name:
                combined.merge(histogram.all_time())
        return combined

    def labelled(self, name: str) -> Dict[str, float]:
        """Counter values of ``name`` keyed by full labelled key, sorted."""
        return {
            key: counter.value
            for key, counter in sorted(self._counters.items())
            if base_name(key) == name
        }

    def as_dict(self) -> Dict[str, object]:
        """Deterministic snapshot of every instrument (sorted keys)."""
        return {
            "counters": {
                key: self._counters[key].value for key in sorted(self._counters)
            },
            "gauges": {key: self._gauges[key].value for key in sorted(self._gauges)},
            "histograms": {
                key: self._histograms[key].as_dict()
                for key in sorted(self._histograms)
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


__all__: Tuple[str, ...] = (
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RingBuffer",
    "SpillSummary",
    "base_name",
)
