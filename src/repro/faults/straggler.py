"""Straggler detection and speculative re-execution policy (LATE-style).

A *straggler* is a run whose elapsed time already exceeds what the completed
population suggests it should have needed.  Detection is quantile-based over
**speed-normalised** durations (observed wall-clock times the worker's SKU
factor), so a slow SKU's legitimately longer runs never read as stragglers
in a heterogeneous fleet — the same Gavel-style normalisation the placement
ranking uses.

The policy is deliberately conservative, mirroring classic speculative
execution (Zaharia et al., OSDI'08): wait for a minimum history, flag an
in-flight run once its normalised elapsed time passes
``quantile(history) * slack``, and launch at most ``max_clones_per_item``
duplicate on an idle worker.  The execution engine owns the mechanics
(first-finish-wins, cancellation, worker release); this module owns the
*decision*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import RingBuffer


@dataclass(frozen=True)
class SpeculationPolicy:
    """Tunables of the speculative re-execution decision."""

    #: Quantile of completed normalised durations that anchors the threshold.
    quantile: float = 0.9
    #: Multiplier on the quantile: how far past "normal" a run must be.
    #: Chasing mild (<1.5x) slowdowns wastes duplicate capacity for little
    #: makespan gain, so the default only fires well past the populace.
    slack: float = 1.5
    #: Completed runs required before any detection fires (cold-start guard).
    min_history: int = 5
    #: Duplicates allowed per work item (first-finish-wins per pair).
    max_clones_per_item: int = 1
    #: Completed durations retained for the quantile (ring-buffered): the
    #: threshold tracks the most recent window instead of the whole run, so
    #: detector memory is bounded on million-sample runs and the threshold
    #: adapts to workload drift.  Runs shorter than the window are
    #: bit-for-bit the unwindowed behaviour.
    history_window: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.slack < 1.0:
            raise ValueError("slack must be >= 1.0")
        if self.min_history < 1:
            raise ValueError("min_history must be >= 1")
        if self.max_clones_per_item < 1:
            raise ValueError("max_clones_per_item must be >= 1")
        if self.history_window < self.min_history:
            raise ValueError("history_window must be >= min_history")


class StragglerDetector:
    """Quantile detector over completed-sample duration statistics.

    The history is a bounded ring (``policy.history_window`` most recent
    normalised durations); evicted values survive only as aggregates.  This
    keeps detector memory independent of run length and makes the threshold
    a moving-window statistic — identical to the unwindowed detector for
    any run shorter than the window.
    """

    def __init__(self, policy: Optional[SpeculationPolicy] = None) -> None:
        self.policy = policy if policy is not None else SpeculationPolicy()
        self._durations = RingBuffer(self.policy.history_window)
        self._threshold: Optional[float] = None  # cache, invalidated by observe

    @property
    def n_observed(self) -> int:
        """All-time observation count (window evictions included)."""
        return self._durations.n_appended

    @property
    def n_windowed(self) -> int:
        """Observations currently inside the quantile window."""
        return len(self._durations)

    def observe(self, normalized_duration: float) -> None:
        """Record one completed run's speed-normalised duration."""
        if normalized_duration < 0:
            raise ValueError("durations cannot be negative")
        self._durations.append(float(normalized_duration))
        self._threshold = None

    def threshold(self) -> Optional[float]:
        """Normalised elapsed time beyond which a run counts as straggling.

        ``None`` while the history is shorter than the policy's
        ``min_history`` — no detection fires during cold start.
        """
        if self._durations.n_appended < self.policy.min_history:
            return None
        if self._threshold is None:
            anchor = self._durations.quantile(self.policy.quantile)
            self._threshold = anchor * self.policy.slack
        return self._threshold

    def is_straggler(self, normalized_elapsed: float) -> bool:
        threshold = self.threshold()
        return threshold is not None and normalized_elapsed > threshold
