"""Single-entry cache for fitted surrogate models.

Refitting a 24-tree random forest is the dominant cost of a SMAC ``ask()``
— even after the all-trees-at-once vectorized builder
(:mod:`repro.ml.treebuilder`) cut the refit itself by an order of
magnitude, skipping the fit entirely still beats redoing it.  SMAC rebuilds
its model from the *entire* observation history, so a fitted model stays
valid exactly as long as that history is unchanged.  :class:`SurrogateCache`
captures that invalidation rule: the caller derives a cheap fingerprint of
its training data (observation count, plus optional checksums) and the
cache returns the previously fitted model whenever the fingerprint matches.

Only one entry is kept — training histories grow monotonically during a
tuning run, so an older fingerprint can never become current again.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional


class SurrogateCache:
    """Keep the most recently fitted surrogate, keyed on a data fingerprint."""

    def __init__(self) -> None:
        self._key: Optional[Hashable] = None
        self._value: Any = None
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any:
        """The cached value for ``key``, or ``None`` on a stale/empty cache."""
        if self._key is not None and key == self._key:
            self.hits += 1
            return self._value
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        self._key = key
        self._value = value

    def invalidate(self) -> None:
        self._key = None
        self._value = None
