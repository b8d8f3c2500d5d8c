"""Noise-adjuster model (§4.3, Algorithms 1 and 2).

Given a sample's guest-OS telemetry and a one-hot encoding of the worker it
ran on, a random-forest regressor predicts the sample's *relative error*
(how far the measured value sits from the configuration's mean), and the
measured value is divided by ``1 + prediction`` to recover an estimate of the
noise-free mean.  Design decisions follow the paper:

* the model starts empty for every tuning run (no transfer learning);
* it trains only on configurations that have been evaluated at the highest
  budget (those are the most reliable, and unstable configs have already been
  filtered out of them by the outlier detector);
* it is rebuilt from scratch every time a new training point arrives (random
  forests are cheap to train at this scale — the vectorized all-trees-at-once
  builder in :mod:`repro.ml.treebuilder` fits the whole 24-tree forest in one
  level-synchronous pass); rebuilds against an *unchanged* training set are
  skipped via a :class:`~repro.ml.cache.SurrogateCache` keyed on a
  fingerprint of the training matrix;
* inference is bypassed for configurations flagged unstable — they are
  outside the training distribution and already heavily penalised.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cloud.telemetry import TELEMETRY_METRICS
from repro.core.datastore import Sample
from repro.ml.cache import SurrogateCache
from repro.ml.forest import RandomForestRegressor
from repro.ml.preprocessing import OneHotEncoder, StandardScaler


class NoiseAdjuster:
    """Random-forest model of sample noise."""

    def __init__(
        self,
        worker_ids: Sequence[str],
        n_trees: int = 24,
        min_training_configs: int = 1,
        seed: Optional[int] = None,
    ) -> None:
        if not worker_ids:
            raise ValueError("worker_ids must be non-empty")
        if min_training_configs < 1:
            raise ValueError("min_training_configs must be >= 1")
        self._worker_encoder = OneHotEncoder(categories=list(worker_ids)).fit([])
        self.n_trees = n_trees
        self.min_training_configs = min_training_configs
        self._rng = np.random.default_rng(seed)
        self._scaler: Optional[StandardScaler] = None
        self._model: Optional[RandomForestRegressor] = None
        self._cache = SurrogateCache()
        self.n_training_samples = 0
        self.n_training_configs = 0
        self.generation = 0

    # ------------------------------------------------------------------ state
    @property
    def is_trained(self) -> bool:
        return self._model is not None

    def _features(self, telemetry: np.ndarray, worker_id: str) -> np.ndarray:
        telemetry = np.asarray(telemetry, dtype=float)
        if telemetry.shape != (len(TELEMETRY_METRICS),):
            raise ValueError(
                f"telemetry vector must have {len(TELEMETRY_METRICS)} entries, "
                f"got shape {telemetry.shape}"
            )
        worker_vec = self._worker_encoder.transform_one(worker_id)
        return np.concatenate([telemetry, worker_vec])

    # ------------------------------------------------------------------ train
    def train(self, groups: Sequence[Sequence[Sample]]) -> bool:
        """(Re)build the model from max-budget configurations' samples.

        Parameters
        ----------
        groups:
            One sequence of samples per configuration (Algorithm 1's
            ``C × W`` loop).  Crashed samples and samples without telemetry
            are skipped.  Returns ``True`` when a model was fitted.
        """
        X_rows: List[np.ndarray] = []
        y_rows: List[float] = []
        n_configs = 0
        for samples in groups:
            usable = [s for s in samples if not s.crashed and s.telemetry is not None]
            if len(usable) < 2:
                continue
            mean_value = float(np.mean([s.value for s in usable]))
            if mean_value == 0.0:
                continue
            n_configs += 1
            for sample in usable:
                X_rows.append(self._features(sample.telemetry, sample.worker_id))
                y_rows.append(sample.value / mean_value - 1.0)  # percent error

        if n_configs < self.min_training_configs or len(X_rows) < 4:
            return False

        X = np.stack(X_rows, axis=0)
        y = np.asarray(y_rows, dtype=float)
        # Exact fingerprint of the training matrix: a retrain against
        # byte-identical data (e.g. repeated max-budget evaluations that
        # contributed no usable new samples) reuses the fitted forest.
        # Hashing the raw bytes is O(n·d) — negligible next to a refit —
        # and cannot collide the way summary statistics can.
        key = (n_configs, X.shape, X.tobytes(), y.tobytes())
        cached = self._cache.get(key)
        if cached is not None:
            # The refit is skipped, but a training round still happened:
            # keep the generation counter (exposed in iteration telemetry)
            # advancing exactly as an uncached rebuild would.
            self._scaler, self._model = cached
            self.n_training_samples = len(y_rows)
            self.n_training_configs = n_configs
            self.generation += 1
            return True
        scaler = StandardScaler().fit(X)
        model = RandomForestRegressor(
            n_estimators=self.n_trees,
            min_samples_leaf=2,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )
        model.fit(scaler.transform(X), y)
        self._cache.put(key, (scaler, model))
        self._scaler = scaler
        self._model = model
        self.n_training_samples = len(y_rows)
        self.n_training_configs = n_configs
        self.generation += 1
        return True

    # ------------------------------------------------------------------ infer
    def predict_error(self, telemetry: np.ndarray, worker_id: str) -> float:
        """Predicted relative error ``s`` for one sample (Algorithm 2 line 1)."""
        if self._model is None or self._scaler is None:
            raise RuntimeError("noise adjuster has not been trained yet")
        features = self._features(telemetry, worker_id)[None, :]
        return float(self._model.predict(self._scaler.transform(features))[0])

    def adjust(self, sample: Sample, is_outlier: bool = False) -> float:
        """Return the de-noised value for a sample (Algorithm 2).

        Crashed samples, unstable configurations and samples without telemetry
        bypass the model and keep their raw value, as does everything before
        the first training round.
        """
        if (
            is_outlier
            or sample.crashed
            or sample.telemetry is None
            or not self.is_trained
        ):
            return float(sample.value)
        predicted = self.predict_error(sample.telemetry, sample.worker_id)
        # Guard against pathological predictions (paper's future-work note on
        # guardrails): never let the model swing a value by more than 30 %.
        predicted = float(np.clip(predicted, -0.30, 0.30))
        return float(sample.value / (1.0 + predicted))

    def adjust_many(self, samples: Sequence[Sample], is_outlier: bool = False) -> List[float]:
        """:meth:`adjust` for several samples, bit-for-bit, with one scaler
        transform and one forest ``predict`` over all samples the model
        applies to (the rest keep their raw values, as in :meth:`adjust`)."""
        values = [float(sample.value) for sample in samples]
        if is_outlier or self._model is None or self._scaler is None:
            return values
        rows = [
            i for i, sample in enumerate(samples)
            if not sample.crashed and sample.telemetry is not None
        ]
        if not rows:
            return values
        features = np.stack(
            [self._features(samples[i].telemetry, samples[i].worker_id) for i in rows]
        )
        predicted = np.clip(
            self._model.predict(self._scaler.transform(features)), -0.30, 0.30
        )
        for i, error in zip(rows, predicted.tolist()):
            values[i] = float(samples[i].value / (1.0 + error))
        return values
