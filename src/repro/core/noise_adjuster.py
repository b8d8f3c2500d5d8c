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
* it is refitted from scratch on a geometric schedule rather than after
  every max-budget landing: :meth:`NoiseAdjuster.train` rebuilds the forest
  only when the usable training rows have grown by a factor of
  :data:`REFIT_GROWTH` since the last fit, when a worker absent from that
  fit appears, or when the rows have shrunk.  Every other round keeps the
  fitted forest, so a study of N samples makes O(log N) fits of the
  all-trees-at-once builder in :mod:`repro.ml.treebuilder` instead of O(N).
  ``REFIT_GROWTH = 1.0`` is the paper's every-point schedule: every changed
  training set is refitted and a byte-identical one (recognised by a digest
  of the last fit's matrix) reuses the forest;
* inference is bypassed for configurations flagged unstable — they are
  outside the training distribution and already heavily penalised.
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.telemetry import TELEMETRY_METRICS
from repro.core.datastore import Sample
from repro.ml.forest import RandomForestRegressor
from repro.ml.preprocessing import OneHotEncoder, StandardScaler

#: Refit once the usable training rows reach this multiple of the rows at
#: the last fit (1.0 refits on every changed training set, as in §4.3).
REFIT_GROWTH = 1.25


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
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if min_training_configs < 1:
            raise ValueError("min_training_configs must be >= 1")
        self._worker_encoder = OneHotEncoder(categories=list(worker_ids)).fit([])
        self.n_trees = n_trees
        self.min_training_configs = min_training_configs
        self._rng = np.random.default_rng(seed)
        self._scaler: Optional[StandardScaler] = None
        self._model: Optional[RandomForestRegressor] = None
        # What the current forest was fitted on: the refit schedule compares
        # each round's row count and workers against these.
        self._fit_rows = 0
        self._fit_workers: FrozenSet[str] = frozenset()
        self._fit_digest = b""
        self.n_training_samples = 0
        self.n_training_configs = 0
        self.generation = 0
        self.n_fits = 0

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
    def _refit_due(self, n_rows: int, workers: FrozenSet[str]) -> bool:
        """Whether a training round must rebuild the forest (module docstring)."""
        if self._model is None:
            return True
        # A shrunk training set is a changed one, so at REFIT_GROWTH = 1.0
        # every round is a candidate and the digest alone decides.
        return (
            n_rows >= REFIT_GROWTH * self._fit_rows
            or n_rows < self._fit_rows
            or not workers <= self._fit_workers
        )

    def train(self, groups: Sequence[Sequence[Sample]]) -> bool:
        """Run one training round on max-budget configurations' samples.

        Parameters
        ----------
        groups:
            One sequence of samples per configuration (Algorithm 1's
            ``C × W`` loop).  Crashed samples and samples without telemetry
            are skipped.  Returns ``True`` when a model is in place after the
            round, whether it was refitted or kept (see :data:`REFIT_GROWTH`).
        """
        usable_groups: List[Tuple[List[Sample], float]] = []
        for samples in groups:
            usable = [s for s in samples if not s.crashed and s.telemetry is not None]
            if len(usable) < 2:
                continue
            mean_value = float(np.mean([s.value for s in usable]))
            if mean_value == 0.0:
                continue
            usable_groups.append((usable, mean_value))
        n_configs = len(usable_groups)
        n_rows = sum(len(usable) for usable, _ in usable_groups)
        if n_configs < self.min_training_configs or n_rows < 4:
            return False

        # The schedule needs only the row count and the worker set, so a
        # round that keeps the forest builds no feature matrix.
        workers = frozenset(s.worker_id for usable, _ in usable_groups for s in usable)
        # A round happened either way: the generation counter (exposed in
        # iteration telemetry) and the row counts track rounds, not fits.
        self.n_training_samples = n_rows
        self.n_training_configs = n_configs
        self.generation += 1
        if not self._refit_due(n_rows, workers):
            return True

        X = np.stack(
            [
                self._features(sample.telemetry, sample.worker_id)
                for usable, _ in usable_groups
                for sample in usable
            ]
        )
        y = np.asarray(
            [
                sample.value / mean_value - 1.0  # percent error
                for usable, mean_value in usable_groups
                for sample in usable
            ],
            dtype=float,
        )
        # Exact fingerprint of the training matrix: a round against
        # byte-identical data keeps the fitted forest (and draws no seed).
        digest = hashlib.sha256(
            np.asarray([n_configs, *X.shape]).tobytes() + X.tobytes() + y.tobytes()
        ).digest()
        if digest != self._fit_digest:
            scaler = StandardScaler().fit(X)
            model = RandomForestRegressor(
                n_estimators=self.n_trees,
                min_samples_leaf=2,
                seed=int(self._rng.integers(0, 2**31 - 1)),
            )
            model.fit(scaler.transform(X), y)
            self._scaler = scaler
            self._model = model
            self._fit_digest = digest
            self._fit_rows = n_rows
            self._fit_workers = workers
            self.n_fits += 1
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
