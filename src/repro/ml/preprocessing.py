"""Feature preprocessing: standardisation and one-hot encoding.

The paper's noise-adjuster model (Algorithm 1) is
``RandomForestRegressor ∘ Standardize`` over guest-OS metrics concatenated with
a one-hot encoding of the worker id.  These two transformers provide exactly
that functionality.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


class StandardScaler:
    """Standardise features to zero mean and unit variance.

    Columns with zero variance are left centred but not scaled, which keeps
    constant telemetry channels (e.g. total memory) from producing NaNs.
    """

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, X) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("StandardScaler expects a 2-D array")
        if X.shape[0] == 0:
            raise ValueError("cannot fit StandardScaler on an empty array")
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler must be fit before transform")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.mean_.shape[0]:
            raise ValueError("feature dimension mismatch in StandardScaler.transform")
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler must be fit before inverse_transform")
        X = np.asarray(X, dtype=float)
        return X * self.scale_ + self.mean_


class OneHotEncoder:
    """One-hot encode a single categorical column of hashable labels.

    Unknown categories at transform time map to the all-zeros vector, which is
    the behaviour the noise adjuster needs when a sample arrives from a worker
    that was not present in the training set.
    """

    def __init__(self, categories: Optional[Sequence] = None) -> None:
        if categories is not None:
            categories = list(categories)
            if len(dict.fromkeys(categories)) != len(categories):
                raise ValueError("OneHotEncoder categories must be unique")
        self._explicit_categories = categories
        self.categories_: Optional[list] = None
        self._index: dict = {}

    def fit(self, labels: Sequence) -> "OneHotEncoder":
        if self._explicit_categories is not None:
            self.categories_ = list(self._explicit_categories)
        else:
            self.categories_ = list(dict.fromkeys(labels))
            if not self.categories_:
                raise ValueError("cannot fit OneHotEncoder on an empty label sequence")
        self._index = {cat: i for i, cat in enumerate(self.categories_)}
        return self

    @property
    def n_categories(self) -> int:
        if self.categories_ is None:
            raise RuntimeError("OneHotEncoder must be fit first")
        return len(self.categories_)

    def transform(self, labels: Sequence) -> np.ndarray:
        if self.categories_ is None:
            raise RuntimeError("OneHotEncoder must be fit before transform")
        out = np.zeros((len(labels), len(self.categories_)), dtype=float)
        for row, label in enumerate(labels):
            col = self._index.get(label)
            if col is not None:
                out[row, col] = 1.0
        return out

    def fit_transform(self, labels: Sequence) -> np.ndarray:
        return self.fit(labels).transform(labels)

    def transform_one(self, label) -> np.ndarray:
        """Encode a single label as a 1-D vector."""
        return self.transform([label])[0]
