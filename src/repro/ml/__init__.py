"""From-scratch machine-learning substrate used by the TUNA reproduction.

scikit-learn is not available in the offline environment, so this package
implements the small set of estimators the paper depends on:

* :class:`~repro.ml.tree.DecisionTreeRegressor` — CART regression tree.
* :class:`~repro.ml.forest.RandomForestRegressor` — bagged forest used both as
  the SMAC surrogate model and as the noise-adjuster model (paper §4.3).
* :class:`~repro.ml.gaussian_process.GaussianProcessRegressor` — GP regression
  used by the OtterTune-style optimizer (paper §6.6).
* :class:`~repro.ml.preprocessing.StandardScaler` and
  :class:`~repro.ml.preprocessing.OneHotEncoder` — feature preprocessing.

All estimators follow a minimal ``fit`` / ``predict`` convention operating on
``numpy`` arrays and take explicit seeds for determinism.
"""

from repro.ml.forest import RandomForestRegressor
from repro.ml.gaussian_process import GaussianProcessRegressor
from repro.ml.kernels import ConstantKernel, Matern52Kernel, RBFKernel, WhiteKernel
from repro.ml.metrics import (
    coefficient_of_variation,
    mean_absolute_error,
    mean_relative_error,
    mean_squared_error,
    r2_score,
    relative_range,
)
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "ConstantKernel",
    "DecisionTreeRegressor",
    "GaussianProcessRegressor",
    "Matern52Kernel",
    "OneHotEncoder",
    "RBFKernel",
    "RandomForestRegressor",
    "StandardScaler",
    "WhiteKernel",
    "coefficient_of_variation",
    "mean_absolute_error",
    "mean_relative_error",
    "mean_squared_error",
    "r2_score",
    "relative_range",
]
