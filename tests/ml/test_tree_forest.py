"""Tests for the CART tree and random-forest regressors."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


def _make_regression(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 5))
    y = 3.0 * X[:, 0] + np.sin(4.0 * X[:, 1]) + 0.5 * X[:, 2] ** 2
    return X, y


class TestDecisionTree:
    def test_fits_training_data_exactly_when_unrestricted(self):
        X, y = _make_regression(n=80)
        tree = DecisionTreeRegressor(seed=0).fit(X, y)
        assert r2_score(y, tree.predict(X)) > 0.999

    def test_single_sample(self):
        tree = DecisionTreeRegressor().fit([[1.0, 2.0]], [5.0])
        assert tree.predict([[9.0, 9.0]])[0] == pytest.approx(5.0)

    def test_constant_target(self):
        X = np.random.default_rng(0).random((20, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(20, 7.0))
        assert np.allclose(tree.predict(X), 7.0)
        assert tree.n_leaves == 1

    def test_max_depth_limits_depth(self):
        X, y = _make_regression(n=150)
        tree = DecisionTreeRegressor(max_depth=3, seed=0).fit(X, y)
        assert tree.depth <= 3

    def test_min_samples_leaf_respected(self):
        X, y = _make_regression(n=60)
        tree = DecisionTreeRegressor(min_samples_leaf=10, seed=0).fit(X, y)
        flat = tree.flat
        leaves = flat.left < 0
        assert np.all(flat.n_samples[leaves] >= 10)

    def test_depth_iterative_on_degenerate_chain(self):
        # An exponentially growing target keeps splitting off the largest
        # remaining elements, producing a heavily unbalanced tree; computing
        # its depth under a tiny recursion budget proves the walk is
        # iterative (the old nested-recursive version needed ~2 frames per
        # level and would raise RecursionError here).
        import inspect
        import sys

        n = 600
        X = np.arange(n, dtype=float)[:, None]
        y = 1.8 ** np.arange(n)
        tree = DecisionTreeRegressor(seed=0).fit(X, y)
        limit = sys.getrecursionlimit()
        # Leave headroom above the live stack (pytest runners vary) while
        # staying far below what a recursive walk of this tree would need.
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            depth = tree.depth
        finally:
            sys.setrecursionlimit(limit)
        assert depth > 250
        assert tree.n_leaves == n

    def test_generalises_on_smooth_function(self):
        X, y = _make_regression(n=400, seed=1)
        Xt, yt = _make_regression(n=100, seed=2)
        tree = DecisionTreeRegressor(min_samples_leaf=3, seed=0).fit(X, y)
        assert r2_score(yt, tree.predict(Xt)) > 0.8

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_dimension_mismatch_raises(self):
        X, y = _make_regression(n=30)
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    @pytest.mark.parametrize("max_features", [1.5, 0, 0.0, -2, -0.5, True, "sqrt"])
    def test_invalid_max_features_rejected_at_construction(self, max_features):
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeRegressor(max_features=max_features)
        with pytest.raises(ValueError, match="max_features"):
            RandomForestRegressor(max_features=max_features)

    @pytest.mark.parametrize("max_features", [None, 1.0, 0.5, 1e-3, 1, 3, 50, np.int64(2)])
    def test_valid_max_features_accepted(self, max_features):
        X, y = _make_regression(n=40)
        tree = DecisionTreeRegressor(max_features=max_features, seed=0).fit(X, y)
        forest = RandomForestRegressor(
            n_estimators=3, max_features=max_features, seed=0
        ).fit(X, y)
        assert tree.predict(X).shape == forest.predict(X).shape == (40,)

    def test_variance_prediction_zero_for_pure_leaves(self):
        X, y = _make_regression(n=50)
        tree = DecisionTreeRegressor(seed=0).fit(X, y)
        _, var = tree.predict_with_variance(X)
        assert np.all(var >= 0.0)

    def test_deterministic_given_seed(self):
        X, y = _make_regression(n=100)
        p1 = DecisionTreeRegressor(max_features=0.5, seed=7).fit(X, y).predict(X)
        p2 = DecisionTreeRegressor(max_features=0.5, seed=7).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)


class TestRandomForest:
    def test_fits_and_generalises(self):
        X, y = _make_regression(n=300, seed=3)
        Xt, yt = _make_regression(n=100, seed=4)
        forest = RandomForestRegressor(n_estimators=25, seed=0).fit(X, y)
        assert r2_score(yt, forest.predict(Xt)) > 0.85

    def test_prediction_shape(self):
        X, y = _make_regression(n=50)
        forest = RandomForestRegressor(n_estimators=5, seed=0).fit(X, y)
        assert forest.predict(X[:7]).shape == (7,)

    def test_mean_std_shapes_and_positive_std(self):
        X, y = _make_regression(n=100)
        forest = RandomForestRegressor(n_estimators=10, seed=1).fit(X, y)
        mean, std = forest.predict_mean_std(X[:9])
        assert mean.shape == (9,)
        assert std.shape == (9,)
        assert np.all(std >= 0.0)

    def test_uncertainty_larger_far_from_data(self):
        rng = np.random.default_rng(0)
        X = rng.random((150, 2)) * 0.4  # train only in [0, 0.4]^2
        y = X[:, 0] * 10 + rng.normal(0, 0.05, 150)
        forest = RandomForestRegressor(n_estimators=30, seed=2).fit(X, y)
        _, std_near = forest.predict_mean_std(np.array([[0.2, 0.2]]))
        _, std_far = forest.predict_mean_std(np.array([[0.95, 0.95]]))
        # Not guaranteed in general for forests, but holds for this setup.
        assert std_far[0] >= std_near[0] * 0.5

    def test_deterministic_given_seed(self):
        X, y = _make_regression(n=80)
        f1 = RandomForestRegressor(n_estimators=8, seed=42).fit(X, y)
        f2 = RandomForestRegressor(n_estimators=8, seed=42).fit(X, y)
        assert np.array_equal(f1.predict(X), f2.predict(X))

    def test_different_seeds_differ(self):
        X, y = _make_regression(n=80)
        f1 = RandomForestRegressor(n_estimators=8, seed=1).fit(X, y)
        f2 = RandomForestRegressor(n_estimators=8, seed=2).fit(X, y)
        assert not np.array_equal(f1.predict(X), f2.predict(X))

    def test_feature_importances_sum_to_one(self):
        X, y = _make_regression(n=120)
        forest = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        importances = forest.feature_importances()
        assert importances.shape == (5,)
        assert importances.sum() == pytest.approx(1.0)

    def test_important_feature_detected(self):
        rng = np.random.default_rng(5)
        X = rng.random((300, 4))
        y = 10.0 * X[:, 2] + rng.normal(0, 0.01, 300)
        forest = RandomForestRegressor(n_estimators=20, seed=0).fit(X, y)
        importances = forest.feature_importances()
        assert int(np.argmax(importances)) == 2

    def test_small_training_set(self):
        """Noise adjuster is a cold-start model; must cope with tiny data."""
        X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        y = np.array([1.0, 2.0, 3.0])
        forest = RandomForestRegressor(n_estimators=5, seed=0).fit(X, y)
        preds = forest.predict(X)
        assert preds.shape == (3,)
        assert np.all(np.isfinite(preds))

    def test_errors(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)
        forest = RandomForestRegressor(n_estimators=3)
        with pytest.raises(RuntimeError):
            forest.predict([[1.0]])
        with pytest.raises(ValueError):
            forest.fit(np.zeros((0, 2)), [])
