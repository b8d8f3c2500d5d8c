"""Pickling a fitted forest writes its stacked node table once.

``RandomForestRegressor`` pickles only its ``_FlatForest`` (without the
derived ``_child`` routing array) and rebuilds ``trees_`` from it on load.
The restored forest must predict bit for bit like the original.
"""

import pickle
import pickletools

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

FLAT_FIELDS = ("feature", "threshold", "left", "right", "value", "variance", "n_samples")


def _data(n=90, d=6, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = 2.0 * X[:, 0] + np.sin(5.0 * X[:, 1]) + 0.3 * rng.normal(size=n)
    return X, y, rng.random((40, d))


def _round_trip(forest):
    return pickle.loads(pickle.dumps(forest, protocol=pickle.HIGHEST_PROTOCOL))


def _fitted(method="fit", **kwargs):
    X, y, Q = _data()
    forest = RandomForestRegressor(n_estimators=7, seed=11, **kwargs)
    getattr(forest, method)(X, y)
    return forest, X, y, Q


@pytest.mark.parametrize("method", ["fit", "fit_pointer"])
def test_predictions_bit_for_bit(method):
    forest, _, _, Q = _fitted(method, min_samples_leaf=2)
    restored = _round_trip(forest)
    np.testing.assert_array_equal(restored.predict(Q), forest.predict(Q))
    for got, want in zip(restored.predict_mean_std(Q), forest.predict_mean_std(Q)):
        np.testing.assert_array_equal(got, want)
    trees = np.array([4, 0, 4, 6, 2, 2, 1])
    for got, want in zip(
        restored.predict_mean_std(Q, trees=trees),
        forest.predict_mean_std(Q, trees=trees),
    ):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        restored.feature_importances(), forest.feature_importances()
    )


@pytest.mark.parametrize("method", ["fit", "fit_pointer"])
def test_tree_tables_equal_after_round_trip(method):
    forest, _, _, _ = _fitted(method)
    restored = _round_trip(forest)
    assert len(restored.trees_) == len(forest.trees_)
    for got, want in zip(restored.trees_, forest.trees_):
        assert got.n_features_ == want.n_features_
        assert (got.max_depth, got.min_samples_leaf, got.max_features) == (
            want.max_depth,
            want.min_samples_leaf,
            want.max_features,
        )
        for name in FLAT_FIELDS:
            a, b = getattr(got.flat, name), getattr(want.flat, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
    np.testing.assert_array_equal(restored._flat._child, forest._flat._child)


def test_payload_holds_no_tree_objects():
    forest, _, _, _ = _fitted()
    payload = pickle.dumps(forest, protocol=pickle.HIGHEST_PROTOCOL)
    names = {
        arg
        for op, arg, _ in pickletools.genops(payload)
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "GLOBAL", "STACK_GLOBAL")
        and isinstance(arg, str)
    }
    assert "RandomForestRegressor" in names
    assert "DecisionTreeRegressor" not in names
    assert "FlatTree" not in names
    assert "_child" not in names
    # Each node is written once: smaller than the per-tree objects alone.
    assert len(payload) < len(pickle.dumps(forest.trees_))


def test_pointer_fit_oracle_predict_after_round_trip():
    forest, _, _, Q = _fitted("fit_pointer")
    restored = _round_trip(forest)
    for got, want in zip(
        restored.predict_mean_std_pointer(Q), forest.predict_mean_std_pointer(Q)
    ):
        np.testing.assert_array_equal(got, want)


def test_unfitted_forest_round_trips():
    restored = _round_trip(RandomForestRegressor(n_estimators=3, seed=1))
    assert restored.trees_ == []
    with pytest.raises(RuntimeError, match="fit before predict"):
        restored.predict(np.zeros((1, 2)))


def test_refit_after_round_trip_matches_uninterrupted():
    """The forest's own seed stream survives, so later fits agree too."""
    forest, X, y, Q = _fitted()
    restored = _round_trip(forest)
    forest.fit(X[:60], y[:60])
    restored.fit(X[:60], y[:60])
    np.testing.assert_array_equal(restored.predict(Q), forest.predict(Q))


def test_tree_stream_is_created_lazily_from_its_seed():
    tree = DecisionTreeRegressor(seed=42)
    assert tree._rng_stream is None
    np.testing.assert_array_equal(
        tree._rng.random(4), np.random.default_rng(42).random(4)
    )
    # Forest-built trees never draw, so they never build a stream.
    forest, _, _, _ = _fitted()
    assert all(t._rng_stream is None for t in forest.trees_)


def test_fit_defers_the_per_tree_views():
    forest, _, _, _ = _fitted()
    assert forest._trees is None
    trees = forest.trees_
    assert len(trees) == 7 and forest.trees_ is trees
    forest.fit(*_data()[:2])
    assert forest._trees is None


def test_state_with_an_empty_trees_list_restores():
    """Checkpoints written before the views were lazy stored ``trees_: []``."""
    forest, _, _, Q = _fitted()
    state = forest.__getstate__()
    del state["_trees"]
    state["trees_"] = []
    restored = RandomForestRegressor.__new__(RandomForestRegressor)
    restored.__setstate__(state)
    assert "trees_" not in vars(restored)
    for got, want in zip(restored.predict_mean_std(Q), forest.predict_mean_std(Q)):
        np.testing.assert_array_equal(got, want)
    assert len(restored.trees_) == len(forest.trees_)
