"""Tests for repro.ml.preprocessing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.preprocessing import OneHotEncoder, StandardScaler


class TestStandardScaler:
    def test_transform_gives_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Xt = StandardScaler().fit_transform(X)
        assert np.allclose(Xt.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Xt.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_does_not_nan(self):
        X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        Xt = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Xt))
        assert np.allclose(Xt[:, 1], 0.0)

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3)) * 10 + 2
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform([[1.0]])

    def test_dimension_mismatch_raises(self):
        scaler = StandardScaler().fit([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            scaler.transform([[1.0, 2.0, 3.0]])

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros((0, 3)))

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(
                st.integers(min_value=2, max_value=30),
                st.integers(min_value=1, max_value=5),
            ),
            elements=st.floats(min_value=-1e6, max_value=1e6),
        )
    )
    def test_roundtrip_property(self, X):
        scaler = StandardScaler().fit(X)
        back = scaler.inverse_transform(scaler.transform(X))
        assert np.allclose(back, X, atol=1e-6, rtol=1e-6)


class TestOneHotEncoder:
    def test_basic_encoding(self):
        enc = OneHotEncoder().fit(["a", "b", "c"])
        out = enc.transform(["b", "a"])
        assert out.shape == (2, 3)
        assert out[0].tolist() == [0.0, 1.0, 0.0]
        assert out[1].tolist() == [1.0, 0.0, 0.0]

    def test_unknown_category_maps_to_zeros(self):
        enc = OneHotEncoder().fit(["w1", "w2"])
        out = enc.transform(["w3"])
        assert out.tolist() == [[0.0, 0.0]]

    def test_explicit_categories(self):
        enc = OneHotEncoder(categories=["w0", "w1", "w2"]).fit([])
        assert enc.n_categories == 3
        assert enc.transform_one("w2").tolist() == [0.0, 0.0, 1.0]

    def test_duplicate_explicit_categories_rejected(self):
        """A repeated category would get a dead column and widen every row."""
        with pytest.raises(ValueError, match="unique"):
            OneHotEncoder(categories=["w0", "w0", "w1"])

    def test_refit_rebuilds_the_index(self):
        enc = OneHotEncoder().fit(["a", "b"])
        enc.fit(["b", "c", "a"])
        assert enc.transform(["a", "c"]).tolist() == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_duplicate_labels_collapse(self):
        enc = OneHotEncoder().fit(["x", "x", "y", "x"])
        assert enc.categories_ == ["x", "y"]

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            OneHotEncoder().fit([])

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            OneHotEncoder().transform(["a"])

    def test_each_row_sums_to_at_most_one(self):
        enc = OneHotEncoder().fit(list("abcdef"))
        out = enc.transform(list("fedxyz"))
        sums = out.sum(axis=1)
        assert np.all((sums == 0.0) | (sums == 1.0))
