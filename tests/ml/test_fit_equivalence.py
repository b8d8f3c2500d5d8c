"""Vectorized fit must reproduce the pointer reference bit for bit.

``DecisionTreeRegressor.fit`` (level-synchronous builder, see
:mod:`repro.ml.treebuilder`) and ``fit_pointer`` (per-node queue over
pointer nodes) share canonical arithmetic by construction: the same RNG
consumption order for feature subsampling, the same sequential weighted
cumulative sums, the same tie-breaking.  These tests pin that contract at
full strength — *exact* equality of the emitted flat node tables and of
every prediction, across seeds, ``max_features`` settings, duplicate rows,
constant targets and columns, bootstrap sample weights, noise-adjuster-shaped
wide one-hot matrices, the fit shapes of a paper-scale study, and the
builder's feature-block, scan-chunk and partition-group splits at their
smallest sizes.  The position-major running sums the builder scans with
are pinned against per-segment ``np.cumsum`` on their own.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.ml.treebuilder as treebuilder
from repro.ml.forest import RandomForestRegressor
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.tree import DecisionTreeRegressor
from repro.systems.postgres.knobs import build_postgres_knob_space

FLAT_FIELDS = ("feature", "threshold", "left", "right", "value", "variance", "n_samples")


def assert_flat_equal(flat_a, flat_b):
    for field in FLAT_FIELDS:
        a = getattr(flat_a, field)
        b = getattr(flat_b, field)
        assert a.shape == b.shape, field
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b, equal_nan=True), field


def _problem(seed, n, d, duplicates=False, constant=False):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if duplicates:
        X = np.round(X * 4.0) / 4.0
    if constant:
        y = np.full(n, 7.5)
    else:
        y = rng.normal(size=n) + 2.0 * X[:, 0] - X[:, d // 2] ** 2
    return X, y


TREE_CASES = [
    # (seed, n, d, max_features, max_depth, min_leaf, duplicates, constant)
    (0, 120, 5, None, None, 1, False, False),
    (1, 120, 5, 5.0 / 6.0, None, 1, False, False),
    (2, 120, 5, 0.5, None, 1, False, False),
    (3, 120, 5, 2, None, 1, False, False),
    (4, 80, 4, 1, 3, 1, False, False),
    (5, 150, 6, 0.5, None, 7, False, False),
    (6, 90, 5, 5.0 / 6.0, None, 1, True, False),
    (7, 40, 3, None, None, 1, False, True),
    (8, 2, 2, None, None, 1, False, False),
    (9, 1, 2, None, None, 1, False, False),
    (10, 60, 3, 0.5, 1, 1, True, False),
]


class TestTreeFitEquivalence:
    @pytest.mark.parametrize(
        "seed,n,d,max_features,max_depth,min_leaf,dup,const", TREE_CASES
    )
    def test_flat_arrays_and_predictions_identical(
        self, seed, n, d, max_features, max_depth, min_leaf, dup, const
    ):
        X, y = _problem(seed, n, d, duplicates=dup, constant=const)
        kwargs = dict(
            max_depth=max_depth,
            min_samples_leaf=min_leaf,
            max_features=max_features,
            seed=seed * 13 + 1,
        )
        fast = DecisionTreeRegressor(**kwargs).fit(X, y)
        ref = DecisionTreeRegressor(**kwargs).fit_pointer(X, y)
        assert_flat_equal(fast.flat, ref.flat)
        rng = np.random.default_rng(seed + 100)
        for Xq in (X, rng.random((80, d))):
            assert np.array_equal(fast.predict(Xq), ref.predict(Xq))
            mean_a, var_a = fast.predict_with_variance(Xq)
            mean_b, var_b = ref.predict_with_variance(Xq)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(var_a, var_b)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sample_weight_equivalence(self, seed):
        """Integer weights (the bootstrap encoding) agree across both paths."""
        X, y = _problem(seed, 70, 4)
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 4, size=70).astype(float)
        w[0] = 1.0  # guarantee a positive entry
        fast = DecisionTreeRegressor(seed=5).fit(X, y, sample_weight=w)
        ref = DecisionTreeRegressor(seed=5).fit_pointer(X, y, sample_weight=w)
        assert_flat_equal(fast.flat, ref.flat)
        # Rows with zero weight must not influence the tree: root count is
        # the total weight, not the row count.
        assert fast.flat.n_samples[0] == int(w.sum())

    def test_rng_consumption_matches(self):
        """Both fits leave the feature-subsampling stream in the same state."""
        X, y = _problem(11, 100, 6)
        fast = DecisionTreeRegressor(max_features=0.5, seed=9).fit(X, y)
        ref = DecisionTreeRegressor(max_features=0.5, seed=9).fit_pointer(X, y)
        a = fast._rng.integers(0, 2**31 - 1)
        b = ref._rng.integers(0, 2**31 - 1)
        assert a == b


class TestForestFitEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_leaf", [1, 4])
    def test_forest_bit_for_bit(self, seed, min_leaf):
        X, y = _problem(seed, 130, 6)
        kwargs = dict(n_estimators=12, min_samples_leaf=min_leaf, seed=seed)
        fast = RandomForestRegressor(**kwargs).fit(X, y)
        ref = RandomForestRegressor(**kwargs).fit_pointer(X, y)
        assert len(fast.trees_) == len(ref.trees_)
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)
        Xq = np.random.default_rng(seed + 50).random((200, 6))
        mean_a, std_a = fast.predict_mean_std(Xq)
        mean_b, std_b = ref.predict_mean_std(Xq)
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)
        assert np.array_equal(fast.predict(Xq), ref.predict(Xq))

    def test_no_bootstrap_equivalence(self):
        X, y = _problem(4, 90, 5)
        fast = RandomForestRegressor(n_estimators=6, bootstrap=False, seed=2).fit(X, y)
        ref = RandomForestRegressor(n_estimators=6, bootstrap=False, seed=2).fit_pointer(
            X, y
        )
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)

    def test_constant_target_forest(self):
        X, _ = _problem(6, 50, 4)
        y = np.full(50, -3.25)
        fast = RandomForestRegressor(n_estimators=8, seed=1).fit(X, y)
        ref = RandomForestRegressor(n_estimators=8, seed=1).fit_pointer(X, y)
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)
            assert tree_a.n_leaves == 1
        assert np.allclose(fast.predict(X), -3.25)

    def test_duplicate_rows_forest(self):
        """Quantised features force threshold tie-breaking in every tree."""
        X, y = _problem(7, 110, 5, duplicates=True)
        fast = RandomForestRegressor(n_estimators=10, seed=3).fit(X, y)
        ref = RandomForestRegressor(n_estimators=10, seed=3).fit_pointer(X, y)
        for tree_a, tree_b in zip(fast.trees_, ref.trees_):
            assert_flat_equal(tree_a.flat, tree_b.flat)

    def test_forest_rng_consumption_matches(self):
        X, y = _problem(8, 80, 5)
        fast = RandomForestRegressor(n_estimators=5, seed=11).fit(X, y)
        ref = RandomForestRegressor(n_estimators=5, seed=11).fit_pointer(X, y)
        assert fast._rng.integers(0, 2**31 - 1) == ref._rng.integers(0, 2**31 - 1)


def _noise_adjuster_problem(seed, n, n_workers):
    """Telemetry plus a worker one-hot, standardised like ``NoiseAdjuster``.

    Most one-hot columns are all-zero (constant) in a small sample, which is
    the case the builder skips.
    """
    rng = np.random.default_rng(seed)
    telemetry = rng.normal(size=(n, 25))
    telemetry[:, 3] = 4.0  # a constant telemetry channel
    telemetry[:, 7] = np.round(telemetry[:, 7])  # heavy ties
    workers = [f"w{i}" for i in range(n_workers)]
    encoder = OneHotEncoder(categories=workers).fit([])
    who = rng.integers(0, n_workers, size=n)
    one_hot = np.stack([encoder.transform_one(workers[i]) for i in who])
    X = StandardScaler().fit_transform(np.hstack([telemetry, one_hot]))
    y = 0.05 * rng.normal(size=n) + 0.02 * telemetry[:, 0]
    return X, y


def assert_forests_equal(fast, ref, X):
    assert len(fast.trees_) == len(ref.trees_)
    for tree_a, tree_b in zip(fast.trees_, ref.trees_):
        assert_flat_equal(tree_a.flat, tree_b.flat)
    mean_a, std_a = fast.predict_mean_std(X)
    mean_b, std_b = ref.predict_mean_std(X)
    assert np.array_equal(mean_a, mean_b)
    assert np.array_equal(std_a, std_b)
    assert fast._rng.integers(0, 2**31 - 1) == ref._rng.integers(0, 2**31 - 1)


class TestWideFitEquivalence:
    """Noise-adjuster-shaped fits: 25 telemetry columns plus a worker one-hot."""

    @pytest.mark.parametrize(
        "seed,n,n_workers,n_trees", [(0, 30, 500, 4), (1, 90, 10, 12), (2, 30, 10, 8)]
    )
    def test_one_hot_forest_bit_for_bit(self, seed, n, n_workers, n_trees):
        X, y = _noise_adjuster_problem(seed, n, n_workers)
        kwargs = dict(n_estimators=n_trees, min_samples_leaf=2, seed=seed + 7)
        fast = RandomForestRegressor(**kwargs).fit(X, y)
        ref = RandomForestRegressor(**kwargs).fit_pointer(X, y)
        assert_forests_equal(fast, ref, X)

    def test_all_columns_constant(self):
        """No column can split: one leaf per tree, RNG still consumed."""
        X = np.ones((20, 6))
        y = np.arange(20, dtype=float)
        fast = DecisionTreeRegressor(max_features=0.5, seed=4).fit(X, y)
        ref = DecisionTreeRegressor(max_features=0.5, seed=4).fit_pointer(X, y)
        assert_flat_equal(fast.flat, ref.flat)
        assert fast.n_leaves == 1
        assert fast._rng.integers(0, 2**31 - 1) == ref._rng.integers(0, 2**31 - 1)


@st.composite
def _fit_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    levels = draw(st.sampled_from([2, 3, 5, 1000]))  # small counts force ties
    X = np.floor(rng.random((n, d)) * levels) / levels
    for col in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        X[:, col] = draw(st.sampled_from([0.0, -1.5, 3.0]))
    if n > 2 and draw(st.booleans()):
        X[n // 2 :] = X[: n - n // 2]  # duplicate rows
    y = np.round(rng.normal(size=n) * draw(st.sampled_from([1.0, 4.0]))) / 2.0
    max_features = draw(st.sampled_from([None, 0.5, 5.0 / 6.0, 1, 2]))
    min_leaf = draw(st.integers(1, 3))
    return X, y, seed, max_features, min_leaf


class TestFitEquivalenceProperty:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_fit_problems())
    def test_random_problems_bit_for_bit(self, problem):
        X, y, seed, max_features, min_leaf = problem
        tree_kwargs = dict(
            max_features=max_features, min_samples_leaf=min_leaf, seed=seed
        )
        w = np.random.default_rng(seed + 1).integers(0, 3, size=len(y)).astype(float)
        w[0] = 1.0
        fast = DecisionTreeRegressor(**tree_kwargs).fit(X, y, sample_weight=w)
        ref = DecisionTreeRegressor(**tree_kwargs).fit_pointer(X, y, sample_weight=w)
        assert_flat_equal(fast.flat, ref.flat)
        forest_kwargs = dict(
            n_estimators=3, max_features=max_features, min_samples_leaf=min_leaf, seed=seed
        )
        fast = RandomForestRegressor(**forest_kwargs).fit(X, y)
        ref = RandomForestRegressor(**forest_kwargs).fit_pointer(X, y)
        assert_forests_equal(fast, ref, X)


class TestTinyScratchBudgets:
    """The block and chunk splits must not change a single bit of the trees."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Record each scanned block's feature count and chunk count."""
        calls = []
        scan_block = treebuilder._scan_block
        score_chunk = treebuilder._score_chunk

        def counting_scan(features, *args):
            calls.append([features.size, 0])
            scan_block(features, *args)

        def counting_chunk(*args):
            calls[-1][1] += 1
            score_chunk(*args)

        monkeypatch.setattr(treebuilder, "_scan_block", counting_scan)
        monkeypatch.setattr(treebuilder, "_score_chunk", counting_chunk)
        return calls

    @pytest.mark.parametrize(
        "block_entries,scan_cells,path",
        [
            (1, 1, "one-feature blocks"),
            (1000, 1, "multi-feature blocks, multi-chunk scans"),
            (1 << 30, 1, "one block, multi-chunk scans"),
            (1000, 1 << 30, "multi-feature blocks, one chunk"),
        ],
    )
    @pytest.mark.parametrize("shape", ["smac", "one-hot"])
    def test_bit_for_bit_at_tiny_budgets(
        self, monkeypatch, spy, block_entries, scan_cells, path, shape
    ):
        monkeypatch.setattr(treebuilder, "BLOCK_ENTRIES", block_entries)
        monkeypatch.setattr(treebuilder, "SCAN_CELLS", scan_cells)
        if shape == "smac":
            X, y = _problem(3, 60, 8, duplicates=True)
            kwargs = dict(n_estimators=6, min_samples_split=3, seed=5)
        else:
            X, y = _noise_adjuster_problem(4, 40, 30)
            kwargs = dict(n_estimators=6, min_samples_leaf=2, seed=6)
        fast = RandomForestRegressor(**kwargs).fit(X, y)
        ref = RandomForestRegressor(**kwargs).fit_pointer(X, y)
        assert_forests_equal(fast, ref, X)

        features = [n_features for n_features, _ in spy]
        chunks = [n_chunks for _, n_chunks in spy]
        if path == "one-feature blocks":
            assert max(features) == 1
        else:
            assert max(features) > 1
        if "multi-chunk" in path:
            assert max(chunks) > 1
        else:
            assert max(chunks) == 1

    def test_chunk_bounds_respect_budget(self):
        """Chunks cover the segments in order; each holds at most ``budget``
        real entries unless it is a single (longer) segment."""
        lengths = np.array([2, 2, 3, 5, 5, 9, 40])
        bounds = treebuilder._chunk_bounds(lengths, 12)
        assert bounds[0][0] == 0 and bounds[-1][1] == lengths.size
        for (lo, hi), (next_lo, _) in zip(bounds, bounds[1:]):
            assert hi == next_lo
        for lo, hi in bounds:
            assert hi - lo == 1 or lengths[lo:hi].sum() <= 12
        # Greedy: a chunk stops only where the next segment would overflow.
        for (lo, hi), _ in zip(bounds, bounds[1:]):
            assert lengths[lo : hi + 1].sum() > 12
        assert bounds == [(0, 4), (4, 5), (5, 6), (6, 7)]


def _postgres_problem(seed, n, duplicates=False):
    """Encoded PostgreSQL knob configurations, as the SMAC surrogate fits
    them: continuous, integer-grid and two-valued boolean columns."""
    space = build_postgres_knob_space(seed=0)
    rng = np.random.default_rng(seed)
    X = space.encode_batch(space.sample_batch(n, rng=rng))
    if duplicates:
        X[n // 2 :] = X[: n - n // 2]  # re-evaluated configurations
    y = X[:, 0] - 0.5 * X[:, 3] ** 2 + 0.1 * rng.normal(size=n)
    return X, y


#: The fits of a paper-scale study: (shape, rows, duplicates) with the
#: forest settings of ``repro.core.noise_adjuster`` and ``repro.optimizers.smac``.
STUDY_CASES = [
    ("noise", 30, False),
    ("noise", 90, False),
    ("noise", 90, True),
    ("smac", 40, False),
    ("smac", 40, True),
]


def _study_fit(shape, n, duplicates, seed):
    if shape == "noise":
        X, y = _noise_adjuster_problem(seed, n, 10)
        if duplicates:
            X[n // 2 :] = X[: n - n // 2]
        kwargs = dict(n_estimators=24, min_samples_leaf=2, seed=seed)
    else:
        X, y = _postgres_problem(seed, n, duplicates)
        kwargs = dict(
            n_estimators=24, min_samples_split=3, max_features=5.0 / 6.0, seed=seed
        )
    return X, y, kwargs


class TestStudyShapeEquivalence:
    """The noise adjuster's 30x35 and 90x35 fits (25 telemetry columns plus
    a 10-worker one-hot of two-valued columns) and SMAC's 40x21 refits,
    at the default scratch budgets and at the smallest ones."""

    @pytest.mark.parametrize("shape,n,duplicates", STUDY_CASES)
    @pytest.mark.parametrize("budgets", ["default", "tiny"])
    def test_study_fit_bit_for_bit(self, monkeypatch, shape, n, duplicates, budgets):
        if budgets == "tiny":
            monkeypatch.setattr(treebuilder, "BLOCK_ENTRIES", 1)
            monkeypatch.setattr(treebuilder, "SCAN_CELLS", 1)
        X, y, kwargs = _study_fit(shape, n, duplicates, seed=n + 3)
        fast = RandomForestRegressor(**kwargs).fit(X, y)
        ref = RandomForestRegressor(**kwargs).fit_pointer(X, y)
        assert_forests_equal(fast, ref, X)
        Xq = np.random.default_rng(n).permutation(X, axis=0)[: n // 2] + 0.01
        for a, b in zip(fast.predict_mean_std(Xq), ref.predict_mean_std(Xq)):
            assert np.array_equal(a, b)


def _ragged(draw_lengths):
    lengths = np.sort(np.asarray(draw_lengths, dtype=np.intp), kind="stable")
    starts = np.cumsum(lengths) - lengths
    return starts, lengths


class TestPositionMajorSums:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=25),
        st.integers(0, 2**16),
        st.sampled_from([1.0, 1e-3, 1e6]),
    )
    def test_running_sums_equal_per_segment_cumsum(self, lengths, seed, scale):
        """Position-major running sums are ``np.cumsum`` per segment, bit
        for bit, on random ragged lengths (shuffled segment order too)."""
        rng = np.random.default_rng(seed)
        starts, lengths = _ragged(lengths)
        # Segments may sit anywhere in the source array, in any order.
        order = rng.permutation(lengths.size)
        placed = np.cumsum(lengths[order]) - lengths[order]
        starts = np.empty_like(starts)
        starts[order] = placed
        values = rng.normal(size=(int(lengths.sum()), 3)) * scale
        seg, source, sizes, last, ends = treebuilder._position_major(starts, lengths)
        sums = values[source]
        treebuilder._running_sums(sums, sizes)
        for j, (start, length) in enumerate(zip(starts, lengths)):
            want = np.cumsum(values[start : start + length], axis=0)
            got = sums[seg == j]
            assert np.array_equal(got, want)
            assert np.array_equal(sums[last[j]], want[-1])
        assert sizes[0] == lengths.size and list(ends) == list(np.cumsum(sizes))
