"""CART regression tree used as the building block of the random forest.

The implementation is a plain variance-reduction CART over dense ``numpy``
arrays.  It is intentionally small but supports the features the surrogate and
noise-adjuster models need: per-split feature subsampling (``max_features``),
depth and leaf-size limits, per-leaf variance estimates so the forest can
expose predictive uncertainty to the Bayesian optimizer, and integer sample
weights so bootstrap resamples never materialise duplicated rows.

Training layout
---------------
``fit`` no longer recurses over pointer nodes: it delegates to the
level-synchronous builder in :mod:`repro.ml.treebuilder`, which presorts each
non-constant feature column once, grows a breadth-first frontier, and scores
the best variance-reduction split of every node at the current depth in one
weighted cumulative-sum scan per block of features — emitting the flat node
table below directly.  The per-node reference build survives as
``fit_pointer``: a level-ordered queue over :class:`_Node` objects that sorts
every candidate feature at every node, compiled to arrays by
:func:`_compile_tree`.  Both paths share the *same* canonical arithmetic
(sequential weighted cumsums, level-ordered feature-subsampling draws,
first-minimum tie-breaking), so for a fixed seed they produce **bit-for-bit
identical** node tables — guarded by ``tests/ml/test_fit_equivalence.py``.

Inference layout
----------------
Fitted trees are represented as a flat structure-of-arrays::

    feature[i]    split feature of node i          (0 for leaves)
    threshold[i]  split threshold of node i        (nan for leaves)
    left[i]       index of the left child, -1 for leaves
    right[i]      index of the right child, -1 for leaves
    value[i]      weighted mean of the training targets routed to node i
    variance[i]   weighted variance of the training targets routed to node i
    n_samples[i]  number of training rows routed to node i (bootstrap weight)

Nodes are numbered in preorder (root first, left subtree before right), so
children always follow their parents.  Batch prediction advances *all* query
rows level-by-level with NumPy fancy indexing (``predict`` /
``predict_with_variance``); the legacy per-row walk is kept as
``predict_pointer`` / ``predict_with_variance_pointer`` for equivalence tests
and as the benchmark baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    """A single tree node; leaves keep the training targets' mean/variance."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0
    variance: float = 0.0
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class FlatTree:
    """Structure-of-arrays representation of a fitted tree."""

    feature: np.ndarray  # (n_nodes,) intp, 0 for leaves
    threshold: np.ndarray  # (n_nodes,) float, nan for leaves
    left: np.ndarray  # (n_nodes,) intp, -1 for leaves
    right: np.ndarray  # (n_nodes,) intp, -1 for leaves
    value: np.ndarray  # (n_nodes,) float
    variance: np.ndarray  # (n_nodes,) float
    n_samples: np.ndarray  # (n_nodes,) intp

    @property
    def n_nodes(self) -> int:
        return self.left.shape[0]

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Node index of the leaf each row of ``X`` lands in (vectorized)."""
        idx = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.left[idx] >= 0)
        while active.size:
            nodes = idx[active]
            go_left = X[active, self.feature[nodes]] <= self.threshold[nodes]
            idx[active] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = active[self.left[idx[active]] >= 0]
        return idx


def _compile_tree(root: _Node) -> FlatTree:
    """Flatten a pointer tree into arrays (preorder node numbering)."""
    feature: list = []
    threshold: list = []
    left: list = []
    right: list = []
    value: list = []
    variance: list = []
    n_samples: list = []
    # (node, parent index, is_right_child); preorder via an explicit stack so
    # deep trees cannot hit the recursion limit.
    stack = [(root, -1, False)]
    while stack:
        node, parent, is_right = stack.pop()
        idx = len(feature)
        if parent >= 0:
            if is_right:
                right[parent] = idx
            else:
                left[parent] = idx
        if node.is_leaf:
            feature.append(0)
            threshold.append(np.nan)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
        left.append(-1)
        right.append(-1)
        value.append(node.value)
        variance.append(node.variance)
        n_samples.append(node.n_samples)
        if not node.is_leaf:
            assert node.left is not None and node.right is not None
            stack.append((node.right, idx, True))
            stack.append((node.left, idx, False))
    return FlatTree(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        value=np.asarray(value, dtype=float),
        variance=np.asarray(variance, dtype=float),
        n_samples=np.asarray(n_samples, dtype=np.intp),
    )


# --------------------------------------------------------------------------
# Canonical split-search arithmetic, shared (operation for operation) by the
# pointer reference below and the vectorized builder in
# :mod:`repro.ml.treebuilder`.  Every sum that feeds a split decision or a
# node statistic is a *sequential* cumulative sum over members in a defined
# order, never ``np.sum``/``np.mean`` (whose pairwise reduction rounds
# differently), so the two implementations agree bit for bit.
# --------------------------------------------------------------------------


def check_max_features(max_features) -> None:
    """Reject ``max_features`` values the split search cannot honour.

    Valid settings are ``None`` (all features), a float in ``(0, 1]`` (a
    fraction of the features) or an int ``>= 1`` (a count, capped at the
    number of features).
    """
    if max_features is None:
        return
    is_int = isinstance(max_features, (int, np.integer)) and not isinstance(
        max_features, bool
    )
    if is_int and max_features >= 1:
        return
    if isinstance(max_features, float) and 0.0 < max_features <= 1.0:
        return
    raise ValueError(
        "max_features must be None, a float in (0, 1] or an int >= 1, "
        f"got {max_features!r}"
    )


def resolve_split_feature_count(max_features, n_features: int) -> int:
    """Number of candidate features examined per split."""
    if max_features is None:
        return n_features
    if isinstance(max_features, float):
        return max(1, int(round(max_features * n_features)))
    return max(1, min(int(max_features), n_features))


def draw_feature_mask(rng: np.random.Generator, n_features: int, k: int) -> np.ndarray:
    """Boolean mask of the ``k`` features examined at one node.

    One ``rng.random(n_features)`` block per expanding node, consumed in
    level (breadth-first) order: the vectorized builder draws the same
    numbers as one ``(n_nodes, n_features)`` matrix per tree and level, which
    is byte-identical stream consumption.  The ``k`` smallest keys win.
    """
    keys = rng.random(n_features)
    kth = np.partition(keys, k - 1)[k - 1]
    return keys <= kth


def weighted_node_stats(w: np.ndarray, wy: np.ndarray, wyy: np.ndarray) -> tuple:
    """Weighted count, mean and variance of a node's members.

    Members must be in ascending row order; the sums are sequential cumsums
    so the builder's position-major running sums reproduce them exactly.
    """
    total_w = np.cumsum(w)[-1]
    total_wy = np.cumsum(wy)[-1]
    total_wyy = np.cumsum(wyy)[-1]
    mean = total_wy / total_w
    variance = np.maximum(total_wyy / total_w - mean * mean, 0.0)
    return total_w, mean, variance


def best_split_weighted(
    X: np.ndarray,
    members: np.ndarray,
    w: np.ndarray,
    wy: np.ndarray,
    wyy: np.ndarray,
    feature_mask: np.ndarray,
    min_samples_leaf: int,
) -> Optional[tuple]:
    """Best (feature, threshold) for one node, or ``None``.

    Candidate features are scanned in ascending index order with a strict
    ``<`` comparison, so ties go to the lowest feature index; within a
    feature, ``argmin`` keeps the first (lowest) candidate position.  The
    vectorized builder reproduces both tie-breaks.
    """
    best_score = np.inf
    best: Optional[tuple] = None
    for feature in np.flatnonzero(feature_mask):
        x_raw = X[members, feature]
        order = np.argsort(x_raw, kind="mergesort")
        xs = x_raw[order]
        ordered = members[order]
        cw = np.cumsum(w[ordered])
        cwy = np.cumsum(wy[ordered])
        cwyy = np.cumsum(wyy[ordered])
        total_w = cw[-1]
        total_wy = cwy[-1]
        total_wyy = cwyy[-1]
        left_w = cw[:-1]
        # Split after position p: feature value must change and both children
        # must keep at least ``min_samples_leaf`` (weighted) rows.
        valid = (
            (xs[:-1] < xs[1:])
            & (left_w >= min_samples_leaf)
            & (total_w - left_w >= min_samples_leaf)
        )
        pos = np.flatnonzero(valid)
        if pos.size == 0:
            continue
        sse_left = cwyy[pos] - cwy[pos] ** 2 / cw[pos]
        sse_right = (total_wyy - cwyy[pos]) - (total_wy - cwy[pos]) ** 2 / (
            total_w - cw[pos]
        )
        scores = sse_left + sse_right
        j = int(np.argmin(scores))
        if scores[j] < best_score:
            best_score = float(scores[j])
            p = int(pos[j])
            best = (int(feature), float((xs[p] + xs[p + 1]) / 2.0))
    return best


class DecisionTreeRegressor:
    """Regression tree minimising within-node variance (squared error).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or smaller
        than ``min_samples_split``.
    min_samples_split:
        Minimum (weighted) number of samples required to attempt a split.
    min_samples_leaf:
        Minimum (weighted) number of samples that must end up in each child.
    max_features:
        Number of candidate features examined per split.  ``None`` uses all
        features, a float in (0, 1] uses that fraction, an int >= 1 uses that
        count (capped at the number of features).  Anything else raises
        ``ValueError``.
    seed:
        Seed for the feature-subsampling RNG.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        check_max_features(max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._seed = seed
        self._rng_stream: Optional[np.random.Generator] = None
        self._root: Optional[_Node] = None
        self._flat: Optional[FlatTree] = None
        self.n_features_: Optional[int] = None

    @property
    def _rng(self) -> np.random.Generator:
        """Feature-subsampling stream, created from the seed on first use.

        Trees wrapped around a forest builder's node table never draw from
        it, so they never pay for building it.
        """
        if self._rng_stream is None:
            self._rng_stream = np.random.default_rng(self._seed)
        return self._rng_stream

    @classmethod
    def _from_flat(
        cls,
        flat: FlatTree,
        n_features: int,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[float] = None,
    ) -> "DecisionTreeRegressor":
        """Wrap a builder-emitted node table in a fitted tree object."""
        tree = cls(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            seed=0,
        )
        tree.n_features_ = n_features
        tree._flat = flat
        return tree

    # ------------------------------------------------------------------ fit
    def _validate_fit(self, X, y, sample_weight) -> tuple:
        X = np.ascontiguousarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        if sample_weight is None:
            w = np.ones(X.shape[0], dtype=float)
        else:
            w = np.asarray(sample_weight, dtype=float).ravel()
            if w.shape[0] != X.shape[0]:
                raise ValueError("sample_weight must have one entry per row")
            if np.any(w < 0):
                raise ValueError("sample_weight must be non-negative")
            if not np.any(w > 0):
                raise ValueError("sample_weight must have a positive entry")
        return X, y, w

    def _n_split_features(self) -> int:
        assert self.n_features_ is not None
        return resolve_split_feature_count(self.max_features, self.n_features_)

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        """Vectorized level-synchronous fit (no pointer nodes, no recursion)."""
        X, y, w = self._validate_fit(X, y, sample_weight)
        self.n_features_ = X.shape[1]
        from repro.ml.treebuilder import build_forest_flat

        self._flat, _ = build_forest_flat(
            X,
            y,
            w[None, :],
            [self._rng],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_split_features=self._n_split_features(),
        )
        self._root = None
        return self

    def fit_pointer(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        """Per-node reference fit over pointer :class:`_Node` objects.

        Expands nodes from a level-ordered queue (so the feature-subsampling
        RNG is consumed in the same order as the vectorized builder), sorts
        every candidate feature at every node, and compiles the finished
        pointer tree to the flat layout.  For a fixed seed the result is
        bit-for-bit identical to :meth:`fit`.
        """
        X, y, w = self._validate_fit(X, y, sample_weight)
        self.n_features_ = X.shape[1]
        n_split_features = self._n_split_features()
        wy = w * y
        wyy = wy * y
        root = _Node()
        queue = deque([(root, np.flatnonzero(w > 0).astype(np.intp), 0)])
        while queue:
            node, members, depth = queue.popleft()
            total_w, mean, variance = weighted_node_stats(
                w[members], wy[members], wyy[members]
            )
            node.value = float(mean)
            node.variance = float(variance)
            node.n_samples = int(total_w)
            y_members = y[members]
            if (
                total_w < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.min(y_members) == np.max(y_members)
            ):
                continue
            feature_mask = draw_feature_mask(self._rng, X.shape[1], n_split_features)
            split = best_split_weighted(
                X, members, w, wy, wyy, feature_mask, self.min_samples_leaf
            )
            if split is None:
                continue
            feature, threshold = split
            go_left = X[members, feature] <= threshold
            # Guard against midpoint rounding landing on the right value: a
            # split that routes every member to one side degenerates to a leaf.
            if go_left.all() or not go_left.any():
                continue
            node.feature = feature
            node.threshold = threshold
            node.left = _Node()
            node.right = _Node()
            queue.append((node.left, members[go_left], depth + 1))
            queue.append((node.right, members[~go_left], depth + 1))
        self._root = root
        self._flat = _compile_tree(root)
        return self

    # -------------------------------------------------------------- predict
    @property
    def flat(self) -> FlatTree:
        """The flat-array node table of the fitted tree."""
        if self._flat is None:
            raise RuntimeError("DecisionTreeRegressor must be fit before predict")
        return self._flat

    def _validate_predict_input(self, X) -> np.ndarray:
        if self._flat is None:
            raise RuntimeError("DecisionTreeRegressor must be fit before predict")
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError("feature dimension mismatch in predict")
        return X

    def predict(self, X) -> np.ndarray:
        X = self._validate_predict_input(X)
        return self.flat.value[self.flat.leaf_indices(X)]

    def predict_with_variance(self, X) -> tuple:
        """Return per-row leaf means and leaf variances."""
        X = self._validate_predict_input(X)
        leaves = self.flat.leaf_indices(X)
        return self.flat.value[leaves], self.flat.variance[leaves]

    # ------------------------------------------- legacy pointer-walk predict
    def _locate(self, row: np.ndarray) -> int:
        """Per-row descent to a leaf's node index (reference walk)."""
        flat = self.flat
        node = 0
        while flat.left[node] >= 0:
            if row[flat.feature[node]] <= flat.threshold[node]:
                node = flat.left[node]
            else:
                node = flat.right[node]
        return node

    def predict_pointer(self, X) -> np.ndarray:
        """Per-row pointer-walk prediction (legacy reference implementation)."""
        X = self._validate_predict_input(X)
        flat = self.flat
        return np.array([flat.value[self._locate(row)] for row in X], dtype=float)

    def predict_with_variance_pointer(self, X) -> tuple:
        """Per-row pointer-walk means/variances (legacy reference)."""
        X = self._validate_predict_input(X)
        flat = self.flat
        leaves = [self._locate(row) for row in X]
        means = np.array([flat.value[leaf] for leaf in leaves], dtype=float)
        variances = np.array([flat.variance[leaf] for leaf in leaves], dtype=float)
        return means, variances

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf).

        Iterative over the flat node table — preorder numbering guarantees
        children follow their parents, so one ascending pass suffices and
        arbitrarily deep trees cannot hit the recursion limit.
        """
        if self._flat is None:
            raise RuntimeError("tree is not fitted")
        flat = self._flat
        depths = np.zeros(flat.n_nodes, dtype=np.intp)
        max_depth = 0
        for node in range(flat.n_nodes):
            left = flat.left[node]
            if left < 0:
                continue
            child_depth = depths[node] + 1
            depths[left] = child_depth
            depths[flat.right[node]] = child_depth
            if child_depth > max_depth:
                max_depth = int(child_depth)
        return max_depth

    @property
    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        if self._flat is None:
            raise RuntimeError("tree is not fitted")
        return int(np.count_nonzero(self._flat.left < 0))
