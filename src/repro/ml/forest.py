"""Bagged random-forest regressor.

The forest serves two roles in the reproduction, mirroring the paper:

* surrogate model of the SMAC-style Bayesian optimizer (§5, "SMAC with a
  random forest surrogate model"), where the spread across trees provides the
  predictive uncertainty needed by the Expected Improvement acquisition;
* the noise-adjuster model of §4.3 (Algorithm 1), chosen there because it
  generalises well, performs implicit feature selection and can be trained on
  very little data.

Training layout
---------------
``fit`` trains **all trees at once**: bootstrap resampling is expressed as
per-tree integer sample-weight vectors over the shared training matrix, and
the level-synchronous builder in :mod:`repro.ml.treebuilder` grows every
tree's frontier together — one stable argsort per non-constant feature for
the whole forest, features packed into size-bounded blocks whose rows hold
every expanding node's members as one run per node, and per (level, feature
block) one split scan that scores only boundaries between distinct values
(running sums laid out position-major, without padding) plus one partition
that splits every run and drops the members of children that will not
expand.  The builder emits one stacked node table, which becomes the
inference table below directly; ``trees_`` are per-tree views of it, built
on first access (only the pointer-walk reference and tests read them).
Columns constant over the training matrix (e.g. the noise adjuster's
one-hot columns of workers absent from the data) are never scanned.  The
per-tree, per-node reference build survives as ``fit_pointer`` and is
bit-for-bit equivalent for the same seed (same forest-RNG draw order for
tree seeds and bootstrap counts, same per-tree feature-subsampling streams).

Inference layout
----------------
A fitted forest keeps every tree's flat arrays (see :mod:`repro.ml.tree`) in
one forest-level structure of arrays: the trees' nodes back to back, child
indices global, and ``roots[t]`` recording where tree ``t`` starts (``fit``
gets it from the builder, ``fit_pointer`` stacks its per-tree tables).
``predict`` / ``predict_mean_std`` then descend *all (row, tree) pairs*
simultaneously with NumPy fancy indexing — the Python-level loop runs at
most ``max tree depth`` times, independent of both the number of rows and
the number of trees.  The law-of-total-variance
decomposition (variance of tree means + mean of within-leaf variances) is
unchanged from the per-tree implementation, which survives as
``predict_mean_std_pointer`` for equivalence testing and benchmarking.

Pickling
--------
A fitted forest pickles only the stacked table, without its derived
``_child`` routing array; ``_child`` is rebuilt on load and ``trees_`` on
first access, so each node is written once per checkpoint.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.ml.tree import (
    DecisionTreeRegressor,
    FlatTree,
    check_max_features,
    resolve_split_feature_count,
)
from repro.ml.treebuilder import build_forest_flat

#: The node arrays of a :class:`~repro.ml.tree.FlatTree`.
_FIELDS = [field.name for field in dataclasses.fields(FlatTree)]


class _FlatForest:
    """All trees' flat arrays concatenated, child indices offset per tree.

    The concatenated ``child`` table stores left children at even and right
    children at odd positions, and makes every leaf its own child (a
    self-loop).  A leaf's threshold is ``nan``, so the routing comparison
    ``x > threshold`` is always False on leaves and slots that have reached a
    leaf simply stay put — which lets the descent loop skip the
    "who finished?" bookkeeping on most levels and compact the active set only
    every few iterations.
    """

    _COMPACT_EVERY = 4

    def __init__(self, table: FlatTree, roots: np.ndarray) -> None:
        self.__dict__.update(vars(table))
        self.roots = roots
        self._link()

    @classmethod
    def stack(cls, flats) -> "_FlatForest":
        """Stack per-tree tables, offsetting child indices per tree."""
        sizes = [flat.n_nodes for flat in flats]
        roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        table = {name: np.concatenate([vars(f)[name] for f in flats]) for name in _FIELDS}
        shift = np.repeat(roots, sizes)
        for side in ("left", "right"):  # leaves keep the -1 sentinel
            table[side] = np.where(table[side] >= 0, table[side] + shift, -1)
        return cls(FlatTree(**table), roots)

    def _link(self) -> None:
        """Build the interleaved ``_child`` routing table from left/right."""
        ids = np.arange(self.left.shape[0], dtype=np.intp)
        is_leaf = self.left < 0
        self._child = np.empty(2 * self.left.shape[0], dtype=np.intp)
        self._child[0::2] = np.where(is_leaf, ids, self.left)
        self._child[1::2] = np.where(is_leaf, ids, self.right)

    def __getstate__(self) -> dict:
        # ``_child`` is derived from left/right; rebuilt on load.
        state = self.__dict__.copy()
        del state["_child"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._link()

    def tree_tables(self) -> list[FlatTree]:
        """Per-tree :class:`~repro.ml.tree.FlatTree` node tables.

        Node arrays are views into the stacked table; child indices are
        shifted back to each tree's own numbering.
        """
        ends = np.append(self.roots[1:], self.left.shape[0])
        tables = []
        for start, end in zip(self.roots.tolist(), ends.tolist()):
            table = {name: getattr(self, name)[start:end] for name in _FIELDS}
            for side in ("left", "right"):
                table[side] = np.where(table[side] >= 0, table[side] - start, -1)
            tables.append(FlatTree(**table))
        return tables

    def leaf_indices(self, X: np.ndarray, roots: Optional[np.ndarray] = None) -> np.ndarray:
        """(n_rows, n_trees) leaf node index for every row under every tree
        (or under the trees starting at ``roots``, in that order)."""
        if roots is None:
            roots = self.roots
        n_rows = X.shape[0]
        n_trees = roots.shape[0]
        n_features = X.shape[1]
        flat_X = X.ravel()
        # One flattened slot per (row, tree) pair; ``rowbase`` is the offset
        # of each slot's row inside ``flat_X``.
        nodes = np.broadcast_to(roots, (n_rows, n_trees)).ravel().copy()
        rowbase = np.repeat(np.arange(n_rows, dtype=np.intp) * n_features, n_trees)
        idx = nodes  # resolved leaf per slot; aliases ``nodes`` until compacted
        slots = None  # indices of still-active slots inside ``idx``
        level = 0
        while True:
            go_right = flat_X[rowbase + self.feature[nodes]] > self.threshold[nodes]
            nodes = self._child[2 * nodes + go_right]
            level += 1
            if level % self._COMPACT_EVERY:
                continue
            alive = self.left[nodes] >= 0
            n_alive = np.count_nonzero(alive)
            if n_alive == 0:
                if slots is None:
                    return nodes.reshape(n_rows, n_trees)
                idx[slots] = nodes
                return idx.reshape(n_rows, n_trees)
            if n_alive < nodes.size:
                if slots is None:
                    idx = nodes.copy()
                    slots = np.flatnonzero(alive)
                else:
                    idx[slots] = nodes
                    slots = slots[alive]
                nodes = nodes[alive]
                rowbase = rowbase[alive]


class RandomForestRegressor:
    """Ensemble of CART trees trained on bootstrap resamples.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    max_features:
        Features considered per split: ``None``, a float in (0, 1] or an
        int >= 1 (see :class:`~repro.ml.tree.DecisionTreeRegressor`).  The
        default of 5/6 follows SMAC's random-forest configuration, which
        works well for small tabular configuration spaces.
    bootstrap:
        Whether each tree sees a bootstrap resample of the data.
    seed:
        Master seed; each tree receives an independent child seed.
    """

    def __init__(
        self,
        n_estimators: int = 32,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[float] = 5.0 / 6.0,
        bootstrap: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        check_max_features(max_features)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = np.random.default_rng(seed)
        self._trees: Optional[list] = None
        self._flat: Optional[_FlatForest] = None
        self.n_features_: Optional[int] = None

    def _validate_fit(self, X, y) -> tuple:
        X = np.ascontiguousarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a forest on zero samples")
        return X, y

    def _draw_tree_inputs(self, n_samples: int) -> tuple:
        """Per-tree seeds and bootstrap sample-weight vectors.

        One forest-RNG draw pair per tree — seed first, then the bootstrap
        counts — in tree order, so the vectorized and pointer fits consume
        the forest stream identically.
        """
        seeds = []
        weights = np.empty((self.n_estimators, n_samples))
        for t in range(self.n_estimators):
            seeds.append(int(self._rng.integers(0, 2**31 - 1)))
            if self.bootstrap and n_samples > 1:
                idx = self._rng.integers(0, n_samples, size=n_samples)
                weights[t] = np.bincount(idx, minlength=n_samples)
            else:
                weights[t] = 1.0
        return seeds, weights

    def fit(self, X, y) -> "RandomForestRegressor":
        """Vectorized all-trees-at-once fit (see :mod:`repro.ml.treebuilder`)."""
        X, y = self._validate_fit(X, y)
        self.n_features_ = X.shape[1]
        seeds, weights = self._draw_tree_inputs(X.shape[0])
        table, roots = build_forest_flat(
            X,
            y,
            weights,
            [np.random.default_rng(seed) for seed in seeds],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_split_features=resolve_split_feature_count(
                self.max_features, self.n_features_
            ),
        )
        self._flat = _FlatForest(table, roots)
        self._trees = None
        return self

    @property
    def trees_(self) -> list:
        """Per-tree :class:`~repro.ml.tree.DecisionTreeRegressor` views.

        Wrapped from the stacked table on first access and cached until the
        next fit; empty while unfitted.
        """
        if self._trees is None:
            if self._flat is None:
                return []
            assert self.n_features_ is not None
            self._trees = [
                DecisionTreeRegressor._from_flat(
                    flat,
                    self.n_features_,
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                )
                for flat in self._flat.tree_tables()
            ]
        return self._trees

    def fit_pointer(self, X, y) -> "RandomForestRegressor":
        """Per-tree, per-node reference fit (bit-for-bit equal to :meth:`fit`)."""
        X, y = self._validate_fit(X, y)
        self.n_features_ = X.shape[1]
        seeds, weights = self._draw_tree_inputs(X.shape[0])
        trees = []
        for seed, w in zip(seeds, weights):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=seed,
            )
            tree.fit_pointer(X, y, sample_weight=w)
            trees.append(tree)
        self._flat = _FlatForest.stack([tree.flat for tree in trees])
        self._trees = trees
        return self

    # ------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # The stacked table holds every tree's nodes; writing the per-tree
        # views too would store each node twice.
        state = self.__dict__.copy()
        state["_trees"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # Older checkpoints stored the views as ``trees_`` (in full, later
        # as ``[]``); the stacked table alone restores them.
        state.pop("trees_", None)
        state["_trees"] = None
        self.__dict__.update(state)

    def _check_fitted(self) -> None:
        if self._flat is None:
            raise RuntimeError("RandomForestRegressor must be fit before predict")

    def _validate_predict_input(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError("feature dimension mismatch in predict")
        return X

    def predict(self, X) -> np.ndarray:
        """Mean prediction across trees."""
        X = self._validate_predict_input(X)
        assert self._flat is not None
        return self._flat.value[self._flat.leaf_indices(X)].mean(axis=1)

    def predict_mean_std(self, X, trees=None) -> tuple:
        """Mean and standard deviation of predictions.

        The total predictive variance combines the spread of tree means
        (epistemic) with the average within-leaf variance (aleatoric), the
        standard law-of-total-variance decomposition used by SMAC.

        ``trees`` (tree indices, repeats allowed) applies the same formula
        to that multiset of trees instead of the whole ensemble: drawn with
        replacement, it is one bootstrap draw of the surrogate's posterior.
        Only the distinct trees are descended.
        """
        X = self._validate_predict_input(X)
        assert self._flat is not None
        if trees is None:
            leaves = self._flat.leaf_indices(X)
        else:
            trees = np.asarray(trees, dtype=np.intp)
            if trees.ndim != 1 or trees.size == 0:
                raise ValueError("trees must be a non-empty 1-D index array")
            if trees.min() < 0 or trees.max() >= self._flat.roots.shape[0]:
                raise ValueError("tree index out of range")
            distinct, inverse = np.unique(trees, return_inverse=True)
            leaves = self._flat.leaf_indices(X, self._flat.roots[distinct])[:, inverse]
        means = self._flat.value[leaves]  # (n_rows, n_trees)
        variances = self._flat.variance[leaves]
        mean = means.mean(axis=1)
        total_var = means.var(axis=1) + variances.mean(axis=1)
        return mean, np.sqrt(np.maximum(total_var, 1e-12))

    # ------------------------------------------- legacy per-tree prediction
    def predict_mean_std_pointer(self, X) -> tuple:
        """Per-row, per-tree pointer-walk mean/std (legacy reference)."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        means = []
        variances = []
        for tree in self.trees_:
            mean, var = tree.predict_with_variance_pointer(X)
            means.append(mean)
            variances.append(var)
        means_arr = np.stack(means, axis=0)
        var_arr = np.stack(variances, axis=0)
        mean = means_arr.mean(axis=0)
        total_var = means_arr.var(axis=0) + var_arr.mean(axis=0)
        return mean, np.sqrt(np.maximum(total_var, 1e-12))

    def feature_importances(self) -> np.ndarray:
        """Crude split-count feature importance, normalised to sum to one."""
        self._check_fitted()
        assert self.n_features_ is not None and self._flat is not None
        internal = self._flat.left >= 0
        counts = np.zeros(self.n_features_, dtype=float)
        np.add.at(counts, self._flat.feature[internal], self._flat.n_samples[internal])
        total = counts.sum()
        if total == 0:
            return np.full(self.n_features_, 1.0 / self.n_features_)
        return counts / total
