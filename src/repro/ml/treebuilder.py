"""Level-synchronous, all-trees-at-once random-forest construction.

:func:`build_forest_flat` grows every tree of a forest simultaneously, one
depth level per iteration, and emits preorder-numbered
:class:`repro.ml.tree.FlatTree` node tables directly — no pointer nodes, no
per-node Python recursion, and no per-node sorting:

* each feature column is argsorted **once per fit** (stable mergesort), and
  that order is shared by every tree and every node.  Bootstrap resamples
  are per-tree integer sample-weight vectors over the shared row universe,
  so resampling never reorders anything;
* columns that are constant over all of ``X`` (``min == max``) get no sort
  order at all.  They can never yield a split, so skipping them is exact;
  they still take part in the feature-subsampling draws;
* the sorted member orders of the remaining features are packed into
  **feature blocks**: one concatenated slot array per block with one
  ``(slot, feature)`` entry per member and feature — feature-major, grouped
  by node within a feature and x-sorted within a node, so an entry's
  feature follows from its position.  A node's order is *stably
  partitioned* when the node splits, which preserves
  ``(feature value, row index)`` order in both children — exactly the order
  a per-node stable argsort would produce;
* per level, each block gets one retire filter, one segmented split scan
  and one stable partition keyed by ``(feature, node)``.  The scan scatters
  the members of every ``(feature, node)`` segment into a zero-padded
  rectangle column, and weighted running sums down the columns score every
  candidate boundary of every ``(tree, node, feature)`` at once.  Segments
  whose sorted values start and end equal are constant in that node and are
  not scanned.

Scratch memory is bounded by two module constants rather than by the forest
shape: a block holds at most :data:`BLOCK_ENTRIES` entries (but at least one
feature), and the scan splits a block's segments — sorted by length, so
columns of similar height share a rectangle — into chunks of at most
:data:`SCAN_CELLS` padded cells.  A chunk's budget is raised to one
feature's rectangle at that level (expanding nodes × longest node), so a
large fit never needs more rectangle passes than one per feature.

Bit-for-bit parity with the pointer reference
---------------------------------------------
``DecisionTreeRegressor.fit_pointer`` and this builder must produce
identical node tables for the same seed (guarded by
``tests/ml/test_fit_equivalence.py``).  Three invariants make that exact
rather than approximate:

1. **RNG consumption** — feature-subsampling keys are drawn per tree in
   level order, one ``(n_expanding_nodes, n_features)`` block per level and
   over *all* features, which consumes the per-tree bit stream
   byte-for-byte like the reference's per-node ``rng.random(n_features)``
   calls.
2. **Summation order** — every statistic is a sequential cumulative sum
   over members in a defined order (ascending row index for node stats,
   feature-sorted for split scans).  Every rectangle column holds one
   segment, top-aligned and zero-padded below, so the running sums down a
   column perform the same additions as the reference's per-node 1-D
   cumsums whichever block, chunk or column the segment lands in.
3. **Tie-breaking** — first minimum along the sorted positions within a
   feature, lowest feature index across features (``np.argmin`` over a
   feature-major, ``inf``-masked score matrix), matching the reference's
   strict ``<`` scan in ascending feature order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.tree import FlatTree

#: Most ``(slot, feature)`` entries one feature block holds; a block always
#: holds at least one feature.
BLOCK_ENTRIES = 1 << 13

#: Padded-cell budget of one split-scan chunk; raised per level to one
#: feature's rectangle (expanding nodes × longest node).
SCAN_CELLS = 1 << 12


def _segment_starts(ids: np.ndarray) -> np.ndarray:
    """Start offsets of maximal runs of equal values in a sorted array."""
    if ids.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(
        ([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1)
    ).astype(np.intp)


def _stable_partition(key: np.ndarray, left: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Gather order splitting each run of equal ``key`` into (lefts, rights).

    ``key`` is grouped into runs (one per segment); ``left``/``keep`` are
    per-entry flags.  Entries with ``keep`` False are dropped; within a
    surviving run lefts keep their relative order, then rights keep theirs
    — which preserves both the ascending-row and the feature-sorted
    invariants in the children.  Integer prefix counts make this exact: with
    ``lefts`` the inclusive running count of lefts, the ``i``-th entry of a
    run starting at ``s`` and ending at ``e`` moves to
    ``s + lefts[i] - lefts_before(s) - 1`` if it goes left, else to
    ``i - lefts[i] + lefts[e]``.
    """
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        return kept
    starts = _segment_starts(key.take(kept))
    lengths = np.diff(np.append(starts, kept.size))
    left = left.take(kept)
    lefts = np.cumsum(left, dtype=np.intp)
    new_pos = np.arange(kept.size, dtype=np.intp)
    new_pos -= lefts
    new_pos += np.repeat(lefts.take(starts + lengths - 1), lengths)
    lefts += np.repeat(starts - lefts.take(starts) + left.take(starts) - 1, lengths)
    np.copyto(new_pos, lefts, where=left)
    out = np.empty_like(kept)
    out[new_pos] = kept
    return out


def _chunk_bounds(lengths: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """Split ascending segment lengths into ``[lo, hi)`` runs for the scan.

    A run's padded rectangle (run size × its longest segment) stays within
    ``budget`` cells; a run always holds at least one segment.
    """
    bounds = []
    lo = 0
    while lo < lengths.size:
        cells = np.arange(1, lengths.size - lo + 1) * lengths[lo:]
        hi = lo + max(1, int(np.searchsorted(cells, budget, side="right")))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _scan_block(
    features: np.ndarray,
    slots: np.ndarray,
    rank_of: np.ndarray,
    mask: np.ndarray,
    budget: int,
    X: np.ndarray,
    row_of: np.ndarray,
    stats_of: np.ndarray,
    min_samples_leaf: int,
    score: np.ndarray,
    threshold: np.ndarray,
) -> None:
    """Score every in-subset ``(feature, node)`` segment of one block.

    ``slots`` lists the block's member slots once per feature of
    ``features``, feature-major; ``rank_of`` maps a slot to its node's
    expanding rank.  ``mask``, ``score`` and ``threshold`` are feature-major
    ``(n_features, n_expand)`` tables, indexed flat by the segment key
    ``feature * n_expand + rank``.
    """
    n_features, n_expand = mask.shape
    key = np.repeat(features * n_expand, slots.size // features.size)
    key += rank_of.take(slots)
    sel = np.flatnonzero(mask.reshape(-1).take(key))
    key = key.take(sel)
    sub = slots.take(sel)
    del sel

    def x_at(entries, feats):
        return X.reshape(-1).take(row_of.take(sub.take(entries)) * n_features + feats)

    starts = _segment_starts(key)
    lengths = np.diff(np.append(starts, key.size))
    seg_feat = key.take(starts) // n_expand
    # A sorted segment whose first and last values are equal is constant
    # in its node and has no valid boundary.
    scan = np.flatnonzero(
        (lengths >= 2)
        & (x_at(starts, seg_feat) != x_at(starts + lengths - 1, seg_feat))
    )
    if scan.size == 0:
        return
    scan = scan.take(np.argsort(lengths.take(scan), kind="stable"))
    # Lay the scanned segments out back to back, shortest first, so every
    # chunk below is one contiguous slice.
    seg_len = lengths.take(scan)
    seg_end = np.cumsum(seg_len)
    entries = np.arange(int(seg_end[-1]), dtype=np.intp)
    entries += np.repeat(starts.take(scan) - (seg_end - seg_len), seg_len)
    x = x_at(entries, np.repeat(seg_feat.take(scan), seg_len))
    seg_slots = sub.take(entries)
    seg_key = key.take(starts.take(scan))
    del entries, key, sub  # keep only chunk-sized scratch alive below
    for lo, hi in _chunk_bounds(seg_len, budget):
        first = int(seg_end[lo] - seg_len[lo])
        last = int(seg_end[hi - 1])
        _score_chunk(
            seg_len[lo:hi],
            seg_key[lo:hi],
            x[first:last],
            seg_slots[first:last],
            stats_of,
            min_samples_leaf,
            score,
            threshold,
        )


def _column_cells(seg_len: np.ndarray) -> np.ndarray:
    """Flat rectangle cells for segments stored back to back.

    Entry ``i`` of segment ``j`` goes to row ``i``, column ``j`` of a
    C-ordered ``(max(seg_len), seg_len.size)`` rectangle.
    """
    n_seg = seg_len.size
    seg_start = np.cumsum(seg_len) - seg_len
    cell = np.arange(int(seg_start[-1] + seg_len[-1]), dtype=np.intp)
    cell -= np.repeat(seg_start, seg_len)
    cell *= n_seg
    cell += np.repeat(np.arange(n_seg, dtype=np.intp), seg_len)
    return cell


def _score_chunk(
    seg_len: np.ndarray,
    seg_key: np.ndarray,
    x: np.ndarray,
    slots: np.ndarray,
    stats_of: np.ndarray,
    min_samples_leaf: int,
    score: np.ndarray,
    threshold: np.ndarray,
) -> None:
    """Best boundary of each segment in one rectangle (one column per segment).

    ``x``/``slots`` hold the segments' entries back to back, shortest
    segment first, so the last one sets the rectangle height.  A column is
    its segment top-aligned and zero-padded, which makes the column running
    sums the reference's per-node cumsums exactly.
    """
    n_seg = seg_len.size
    max_len = int(seg_len[-1])
    cell = _column_cells(seg_len)
    xs = np.full((max_len, n_seg), np.nan)
    xs.reshape(-1)[cell] = x
    rect = np.zeros((3, max_len, n_seg))
    for k in range(3):
        rect[k].reshape(-1)[cell] = stats_of[k].take(slots)
    del cell
    np.cumsum(rect, axis=1, out=rect)
    cw, cwy, cwyy = rect
    cols = np.arange(n_seg)
    last = seg_len - 1
    total_w = cw[last, cols]
    total_wy = cwy[last, cols]
    total_wyy = cwyy[last, cols]
    left_w = cw[:-1]
    right_w = total_w - left_w
    valid = xs[:-1] < xs[1:]
    valid &= left_w >= min_samples_leaf
    valid &= right_w >= min_samples_leaf
    # Same operations, operand order and rounding as the reference's
    # ``sse_left + sse_right``, evaluated in place: ``sse_right`` reuses
    # ``right_w`` once divided by, and ``sse`` overwrites the ``cwy`` sums.
    with np.errstate(divide="ignore", invalid="ignore"):
        right_wy = total_wy - cwy[:-1]
        right_wy **= 2
        right_wy /= right_w
        sse_right = np.subtract(total_wyy, cwyy[:-1], out=right_w)
        sse_right -= right_wy
        del right_wy
        sse = cwy[:-1]
        sse **= 2
        sse /= left_w
        np.subtract(cwyy[:-1], sse, out=sse)
        sse += sse_right
    sse[~valid] = np.inf
    best_pos = np.argmin(sse, axis=0)
    best_scores = sse[best_pos, cols]
    has = np.flatnonzero(best_scores < np.inf)
    at = seg_key[has]
    score[at] = best_scores[has]
    threshold[at] = (xs[best_pos[has], has] + xs[best_pos[has] + 1, has]) / 2.0


def _feature_blocks(
    X: np.ndarray, active: np.ndarray, tree_base: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Pack the sorted member slots of every non-constant feature into blocks.

    One stable argsort per non-constant feature serves the whole forest; it
    is tiled per tree (``tree_base``) and filtered to each tree's members
    (``active``).  Returns ``(features, slots)`` pairs, ``slots``
    feature-major with at most :data:`BLOCK_ENTRIES` entries per block (but
    at least one feature).
    """
    live = np.flatnonzero(X.min(axis=0) != X.max(axis=0))
    order = np.argsort(X[:, live], axis=0, kind="mergesort")
    per_block = max(1, BLOCK_ENTRIES // max(int(np.count_nonzero(active)), 1))
    blocks = []
    for lo in range(0, live.size, per_block):
        block_order = order[:, lo : lo + per_block].T  # (block features, n_rows)
        tiled = block_order[:, None, :] + tree_base[None, :, :]
        members = active[:, block_order].transpose(1, 0, 2)
        blocks.append((live[lo : lo + per_block], tiled[members]))
    return blocks


class _LevelRecords:
    """Node records for one depth level (parallel arrays, creation order)."""

    def __init__(self, tree, total_w, value, variance, pure):
        count = tree.shape[0]
        self.tree = tree
        self.total_w = total_w
        self.value = value
        self.variance = variance
        self.pure = pure
        self.feature = np.full(count, -1, dtype=np.intp)
        self.threshold = np.full(count, np.nan)
        self.left = np.full(count, -1, dtype=np.intp)
        self.right = np.full(count, -1, dtype=np.intp)

    def __len__(self) -> int:
        return self.tree.shape[0]


def build_forest_flat(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    rngs: Sequence[np.random.Generator],
    *,
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    n_split_features: int,
) -> List[FlatTree]:
    """Fit ``weights.shape[0]`` trees at once; returns one FlatTree per tree.

    ``weights[t]`` is tree ``t``'s non-negative per-row sample weight (the
    bootstrap multiplicity); rows with weight 0 are not members of tree
    ``t``.  ``rngs[t]`` is tree ``t``'s feature-subsampling stream.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float)
    n_rows, n_features = X.shape
    n_trees = weights.shape[0]
    if weights.shape[1] != n_rows:
        raise ValueError("weights must have one column per row of X")
    if len(rngs) != n_trees:
        raise ValueError("need one RNG per tree")

    # ---- shared per-fit precomputation -----------------------------------
    # A "slot" is a (tree, row) pair, id = tree * n_rows + row.  Per-slot
    # weighted target products are shared by every scan.
    stats_of = np.stack(
        [weights, weights * y[None, :], weights * y[None, :] * y[None, :]]
    ).reshape(3, -1)
    y_of = np.ascontiguousarray(np.broadcast_to(y, (n_trees, n_rows))).ravel()
    row_of = np.ascontiguousarray(
        np.broadcast_to(np.arange(n_rows, dtype=np.intp), (n_trees, n_rows))
    ).ravel()
    tree_base = (np.arange(n_trees, dtype=np.intp) * n_rows)[:, None]

    active = weights > 0  # (n_trees, n_rows)
    perm_idx = (np.arange(n_rows, dtype=np.intp)[None, :] + tree_base)[active]

    blocks = _feature_blocks(X, active, tree_base)

    node_of = np.full(n_trees * n_rows, -1, dtype=np.intp)
    node_of[perm_idx] = perm_idx // n_rows  # root of tree t has global id t

    def node_payload(perm: np.ndarray) -> _LevelRecords:
        """Stats for the nodes whose members ``perm`` lists (ascending rows)."""
        starts = _segment_starts(node_of[perm])
        lengths = np.diff(np.append(starts, perm.size))
        n_seg = starts.size
        max_len = int(lengths.max())
        cell = _column_cells(lengths)
        rect = np.zeros((3, max_len, n_seg))
        for k in range(3):
            rect[k].reshape(-1)[cell] = stats_of[k].take(perm)
        np.cumsum(rect, axis=1, out=rect)
        last = lengths - 1
        seg_ids = np.arange(n_seg)
        total_w = rect[0, last, seg_ids]
        total_wy = rect[1, last, seg_ids]
        total_wyy = rect[2, last, seg_ids]
        mean = total_wy / total_w
        variance = np.maximum(total_wyy / total_w - mean * mean, 0.0)
        y_vals = y_of[perm]
        pure = np.minimum.reduceat(y_vals, starts) == np.maximum.reduceat(
            y_vals, starts
        )
        return _LevelRecords(perm[starts] // n_rows, total_w, mean, variance, pure)

    levels: List[_LevelRecords] = [node_payload(perm_idx)]
    bases: List[int] = [0]
    total_nodes = len(levels[0])

    # ---- breadth-first frontier ------------------------------------------
    level = 0
    while True:
        records = levels[level]
        base = bases[level]
        expand = (records.total_w >= min_samples_split) & ~records.pure
        if max_depth is not None and level >= max_depth:
            expand[:] = False
        expand_idx = np.flatnonzero(expand)
        if expand_idx.size == 0:
            break
        n_expand = expand_idx.size
        expand_rank = np.full(len(records), -1, dtype=np.intp)
        expand_rank[expand_idx] = np.arange(n_expand, dtype=np.intp)

        # Retire slots of nodes that just became leaves.
        retire = expand_idx.size < expand.size
        if retire:
            perm_idx = perm_idx[expand[node_of[perm_idx] - base]]
        ranks_idx = expand_rank[node_of[perm_idx] - base]
        starts_idx = _segment_starts(ranks_idx)
        lengths_idx = np.diff(np.append(starts_idx, perm_idx.size))

        # Feature-subsampling draws: per tree, one block covering its
        # expanding nodes in creation order (nodes are stored tree-major);
        # the k-th smallest key of every node is then found in one call.
        # The mask is stored feature-major, like ``score``.
        keys = np.empty((n_expand, n_features))
        expand_trees = records.tree[expand_idx]
        bounds = np.searchsorted(expand_trees, np.arange(n_trees + 1)).tolist()
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi > lo:
                keys[lo:hi] = rngs[t].random((hi - lo, n_features))
        kth = np.partition(keys, n_split_features - 1, axis=1)
        feature_mask = (keys <= kth[:, n_split_features - 1 : n_split_features]).T.copy()
        del keys, kth

        # One retire filter and one segmented scan per feature block.
        rank_of = np.full(n_trees * n_rows, -1, dtype=np.intp)
        rank_of[perm_idx] = ranks_idx
        score = np.full(n_features * n_expand, np.inf)
        threshold = np.zeros(n_features * n_expand)
        budget = max(SCAN_CELLS, n_expand * int(lengths_idx.max()))
        for b, (features, slots) in enumerate(blocks):
            if retire:
                slots = slots[rank_of.take(slots) >= 0]
                blocks[b] = (features, slots)
            _scan_block(
                features,
                slots,
                rank_of,
                feature_mask,
                budget,
                X,
                row_of,
                stats_of,
                min_samples_leaf,
                score,
                threshold,
            )

        # Lowest feature index wins ties, matching the reference's strict <.
        score = score.reshape(n_features, n_expand)
        win_feature = np.argmin(score, axis=0)
        expand_ids = np.arange(n_expand)
        can_split = score[win_feature, expand_ids] < np.inf
        win_threshold = threshold.reshape(n_features, n_expand)[win_feature, expand_ids]

        # Route members; a midpoint that rounds onto the right value could
        # empty one child, in which case the node degenerates to a leaf.
        go_left = np.zeros(perm_idx.size, dtype=bool)
        routed = can_split[ranks_idx]
        routed_rows = row_of[perm_idx[routed]]
        go_left[routed] = (
            X[routed_rows, win_feature[ranks_idx[routed]]]
            <= win_threshold[ranks_idx[routed]]
        )
        n_left = np.add.reduceat(go_left.astype(np.intp), starts_idx)
        seg_rank = ranks_idx[starts_idx]
        degenerate = can_split[seg_rank] & ((n_left == 0) | (n_left == lengths_idx))
        if degenerate.any():
            can_split[seg_rank[degenerate]] = False

        split_ranks = np.flatnonzero(can_split)
        if split_ranks.size == 0:
            break
        n_split = split_ranks.size
        child_base = total_nodes
        left_ids = child_base + 2 * np.arange(n_split, dtype=np.intp)
        right_ids = left_ids + 1
        split_no = np.full(n_expand, -1, dtype=np.intp)
        split_no[split_ranks] = np.arange(n_split, dtype=np.intp)

        global_idx = expand_idx[split_ranks]
        records.feature[global_idx] = win_feature[split_ranks]
        records.threshold[global_idx] = win_threshold[split_ranks]
        records.left[global_idx] = left_ids
        records.right[global_idx] = right_ids

        # Stable-partition every block by (feature, node), then the node
        # membership list, then relabel slots.
        go_left_flat = np.zeros(n_trees * n_rows, dtype=bool)
        go_left_flat[perm_idx] = go_left
        for b, (features, slots) in enumerate(blocks):
            key = rank_of.take(slots)
            keep = can_split.take(key)
            key += np.repeat(features * n_expand, slots.size // features.size)
            moved = _stable_partition(key, go_left_flat.take(slots), keep)
            blocks[b] = (features, slots.take(moved))
        del key, keep
        moved = _stable_partition(ranks_idx, go_left, can_split[ranks_idx])
        perm_idx = perm_idx[moved]
        child_no = split_no[ranks_idx[moved]]
        node_of[perm_idx] = np.where(
            go_left[moved], left_ids[child_no], right_ids[child_no]
        )

        levels.append(node_payload(perm_idx))
        bases.append(child_base)
        total_nodes += 2 * n_split
        level += 1

    # ---- preorder renumbering and per-tree emission ----------------------
    tree_g = np.concatenate([rec.tree for rec in levels])
    value_g = np.concatenate([rec.value for rec in levels])
    variance_g = np.concatenate([rec.variance for rec in levels])
    total_w_g = np.concatenate([rec.total_w for rec in levels])
    feature_g = np.concatenate([rec.feature for rec in levels])
    threshold_g = np.concatenate([rec.threshold for rec in levels])
    left_g = np.concatenate([rec.left for rec in levels])
    right_g = np.concatenate([rec.right for rec in levels])

    sizes = np.ones(total_nodes, dtype=np.intp)
    internal_per_level = []
    for rec, base in zip(levels, bases):
        internal_per_level.append(np.flatnonzero(rec.left >= 0) + base)
    for ids in reversed(internal_per_level):
        if ids.size:
            sizes[ids] = 1 + sizes[left_g[ids]] + sizes[right_g[ids]]
    preorder = np.zeros(total_nodes, dtype=np.intp)
    for ids in internal_per_level:
        if ids.size:
            preorder[left_g[ids]] = preorder[ids] + 1
            preorder[right_g[ids]] = preorder[ids] + 1 + sizes[left_g[ids]]

    flats: List[FlatTree] = []
    for t in range(n_trees):
        members = np.flatnonzero(tree_g == t)
        positions = preorder[members]
        count = members.size
        feature = np.zeros(count, dtype=np.intp)
        threshold = np.full(count, np.nan)
        left = np.full(count, -1, dtype=np.intp)
        right = np.full(count, -1, dtype=np.intp)
        value = np.empty(count)
        variance = np.empty(count)
        n_samples = np.empty(count, dtype=np.intp)
        value[positions] = value_g[members]
        variance[positions] = variance_g[members]
        n_samples[positions] = total_w_g[members].astype(np.intp)
        internal = feature_g[members] >= 0
        src = members[internal]
        dst = positions[internal]
        feature[dst] = feature_g[src]
        threshold[dst] = threshold_g[src]
        left[dst] = preorder[left_g[src]]
        right[dst] = preorder[right_g[src]]
        flats.append(
            FlatTree(
                feature=feature,
                threshold=threshold,
                left=left,
                right=right,
                value=value,
                variance=variance,
                n_samples=n_samples,
            )
        )
    return flats
