"""Level-synchronous, all-trees-at-once random-forest construction.

:func:`build_forest_flat` grows every tree of a forest simultaneously, one
depth level per iteration, and emits one stacked, preorder-numbered
:class:`repro.ml.tree.FlatTree` node table directly — no pointer nodes, no
per-node Python recursion, and no per-node sorting:

* each feature column is argsorted **once per fit** (stable mergesort), and
  that order is shared by every tree and every node.  Bootstrap resamples
  are per-tree integer sample-weight vectors over the shared row universe,
  so resampling never reorders anything;
* columns that are constant over all of ``X`` (``min == max``) get no sort
  order at all.  They can never yield a split, so skipping them is exact;
  they still take part in the feature-subsampling draws;
* the sorted member orders of the remaining features are packed into
  **feature blocks** of member slots, one **feature row** per feature.
  Every row lists the expanding nodes' members as one run per node, in
  node order, x-sorted within a run — so a node's run has the same start
  and length in every row of every block, and those bounds come from the
  node level rather than from the entries.  A split *stably partitions*
  each run into (lefts, rights), which preserves ``(feature value, row
  index)`` order in both children — exactly the order a per-node stable
  argsort would produce;
* per level, each block gets one segmented split scan and one partition.
  The scan skips ``(feature, node)`` segments outside the node's feature
  subset and segments whose sorted values start and end equal, lays the
  rest out **position-major** (see :func:`_position_major`) for padding-free
  running sums, and scores only boundaries between distinct values that
  leave ``min_samples_leaf`` on both sides.  The partition's run bounds,
  child offsets and left counts are computed once per level and shared by
  every feature row, and it drops the members of children that will not
  expand, so leaves leave the blocks in the same pass.

Scratch memory is bounded by two module constants rather than by the forest
shape: a block holds at most :data:`BLOCK_ENTRIES` entries (but at least one
feature row), and the scan scores a block's segments — sorted by length —
in chunks of at most :data:`SCAN_CELLS` real entries (but at least one
segment).  A chunk's budget is raised to one feature row at that level, so
a large fit never needs more chunks than one per feature; the partition
works through a block's rows in groups of the same budget.

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
   feature-sorted for split scans).  In the position-major layout row ``p``
   adds its segments' ``p``-th entries to their running sums in row
   ``p - 1``, which is the reference's per-node 1-D ``np.cumsum`` addition
   for addition whichever block, chunk or position a segment lands in.
   Split scores use the reference's operands and operation order.
3. **Tie-breaking** — first minimum along the sorted positions within a
   feature, lowest feature index across features (``np.argmin`` over a
   feature-major, ``inf``-masked score table), matching the reference's
   strict ``<`` scan in ascending feature order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.tree import FlatTree

#: Most ``(slot, feature)`` entries one feature block holds; a block always
#: holds at least one feature row.
BLOCK_ENTRIES = 1 << 15

#: Real entries one split-scan chunk and one partition group hold at most;
#: raised per level to one feature row (the expanding nodes' members).
SCAN_CELLS = 1 << 12


def _position_major(starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """Lay segments ``[starts, starts + lengths)`` out position-major.

    ``lengths`` must be ascending and positive.  Row ``p`` of the layout
    holds entry ``p`` of every segment longer than ``p`` — with lengths
    ascending, the last ``sizes[p]`` segments, so row ``p``'s segments are
    the aligned suffix of row ``p - 1``'s.  Returns ``(seg, source, sizes,
    last, ends)``: layout entry ``q`` is entry ``source[q]`` of the source
    array and belongs to segment ``seg[q]``; ``sizes`` lists the row sizes,
    ``ends`` the row ends, and ``last[j]`` is the layout position of segment
    ``j``'s last entry.
    """
    n_seg = lengths.size
    sizes = n_seg - np.searchsorted(lengths, np.arange(lengths[-1]), side="right")
    # Row p ends at ends[p] and lists segments n_seg - sizes[p] .. n_seg - 1.
    ends = np.cumsum(sizes)
    row_base = ends - n_seg
    seg = np.arange(ends[-1]) - np.repeat(row_base, sizes)
    source = starts.take(seg)
    source += np.repeat(np.arange(sizes.size), sizes)
    last = row_base.take(lengths - 1) + np.arange(n_seg)
    return seg, source, sizes.tolist(), last, ends


def _running_sums(values: np.ndarray, sizes: List[int]) -> None:
    """Per-segment running sums, in place, over a position-major layout.

    ``values`` is ``(n_entries, k)``, so each layout row is one contiguous
    block.  Each row adds the running sums of the previous row's aligned
    suffix: the same additions, in the same order, as one ``np.cumsum`` per
    segment.
    """
    end = sizes[0]
    for size in sizes[1:]:
        values[end : end + size] += values[end - size : end]
        end += size


def _chunk_bounds(lengths: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """Split segment lengths into ``[lo, hi)`` runs for the scan.

    A run's entries (the sum of its lengths) stay within ``budget``; a run
    always holds at least one segment.
    """
    ends = np.cumsum(lengths)
    bounds = []
    lo = 0
    while lo < lengths.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + budget, side="right")))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _scan_block(
    features: np.ndarray,
    slots: np.ndarray,
    level: "_ScanLevel",
    mask: np.ndarray,
    score: np.ndarray,
    threshold: np.ndarray,
) -> None:
    """Score every in-subset ``(feature, node)`` segment of one block.

    ``slots`` holds one feature row per feature of ``features``; ``mask``,
    ``score`` and ``threshold`` are feature-major ``(n_features, n_expand)``
    tables, indexed flat by the segment key ``feature * n_expand + rank``.
    """
    fit = level.fit
    n_expand = level.starts.size
    row = slots.size // features.size
    local = np.flatnonzero(mask.take(features, axis=0) & level.splittable)
    if local.size == 0:
        return
    local, rank = np.divmod(local, n_expand)
    first = local * row
    first += level.starts.take(rank)
    key = features.take(local)
    del local
    # x of entry e in feature f is X.T[f, row(slot)], and row(slot) is the
    # slot minus its tree's offset, which is fixed per segment.
    x_off = key * fit.n_rows
    x_off -= level.tree_off.take(rank)
    key *= n_expand
    key += rank
    length = level.lengths.take(rank)
    del rank
    # A sorted segment whose first and last values are equal is constant
    # in its node and has no valid boundary.
    x_first = fit.XT.take(slots.take(first) + x_off)
    last = first + length
    last -= 1
    scan = np.flatnonzero(fit.XT.take(slots.take(last) + x_off) != x_first)
    del x_first, last
    if scan.size == 0:
        return
    scan = scan.take(np.argsort(length.take(scan), kind="stable"))
    length = length.take(scan)
    first = first.take(scan)
    x_off = x_off.take(scan)
    key = key.take(scan)
    del scan
    budget = max(SCAN_CELLS, row)
    for lo, hi in _chunk_bounds(length, budget):
        _score_chunk(
            slots, first[lo:hi], length[lo:hi], x_off[lo:hi], key[lo:hi],
            fit, score, threshold,
        )


def _score_chunk(
    slots: np.ndarray,
    first: np.ndarray,
    length: np.ndarray,
    x_off: np.ndarray,
    key: np.ndarray,
    fit: "_Fit",
    score: np.ndarray,
    threshold: np.ndarray,
) -> None:
    """Best boundary of each segment in one chunk (lengths ascending).

    Running sums run position-major (no padding).  Only boundaries
    between distinct values that keep ``min_samples_leaf`` on both sides
    are scored, with the reference's operands and operation order; each
    segment keeps its first minimum along its sorted positions.
    """
    seg, source, sizes, last, ends = _position_major(first, length)
    member = slots.take(source)
    del source
    x = fit.XT.take(member + x_off.take(seg))
    sums = fit.stats_of.take(member, axis=0)
    del member
    _running_sums(sums, sizes)
    totals = sums.take(last, axis=0)
    # Boundary after entry p of a segment: left entry ``a`` in row p, right
    # entry ``a + sizes[p + 1]`` in row p + 1.  Every entry past row 0 is
    # some boundary's right entry.
    n0 = sizes[0]
    left = np.arange(n0, x.size)
    left -= np.repeat(sizes[1:], sizes[1:])
    left = left.take(np.flatnonzero(x.take(left) < x[n0:]))
    del x
    seg = seg.take(left)
    sums = sums.take(left, axis=0)
    totals = totals.take(seg, axis=0)
    left_w = sums[:, 0]
    right_w = totals[:, 0] - left_w
    ok = (left_w >= fit.min_samples_leaf) & (right_w >= fit.min_samples_leaf)
    if not ok.all():
        ok = np.flatnonzero(ok)
        left, seg = left.take(ok), seg.take(ok)
        sums, totals, right_w = sums.take(ok, axis=0), totals.take(ok, axis=0), right_w.take(ok)
    cw, cwy, cwyy = sums.T
    total_w, total_wy, total_wyy = totals.T
    # The reference's ``sse_left + sse_right``, operand for operand,
    # evaluated in place: ``sse_right`` lands in ``total_wyy``, ``sse`` in
    # ``cwy``.
    total_wy -= cwy
    total_wy **= 2
    total_wy /= right_w
    total_wyy -= cwyy
    total_wyy -= total_wy
    sse = cwy
    sse **= 2
    sse /= cw
    np.subtract(cwyy, sse, out=sse)
    sse += total_wyy
    del sums, totals, right_w
    best = np.full(length.size, np.inf)
    np.minimum.at(best, seg, sse)
    # First minimum: a segment's boundaries are in position order.
    hits = np.flatnonzero(sse == best.take(seg))
    pick = np.full(length.size, sse.size)
    np.minimum.at(pick, seg.take(hits), hits)
    has = np.flatnonzero(best < np.inf)
    # The picked boundary's row is its offset in the segment, whose entries
    # sit back to back in the block.
    at = first.take(has)
    at += np.searchsorted(ends, left.take(pick.take(has)), side="right")
    x_off = x_off.take(has)
    x_lo = fit.XT.take(slots.take(at) + x_off)
    at += 1
    x_hi = fit.XT.take(slots.take(at) + x_off)
    key = key.take(has)
    score[key] = best.take(has)
    threshold[key] = (x_lo + x_hi) / 2.0


def _feature_blocks(
    X: np.ndarray, active: np.ndarray, tree_base: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Pack the sorted member slots of every non-constant feature into blocks.

    One stable argsort per non-constant feature serves the whole forest; it
    is tiled per tree (``tree_base``) and filtered to each tree's members
    (``active``).  Returns ``(features, slots)`` pairs, ``slots`` one
    feature row after another, with at most :data:`BLOCK_ENTRIES` entries
    per block (but at least one feature row).
    """
    live = np.flatnonzero(X.min(axis=0) != X.max(axis=0))
    order = np.argsort(X[:, live], axis=0, kind="mergesort")
    per_block = max(1, BLOCK_ENTRIES // max(int(np.count_nonzero(active)), 1))
    blocks = []
    for lo in range(0, live.size, per_block):
        # (block features, n_rows); int32 keeps the stored slots lean.
        block_order = order[:, lo : lo + per_block].T.astype(np.int32)
        tiled = block_order[:, None, :] + tree_base[None, :, :]
        members = active[:, block_order].transpose(1, 0, 2)
        blocks.append((live[lo : lo + per_block], tiled[members]))
    return blocks


class _ScanLevel:
    """What every block's scan shares at one level: the expanding nodes'
    runs, which nodes can split at all, and the fit's lookup tables."""

    def __init__(self, starts, lengths, tree_off, splittable, fit) -> None:
        self.starts = starts
        self.lengths = lengths
        self.tree_off = tree_off
        self.splittable = splittable
        self.fit = fit


class _Partition:
    """Where every entry of a feature row goes when the level's nodes split.

    Each expanding node's run splits into a left and a right piece; pieces
    of children that expand are laid out first, in child order, and the
    rest after them, to be cut off.  A run's left count is the same in every
    row, so a row's left prefix counts are one running count over the whole
    group, shifted per run by the lefts of the runs (and rows) before it.
    """

    def __init__(self, starts, lengths, n_left, keep) -> None:
        row = int(lengths.sum())
        pieces = np.stack([n_left, lengths - n_left], axis=1).ravel()
        kept = np.where(keep, pieces, 0)
        self.row = row
        self.kept = int(kept.sum())
        dropped = pieces - kept
        piece_start = np.where(
            keep, np.cumsum(kept) - kept, self.kept + np.cumsum(dropped) - dropped
        )
        lefts_before = np.cumsum(n_left) - n_left
        run = np.repeat(np.arange(starts.size), lengths)
        # left entry: left piece start + lefts before it in its run;
        # right entry: right piece start + rights before it in its run.
        self.left_base = (piece_start[0::2] - lefts_before).take(run)
        self.right_base = (piece_start[1::2] + lefts_before - starts).take(run)
        self.right_base += np.arange(row)
        self.n_left = int(n_left.sum())

    def apply(self, slots: np.ndarray, go_left: np.ndarray) -> np.ndarray:
        """Partition feature rows of ``slots`` (any number, one after another)."""
        row = self.row
        n_rows = slots.size // row
        group = max(1, max(SCAN_CELLS, row) // row)
        out = np.empty((n_rows, row), dtype=slots.dtype)
        for lo in range(0, n_rows, group):
            hi = min(n_rows, lo + group)
            part = slots[lo * row : hi * row]
            moves = go_left.take(part)
            before = np.cumsum(moves, dtype=np.intp)
            before -= moves
            before = before.reshape(hi - lo, row)
            offsets = np.arange(hi - lo)[:, None]
            dest = np.where(
                moves.reshape(hi - lo, row),
                before + (self.left_base + offsets * (row - self.n_left)),
                (self.right_base + offsets * (row + self.n_left)) - before,
            )
            del before, moves
            out[lo:hi].reshape(-1)[dest.reshape(-1)] = part
        if self.kept == row:
            return out.reshape(-1)
        return out[:, : self.kept].reshape(-1)


class _Fit:
    """Per-fit lookup tables shared by every level."""

    def __init__(self, X, y, weights, min_samples_leaf) -> None:
        n_trees, n_rows = weights.shape
        self.n_rows = n_rows
        self.min_samples_leaf = min_samples_leaf
        # A "slot" is a (tree, row) pair, id = tree * n_rows + row.  Its
        # (w, wy, wyy) are one row, so a layout row of running sums is one
        # contiguous block.
        wy = weights * y[None, :]
        self.stats_of = np.stack([weights, wy, wy * y[None, :]], axis=-1).reshape(-1, 3)
        self.y_of = np.ascontiguousarray(np.broadcast_to(y, (n_trees, n_rows))).ravel()
        self.XT = np.ascontiguousarray(X.T).ravel()  # XT[f * n_rows + row]


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


def _node_payload(fit: _Fit, perm, starts, lengths, tree) -> _LevelRecords:
    """Stats for the nodes whose members ``perm`` lists (one run per node,
    ascending rows within a run)."""
    by_length = np.argsort(lengths, kind="stable")
    _, source, sizes, last, _ = _position_major(
        starts.take(by_length), lengths.take(by_length)
    )
    sums = fit.stats_of.take(perm.take(source), axis=0)
    _running_sums(sums, sizes)
    totals = np.empty((lengths.size, 3))
    totals[by_length] = sums.take(last, axis=0)
    total_w, total_wy, total_wyy = totals.T
    mean = total_wy / total_w
    variance = np.maximum(total_wyy / total_w - mean * mean, 0.0)
    y_vals = fit.y_of.take(perm)
    pure = np.minimum.reduceat(y_vals, starts) == np.maximum.reduceat(y_vals, starts)
    return _LevelRecords(tree, total_w, mean, variance, pure)


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
) -> Tuple[FlatTree, np.ndarray]:
    """Fit ``weights.shape[0]`` trees at once.

    ``weights[t]`` is tree ``t``'s non-negative per-row sample weight (the
    bootstrap multiplicity); rows with weight 0 are not members of tree
    ``t``.  ``rngs[t]`` is tree ``t``'s feature-subsampling stream.  Returns
    the stacked node table of all trees — tree ``t``'s nodes start at
    ``roots[t]``, preorder-numbered, child indices global — and ``roots``.
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

    fit = _Fit(X, y, weights, min_samples_leaf)
    tree_base = (np.arange(n_trees, dtype=np.int32) * n_rows)[:, None]
    active = weights > 0  # (n_trees, n_rows)
    perm = np.flatnonzero(active)
    lengths = np.count_nonzero(active, axis=1)
    starts = np.cumsum(lengths) - lengths
    levels: List[_LevelRecords] = [
        _node_payload(fit, perm, starts, lengths, np.arange(n_trees, dtype=np.intp))
    ]
    bases: List[int] = [0]
    total_nodes = n_trees

    def expanding(records: _LevelRecords, depth: int) -> np.ndarray:
        if max_depth is not None and depth >= max_depth:
            return np.zeros(len(records), dtype=bool)
        return (records.total_w >= min_samples_split) & ~records.pure

    expand = expanding(levels[0], 0)
    if expand.any():
        runs = np.repeat(expand, lengths)
        perm = perm[runs]
        lengths = lengths[expand]
        starts = np.cumsum(lengths) - lengths
        blocks = _feature_blocks(X, active & expand[:, None], tree_base)
    go_left_of = np.zeros(n_trees * n_rows, dtype=bool)

    # ---- breadth-first frontier ------------------------------------------
    # ``perm`` and every block row list the members of the expanding nodes
    # of ``levels[-1]``, one run per node (``starts``/``lengths``).
    level = 0
    while expand.any():
        records = levels[level]
        expand_idx = np.flatnonzero(expand)
        n_expand = expand_idx.size
        expand_trees = records.tree.take(expand_idx)

        # Feature-subsampling draws: per tree, one block covering its
        # expanding nodes in creation order (nodes are stored tree-major);
        # the k-th smallest key of every node is then found in one call.
        # The mask is stored feature-major, like ``score``.
        keys = np.empty((n_expand, n_features))
        bounds = np.searchsorted(expand_trees, np.arange(n_trees + 1)).tolist()
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi > lo:
                keys[lo:hi] = rngs[t].random((hi - lo, n_features))
        kth = np.partition(keys, n_split_features - 1, axis=1)
        feature_mask = (keys <= kth[:, n_split_features - 1 : n_split_features]).T.copy()
        del keys, kth

        tree_off = expand_trees * n_rows
        scan = _ScanLevel(
            starts,
            lengths,
            tree_off,
            records.total_w.take(expand_idx) >= 2 * min_samples_leaf,
            fit,
        )
        score = np.full(n_features * n_expand, np.inf)
        threshold = np.zeros(n_features * n_expand)
        for features, slots in blocks:
            _scan_block(features, slots, scan, feature_mask, score, threshold)

        # Lowest feature index wins ties, matching the reference's strict <.
        score = score.reshape(n_features, n_expand)
        win_feature = np.argmin(score, axis=0)
        expand_ids = np.arange(n_expand)
        can_split = score[win_feature, expand_ids] < np.inf
        win_threshold = threshold.reshape(n_features, n_expand)[win_feature, expand_ids]

        # Route members; a midpoint that rounds onto the right value could
        # empty one child, in which case the node degenerates to a leaf.
        member_x = fit.XT.take(perm + np.repeat(win_feature * n_rows - tree_off, lengths))
        go_left = member_x <= np.repeat(win_threshold, lengths)
        go_left &= np.repeat(can_split, lengths)
        n_left = np.add.reduceat(go_left, starts, dtype=np.intp)
        can_split &= (n_left > 0) & (n_left < lengths)
        split_ranks = np.flatnonzero(can_split)
        if split_ranks.size == 0:
            break
        n_left *= can_split
        go_left &= np.repeat(can_split, lengths)
        go_left_of[perm] = go_left

        n_split = split_ranks.size
        child_base = total_nodes
        left_ids = child_base + 2 * np.arange(n_split, dtype=np.intp)
        global_idx = expand_idx[split_ranks]
        records.feature[global_idx] = win_feature[split_ranks]
        records.threshold[global_idx] = win_threshold[split_ranks]
        records.left[global_idx] = left_ids
        records.right[global_idx] = left_ids + 1

        # Children, in creation order: the two pieces of every split node.
        split_piece = np.repeat(can_split, 2)
        perm = _Partition(starts, lengths, n_left, split_piece).apply(perm, go_left_of)
        child_lengths = np.stack([n_left, lengths - n_left], axis=1).ravel()[split_piece]
        child_starts = np.cumsum(child_lengths) - child_lengths
        children = _node_payload(
            fit, perm, child_starts, child_lengths, np.repeat(records.tree[global_idx], 2)
        )
        levels.append(children)
        bases.append(child_base)
        total_nodes += 2 * n_split
        level += 1

        # Members of children that will not expand leave every block in
        # the same partition pass.
        child_expand = expanding(children, level)
        if not child_expand.any():
            break
        keep = np.zeros(2 * n_expand, dtype=bool)
        keep[split_piece] = child_expand
        partition = _Partition(starts, lengths, n_left, keep)
        for b, (features, slots) in enumerate(blocks):
            blocks[b] = (features, partition.apply(slots, go_left_of))
        del slots  # a block's old rows are freed once it is replaced
        perm = perm[np.repeat(child_expand, child_lengths)]
        lengths = child_lengths[child_expand]
        starts = np.cumsum(lengths) - lengths
        expand = child_expand

    return _emit(levels, bases, total_nodes, n_trees)


def _emit(levels, bases, total_nodes, n_trees) -> Tuple[FlatTree, np.ndarray]:
    """Preorder-renumber every tree and stack their node tables."""
    left_g = np.concatenate([rec.left for rec in levels])
    right_g = np.concatenate([rec.right for rec in levels])
    sizes = np.ones(total_nodes, dtype=np.intp)
    internal_per_level = [
        np.flatnonzero(rec.left >= 0) + base for rec, base in zip(levels, bases)
    ]
    for ids in reversed(internal_per_level):
        if ids.size:
            sizes[ids] = 1 + sizes[left_g[ids]] + sizes[right_g[ids]]
    # Roots are global ids 0..n_trees-1; tree t starts after trees < t.
    preorder = np.zeros(total_nodes, dtype=np.intp)
    preorder[1:n_trees] = np.cumsum(sizes[: n_trees - 1])
    for ids in internal_per_level:
        if ids.size:
            preorder[left_g[ids]] = preorder[ids] + 1
            preorder[right_g[ids]] = preorder[ids] + 1 + sizes[left_g[ids]]

    def placed(field, dtype=float):
        out = np.empty(total_nodes, dtype=dtype)
        out[preorder] = np.concatenate([getattr(rec, field) for rec in levels])
        return out

    internal = left_g >= 0
    left = np.full(total_nodes, -1, dtype=np.intp)
    right = np.full(total_nodes, -1, dtype=np.intp)
    left[preorder[internal]] = preorder[left_g[internal]]
    right[preorder[internal]] = preorder[right_g[internal]]
    feature = placed("feature", np.intp)
    feature[feature < 0] = 0
    table = FlatTree(
        feature=feature,
        threshold=placed("threshold"),
        left=left,
        right=right,
        value=placed("value"),
        variance=placed("variance"),
        n_samples=placed("total_w").astype(np.intp),
    )
    return table, preorder[:n_trees].copy()
