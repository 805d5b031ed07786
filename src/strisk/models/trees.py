"""Depth-limited regression trees used by every tree-based family.

Targets are arbitrary reals (0/1 class labels for bagging, gradient
residuals for boosting); splits minimize within-node squared error via
prefix sums, which for binary targets is the classic impurity criterion.
Split search never sorts floats: rank_columns turns each column into
integer codes, keeping its distinct values, once per ensemble. grow_trees
grows all the trees of an ensemble together, one depth at a time, as
XGBoost does (Chen & Guestrin, KDD 2016): each depth searches every
splittable node of every tree at once, in blocks of (node, candidate
column) cells. A block of 0/1 targets whose cells' columns have no more
codes in all than its cells have rows counts each code's rows and ones,
as LightGBM does (Ke et al., NeurIPS 2017). Residuals, whose bin sums
would round otherwise, and small nodes, whose bins would be mostly empty,
sort each cell's codes with a stable radix argsort and sum the targets in
that order. Either way only cuts between two different codes are scored,
and the threshold is read back from the two adjacent feature values, so
trees are those a per-node float sort would grow. A random forest draws
the feature subsets of a whole depth at once; any draw order gives each
node a uniform subset (Breiman, "Random Forests", 2001).

A tree is five numpy node arrays in which leaves route to themselves.
All routing goes through one loop, NodeTable.apply. A NodeTable holds
trees' arrays end to end, and chosen (tree, row) pairs of all of them
move down one level per step together, done after as many steps as the
deepest tree is deep. A single tree routes as a table of one. A
NodeTable also gives each node's value intervals on chosen columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Sequence

import numpy as np
from numpy.typing import NDArray

from ..records import Bound, Count, check_bounds, json_fields, read_config

_LEAF = -1


def rank_columns(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense rank codes of X's columns, (width, n) in the narrowest unsigned
    dtype, and each column's sorted distinct values, one per code.

    Codes keep each column's order and are equal exactly where its values
    are, so sorting codes sorts values; uint16 holds up to 65,536
    distinct values per column. Raises ValueError for a non-finite X,
    whose NaN would compare unequal to itself yet share a code.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("tree fitting needs finite feature values")
    # Ranking one column at a time keeps temporaries to a column's size.
    uniques = [np.unique(column, return_inverse=True) for column in X.T]
    top = max((int(inverse.max(initial=0)) for _, inverse in uniques), default=0)
    codes = np.array([inverse for _, inverse in uniques], dtype=np.min_scalar_type(top))
    return codes.reshape(X.shape[::-1]), [values for values, _ in uniques]


@dataclass
class RegressionTree:
    """CART-style tree; fit() and from_dict() fill the node arrays.

    Nodes are numbered in pre-order, so every child comes after its
    parent. feature[i] is _LEAF for leaves, whose threshold is +inf and
    whose left and right children are the leaf itself. Ties between
    equally good splits resolve to the earliest feature and lowest
    threshold, making structure deterministic for a fixed rng.
    """

    max_depth: Count = 3
    min_samples_leaf: Count = 1
    max_features: Annotated[int | None, Bound(1)] = None
    feature: np.ndarray = field(init=False, repr=False)
    threshold: np.ndarray = field(init=False, repr=False)
    left: np.ndarray = field(init=False, repr=False)
    right: np.ndarray = field(init=False, repr=False)
    # (nodes, 2) children as NodeTable.apply reads them; left and right are views.
    routes: np.ndarray = field(init=False, repr=False)
    value: np.ndarray = field(init=False, repr=False)
    # Longest root-to-leaf path; apply() takes this many routing steps.
    depth: int = field(init=False, default=0)

    __post_init__ = check_bounds

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator | None = None,
        ranks: tuple[np.ndarray, list[np.ndarray]] | None = None,
    ) -> RegressionTree:
        """Grow the tree on X's rows and targets y: grow_trees for a forest of one.

        ``ranks`` is rank_columns(X): codes for X's rows, (width, len(y)),
        column j ordered like X[:, j], equal codes exactly where values
        are equal, and each column's sorted distinct values. Ensembles
        rank their matrix once and pass it; without it fit ranks X itself.
        """
        grow_trees([self], X, y, np.arange(len(y))[None], rng, ranks)
        return self

    def _set_nodes(self, feature, threshold, left, right, value) -> None:
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.value = np.asarray(value, dtype=np.float64)
        # Row i holds (right, left) children of node i, so NodeTable.apply
        # finds a row's next node at flat index 2i + goes_left.
        self.routes = np.column_stack([right, left]).astype(np.int64)
        self.right, self.left = self.routes[:, 0], self.routes[:, 1]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for each row of X, routed as a NodeTable of this one tree."""
        return NodeTable([self]).apply(X, np.zeros(len(X), dtype=np.uint8), np.arange(len(X)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def set_leaf_values(self, leaf_ids: np.ndarray, values: np.ndarray) -> None:
        """Overwrite leaf outputs (boosting recomputes them after growth)."""
        leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
        inner = leaf_ids[self.feature[leaf_ids] != _LEAF]
        if len(inner):
            raise ValueError(f"node {inner[0]} is not a leaf")
        self.value[leaf_ids] = values

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.feature == _LEAF)

    def to_dict(self) -> dict:
        leaf = self.feature == _LEAF
        left, right = (np.where(leaf, _LEAF, children) for children in (self.left, self.right))
        settings = (self.max_depth, self.min_samples_leaf, self.max_features)
        threshold = np.where(leaf, 0.0, self.threshold)
        return json_fields(_SavedTree(*settings, self.feature, threshold, left, right, self.value))

    @classmethod
    def from_dict(cls, data: object, where: str = "tree") -> RegressionTree:
        """Rebuild a saved tree, read by _SavedTree's annotations.

        Raises ValueError for any tree that could crash or misroute:
        a setting out of its bounds, unequal node arrays, a child outside
        parent < child < n (which also rules out cycles), a node other
        than the root without exactly one parent, or more levels than
        max_depth. check_features bounds the split columns, which depend
        on the matrix.
        """
        saved = read_config(_SavedTree, data, where)
        tree = cls(saved.max_depth, saved.min_samples_leaf, saved.max_features)
        nodes = (saved.feature, saved.threshold, saved.left, saved.right, saved.value)
        feature, threshold, left, right, value = nodes
        n = len(feature)
        if n == 0 or any(array.shape != (n,) for array in nodes):
            raise ValueError("tree node arrays must be non-empty and of equal length")
        inner = feature != _LEAF
        ids = np.arange(n)
        for children in (left, right):
            if not ((ids[inner] < children[inner]) & (children[inner] < n)).all():
                raise ValueError("tree child index out of range")
            if not (children[~inner] == _LEAF).all():
                raise ValueError("tree leaf has a child")
        if not (np.bincount(np.concatenate([left[inner], right[inner]]), minlength=n)[1:] == 1).all():
            raise ValueError("every tree node but the root must have exactly one parent")
        depth, level = 0, np.zeros(1, dtype=np.int64)
        while inner[level].any():
            level = level[inner[level]]
            level = np.concatenate([left[level], right[level]])
            depth += 1
        if depth > saved.max_depth:
            raise ValueError(f"tree is {depth} levels deep, max_depth is {saved.max_depth}")
        tree.depth = depth
        threshold[~inner] = np.inf
        tree._set_nodes(
            feature, threshold, np.where(inner, left, ids), np.where(inner, right, ids), value
        )
        return tree


@dataclass(frozen=True, slots=True)
class _SavedTree:
    """A RegressionTree as to_dict writes it: a leaf has feature and children -1 and threshold 0."""

    max_depth: int
    min_samples_leaf: int
    max_features: int | None
    feature: NDArray[np.int64]
    threshold: np.ndarray
    left: NDArray[np.int64]
    right: NDArray[np.int64]
    value: np.ndarray


def check_features(trees: Sequence[RegressionTree], width: int) -> None:
    """ValueError unless every split of ``trees`` reads a column in [0, width)."""
    features = np.concatenate([tree.feature for tree in trees])
    if not ((features >= _LEAF) & (features < width)).all():
        raise ValueError(f"tree feature index outside [0, {width})")


# Split-search cells one block handles: (node, candidate column) rows
# times their padded width. Enough to spread each numpy call's overhead
# over many nodes, few enough to keep the temporaries small.
_GROW_BLOCK = 1 << 16


def grow_trees(
    trees: Sequence[RegressionTree],
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    rng: np.random.Generator | None,
    ranks: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> None:
    """Grow every tree of ``trees`` together, one depth at a time.

    The trees share the first one's max_depth, min_samples_leaf and
    max_features. Tree t grows on rows samples[t] of X and y, in that
    order (a bootstrap sample, say). ``ranks`` is rank_columns(X), made
    here when not given.

    Each depth searches the splits of every splittable node of every
    tree at once (see _best_splits). With feature subsampling it first
    draws rng.random((nodes, width)) for those nodes, ordered by tree and
    then left to right, and a node searches the max_features columns
    with the smallest keys. A node's value is its targets' sum over its
    row count: in row order, as np.mean adds, unless the targets are 0/1,
    whose sums are exact in any order.
    """
    spec = trees[0]
    codes, values = rank_columns(X) if ranks is None else ranks
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.isfinite(y).all():
        raise ValueError("tree fitting needs finite targets")
    binary = samples.size > 0 and bool(((y == 0) | (y == 1)).all())
    width = X.shape[1]
    subset = spec.max_features
    if subset is not None and subset < width:
        if rng is None:
            raise ValueError("feature subsampling needs an rng")
    else:
        subset = None
    min_leaf = spec.min_samples_leaf
    cells = X.ravel()
    # A last column of the largest code and a zero target: the pad row.
    padded_ranks = np.concatenate(
        [codes, np.full((width, 1), np.iinfo(codes.dtype).max, codes.dtype)], axis=1
    )
    padded_y = np.append(y, 0.0)
    # The live nodes of the current depth, tree by tree and left to right:
    # each one's tree and row count, and their rows, node after node.
    owner = np.arange(len(trees))
    counts = np.full(len(trees), samples.shape[1], dtype=np.int64)
    rows = samples.ravel()
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for depth in range(spec.max_depth + 1):
        ends = np.cumsum(counts)
        starts = ends - counts
        targets = y.take(rows)
        # The sum over the count is np.mean's own arithmetic, minus its overhead.
        sums = np.add.reduceat(targets, starts) if binary else np.fromiter(
            (targets[a:b].sum() for a, b in zip(starts.tolist(), ends.tolist())), np.float64, len(counts)
        )
        value = sums / counts
        feature = np.full(len(counts), _LEAF, dtype=np.int64)
        threshold = np.full(len(counts), np.inf)
        if depth < spec.max_depth and len(rows):
            varied = np.minimum.reduceat(targets, starts) != np.maximum.reduceat(targets, starts)
            live = np.flatnonzero(varied & (counts >= 2 * min_leaf))
            if subset is None:
                candidates = np.broadcast_to(np.arange(width), (len(live), width))
            else:
                keys = rng.random((len(live), width))
                candidates = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :subset], axis=1)
            feature[live], threshold[live] = _best_splits(
                X, padded_ranks, values if binary else None, padded_y, min_leaf,
                np.append(rows, len(y)), starts.take(live), counts.take(live), candidates,
            )
        levels.append((owner, value, feature, threshold))
        split = feature != _LEAF
        if not split.any():
            break
        # Stable partition: each split node's rows become its left child's
        # rows and then its right child's, both in their old order.
        node = np.repeat(np.arange(len(counts)), counts)
        kept = np.flatnonzero(split.take(node))
        node, rows = node.take(kept), rows.take(kept)
        goes_right = cells.take(rows * width + feature.take(node)) > threshold.take(node)
        child = 2 * (np.cumsum(split) - 1).take(node) + goes_right
        rows = rows.take(np.argsort(child, kind="stable"))
        counts = np.bincount(child, minlength=2 * int(split.sum()))
        owner = np.repeat(owner[split], 2)
    _number_in_preorder(trees, levels)


def _best_splits(
    X: np.ndarray,
    ranks: np.ndarray,
    values: list[np.ndarray] | None,
    y: np.ndarray,
    min_leaf: int,
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's split feature and threshold, or _LEAF and +inf where
    it has no cut.

    ``ranks`` and ``y`` are X's rank codes and the targets, each with a
    last pad row whose codes are the largest and whose target is zero.
    Node i holds rows[starts[i]:starts[i] + counts[i]] and searches the
    columns candidates[i]; the last entry of rows is the pad row. Nodes
    go largest first, in blocks of at most _GROW_BLOCK cells padded to
    the block's first row count; a block takes only nodes that fill
    more than half of it.

    ``values``, each column's sorted distinct values, is given when every
    target is 0 or 1; then blocks whose histogram fits (_histogram_fits)
    count rows per code (_count_block) and others sort them (_search_block)
    with equal results. Residuals keep the sort, as bin sums would round
    them otherwise, and so do small nodes, whose bins would be mostly empty.
    """
    width = candidates.shape[1]
    feature = np.full(len(counts), _LEAF, dtype=np.int64)
    # The feature values either side of each node's cut; +inf where it has none.
    low, high = np.full((2, len(counts)), np.inf)
    if values is not None:
        levels = np.array([len(column) for column in values])
        flat_values = np.concatenate(values)
    by_size = np.argsort(-counts, kind="stable")
    descending = counts.take(by_size)
    halves = np.searchsorted(-descending, -(descending // 2)).tolist()
    first = 0
    while first < len(by_size):
        padded = int(descending[first])
        last = min(first + max(1, _GROW_BLOCK // (width * padded)), halves[first])
        block = by_size[first:last]
        nodes = (rows, starts.take(block), counts.take(block), candidates[block])
        if values is not None and _histogram_fits(levels, *nodes[2:]):
            node, chosen, below, above = _count_block(ranks, levels, flat_values, y, min_leaf, *nodes)
        else:
            node, chosen, below, above = _search_block(X, ranks, y, min_leaf, *nodes, padded)
        split = block.take(node)
        feature[split], low[split], high[split] = chosen, below, above
        first = last
    cut = (low + high) / 2.0
    # Adjacent floats can round the midpoint up onto high, which would
    # route every row left; pin to the lower value.
    return feature, np.where(cut >= high, low, cut)


def _histogram_fits(levels: np.ndarray, counts: np.ndarray, candidates: np.ndarray) -> bool:
    """Whether a block's histogram has no more bins than its cells have rows."""
    return int(levels.take(candidates).sum()) <= int(counts.sum()) * candidates.shape[1]


def _count_block(
    ranks: np.ndarray, levels: np.ndarray, flat_values: np.ndarray, y: np.ndarray, min_leaf: int,
    rows: np.ndarray, starts: np.ndarray, counts: np.ndarray, candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_search_block's result for 0/1 targets, from a histogram with a bin
    per code of each (node, candidate) cell: ``levels`` per column, valued
    as in ``flat_values``, all columns end to end. Sums of 0/1 targets are
    exact and each is its own square, so every SSE is bit-equal to the
    sort's, and cuts run in its order: node, column, then code. The values
    either side are the chosen code's and the cell's next occupied one's."""
    n_nodes, width = candidates.shape
    cell_bins = levels.take(candidates).ravel()
    cell_start = np.cumsum(cell_bins) - cell_bins
    node = np.repeat(np.arange(n_nodes), counts)
    # Row j of the block is row j - (rows before its node) of its node.
    node_rows = rows.take(np.arange(len(node)) + (starts - np.cumsum(counts) + counts).take(node))
    bins = ranks.take((candidates * ranks.shape[1]).take(node, axis=0) + node_rows[:, None])
    bins = bins + cell_start.reshape(n_nodes, width).take(node, axis=0)
    one = y.take(node_rows) == 1
    filled, ones = (np.bincount(b.ravel(), minlength=int(cell_bins.sum())) for b in (bins, bins[one]))
    # Rows and ones through each bin, and before each cell's first bin.
    rows_through, ones_through = np.cumsum(filled), np.cumsum(ones)
    cell_n = np.repeat(counts, width)
    rows_before = np.cumsum(cell_n) - cell_n
    ones_before = ones_through.take(cell_start) - ones.take(cell_start)
    cell_ones = ones_through.take(cell_start + cell_bins - 1) - ones_before
    low = np.repeat(rows_before + min_leaf, cell_bins)
    high = np.repeat(rows_before + cell_n - min_leaf, cell_bins)
    scored = np.flatnonzero((filled > 0) & (rows_through >= low) & (rows_through <= high))
    cell = np.searchsorted(cell_start, scored, side="right") - 1
    sizes = rows_through.take(scored) - rows_before.take(cell)
    left_sum = (ones_through.take(scored) - ones_before.take(cell)).astype(np.float64)
    right_sum = cell_ones.take(cell) - left_sum
    # _search_block's expression, with each sum of squares equal to its sum.
    sse = left_sum - left_sum * left_sum / sizes + (right_sum - right_sum * right_sum / (cell_n.take(cell) - sizes))
    # Scored bins run node by node; take each node's first minimum.
    owner = cell // width
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    lowest = np.minimum.reduceat(sse, first)
    hits = np.flatnonzero(sse == np.repeat(lowest, np.diff(first, append=len(sse))))
    best = hits.take(np.searchsorted(hits, first))
    chosen, cell = scored.take(best), cell.take(best)
    occupied = np.flatnonzero(filled)
    above = occupied.take(np.searchsorted(occupied, chosen, side="right"))
    feature = candidates.ravel().take(cell)
    # Bin b of a cell stands for code b - cell_start of its column.
    offset = (np.cumsum(levels) - levels).take(feature) - cell_start.take(cell)
    return owner.take(first), feature, flat_values.take(chosen + offset), flat_values.take(above + offset)


def _search_block(
    X: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    padded: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lowest-SSE cut of each node of one block: the nodes that have a
    cut, and each one's feature and the two feature values either side.

    Each (node, candidate) pair is one row of codes: the node's rows in
    order, then pad rows up to ``padded``. One stable argsort orders
    every row. Rows stay in stable code order, which is stable value
    order, and the pads stay last. Prefix sums of the targets in that
    order match a float sort bit for bit, and only cuts between two
    different codes with min_leaf rows on both sides are scored. Ties
    resolve to the earliest candidate column and the lowest cut, and the
    two adjacent feature values are read back through the sort order.
    """
    n_nodes, width = candidates.shape
    span = np.arange(padded)
    node_rows = rows.take(np.where(span < counts[:, None], starts[:, None] + span, len(rows) - 1))
    codes = ranks.take((candidates * ranks.shape[1])[:, :, None] + node_rows[:, None, :])
    codes = codes.reshape(-1, padded)
    order = np.argsort(codes, axis=1, kind="stable")
    # Flat take()s gather several times faster than 2-D fancy indexing.
    order += np.arange(0, codes.size, padded)[:, None]
    ranked = codes.take(order)
    ys = np.repeat(y.take(node_rows), width, axis=0).take(order)
    prefix = np.cumsum(ys, axis=1)
    prefix_sq = np.cumsum(ys * ys, axis=1)
    # A cut after sorted position p leaves p + 1 rows on the left; only
    # value boundaries with min_leaf rows on both sides are scored.
    low = min_leaf - 1
    n = np.repeat(counts, width)
    scored = ranked[:, low + 1 :] != ranked[:, low:-1]
    scored &= span[min_leaf:] < (n - low)[:, None]
    cells = np.flatnonzero(scored)
    row, pos = np.divmod(cells, scored.shape[1])
    pos += low
    sizes = pos + 1
    rest = n.take(row) - sizes
    left = row * padded + pos
    last = left + rest
    left_sum, left_sq = prefix.take(left), prefix_sq.take(left)
    sse_left = left_sq - left_sum * left_sum / sizes
    right_sum = prefix.take(last) - left_sum
    right_sq = prefix_sq.take(last) - left_sq
    sse = np.full(scored.shape, np.inf)
    sse.put(cells, sse_left + (right_sq - right_sum * right_sum / rest))
    # A node's cells run column by column, lowest cut first, so its first
    # minimum is its earliest column's lowest cut; unscored cells are +inf.
    sse = sse.reshape(n_nodes, -1)
    best = np.argmin(sse, axis=1)
    node = np.flatnonzero(sse[np.arange(n_nodes), best] < np.inf)
    column, pos = np.divmod(best.take(node), scored.shape[1])
    feature = candidates[node, column]
    # The values on either side of the cut, read through the sort order.
    row = node * width + column
    at = (row * padded + pos + low)[:, None] + (0, 1)
    sides = X[node_rows.take(order.take(at) + ((node - row) * padded)[:, None]), feature[:, None]]
    return node, feature, sides[:, 0], sides[:, 1]


def _number_in_preorder(
    trees: Sequence[RegressionTree],
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Fill each tree's node arrays from the nodes grown depth by depth.

    levels[d] holds the tree, value, feature and threshold of every node
    at depth d, tree by tree and left to right; the i-th split node's
    children are nodes 2i and 2i + 1 of depth d + 1. Nodes are renumbered
    in pre-order within each tree.
    """
    # Subtree sizes, deepest level first; the last level has no splits.
    sizes = [np.ones(len(levels[-1][0]), dtype=np.int64)]
    for _, _, feature, _ in reversed(levels[:-1]):
        size = np.ones(len(feature), dtype=np.int64)
        below = sizes[-1]
        size[feature != _LEAF] += below[0::2] + below[1::2]
        sizes.append(size)
    sizes.reverse()
    # Pre-order ids within each tree, top level first: a left child comes
    # right after its parent, a right child after the left subtree.
    preorder = [np.zeros(len(trees), dtype=np.int64)]
    for (_, _, feature, _), size in zip(levels[:-1], sizes[1:]):
        parent = preorder[-1][feature != _LEAF]
        ids = np.empty(len(size), dtype=np.int64)
        ids[0::2] = parent + 1
        ids[1::2] = parent + 1 + size[0::2]
        preorder.append(ids)
    tree_sizes = sizes[0]
    base = np.cumsum(tree_sizes) - tree_sizes
    total = int(tree_sizes.sum())
    feature_all = np.empty(total, dtype=np.int64)
    threshold_all = np.empty(total)
    value_all = np.empty(total)
    children = np.empty((total, 2), dtype=np.int64)
    depth_all = np.empty(total, dtype=np.int64)
    for depth, ((owner, value, feature, threshold), ids) in enumerate(zip(levels, preorder)):
        at = base.take(owner) + ids
        feature_all[at], threshold_all[at], value_all[at], depth_all[at] = (
            feature, threshold, value, depth
        )
        # Leaves route to themselves.
        children[at] = ids[:, None]
        if depth + 1 < len(levels):
            split = np.flatnonzero(feature != _LEAF)
            children[at.take(split)] = preorder[depth + 1].reshape(-1, 2)
    for tree, low, size in zip(trees, base.tolist(), tree_sizes.tolist()):
        nodes = slice(low, low + size)
        tree._set_nodes(
            feature_all[nodes], threshold_all[nodes], children[nodes, 0], children[nodes, 1],
            value_all[nodes],
        )
        tree.depth = int(depth_all[nodes].max())


# (tree, row) pairs a NodeTable routes together: enough to spread each
# numpy call's overhead, few enough to keep the temporaries small.
_BLOCK = 1 << 14


class NodeTable:
    """Several trees' nodes in one set of arrays, so that (tree, row) pairs
    of all of them route together through apply().

    Tree t's node i is table node roots[t] + i; child ids are shifted the same way, so a leaf
    still routes to itself. threshold has one entry per node, then -inf and +inf for intervals().
    """

    def __init__(self, trees: Sequence[RegressionTree]) -> None:
        self.roots = np.cumsum([0] + [len(tree.value) for tree in trees[:-1]])
        self.feature = np.concatenate([tree.feature for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees] + [[-np.inf, np.inf]])
        self.routes = np.concatenate([tree.routes + root for tree, root in zip(trees, self.roots)])
        self.value = np.concatenate([tree.value for tree in trees])
        self.depth = max(tree.depth for tree in trees)

    def apply(self, X: np.ndarray, tree_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Table leaf id of each pair (tree_ids[k], rows[k]) of X, in the
        narrowest unsigned type. Pairs go _BLOCK at a time, each block as
        many steps as the deepest tree."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        cells, width = X.ravel(), X.shape[1]
        leaves = np.empty(len(rows), dtype=np.min_scalar_type(len(self.value) - 1))
        for start in range(0, len(rows), _BLOCK):
            block = slice(start, start + _BLOCK)
            row_start = np.multiply(rows[block], width, dtype=np.int64)
            node = self.roots.take(tree_ids[block])
            for _ in range(self.depth):
                # A row goes left when its value is <= the threshold, so NaN goes right. Leaves
                # read column -1, and their +inf threshold sends their rows back to themselves.
                goes_left = cells.take(row_start + self.feature.take(node)) <= self.threshold.take(node)
                node = self.routes.take(2 * node + goes_left)
            leaves[block] = node
        return leaves

    def intervals(self, columns: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): (nodes, len(columns)) threshold ids. A row on a node's path stays on
        it while each of its values in ``columns`` lies in (threshold[lo], threshold[hi]]:
        the path's tightest splits on the column going right and going left, or -inf and +inf."""
        nodes, ids = len(self.value), np.min_scalar_type(len(self.value) + 1)
        lo, hi = (np.full((nodes, len(columns)), end, ids) for end in (nodes, nodes + 1))
        level = self.roots
        for _ in range(self.depth):
            level = level[self.feature.take(level) != _LEAF]
            split, column = np.nonzero(self.feature.take(level)[:, None] == np.asarray(columns))
            parent = level.take(split)
            # Children inherit both ends; a split raises its right child's lo, lowers its left's hi.
            for bound, side, tighter in ((lo, 0, np.greater), (hi, 1, np.less)):
                bound[self.routes[level]] = bound[level][:, None]
                tightens = tighter(self.threshold.take(parent), self.threshold.take(bound[parent, column]))
                bound[self.routes[parent, side][tightens], column[tightens]] = parent[tightens]
            level = self.routes[level].ravel()
        return lo, hi
