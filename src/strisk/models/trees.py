"""Depth-limited regression trees used by every tree-based family.

Targets are arbitrary reals (0/1 class labels for bagging, gradient
residuals for boosting); splits minimize within-node squared error via
prefix sums, which for binary targets is the classic impurity criterion.
Split search never sorts floats: rank_columns turns each column into
integer codes once per ensemble, and a node stable-sorts its rows' codes
(a radix sort for 8- and 16-bit codes), takes target prefix sums in that
order and scores only the cuts between two different codes. The
threshold is read back from the two adjacent feature values, so trees
are the ones a float sort would grow. A tree is five numpy node arrays
in which leaves route to themselves, so prediction moves all rows down
one level per step and is done after as many steps as the tree is deep.
A NodeTable holds several trees' arrays end to end, so that chosen
(tree, row) pairs of all of them take those steps together.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_LEAF = -1


def rank_columns(X: np.ndarray) -> np.ndarray:
    """(width, n) dense rank codes of X's columns, in the narrowest unsigned dtype.

    Codes keep each column's order and are equal exactly where its values
    are, so sorting codes sorts values; uint16 holds up to 65,536
    distinct values per column. Raises ValueError for a non-finite X,
    whose NaN would compare unequal to itself yet share a code.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("tree fitting needs finite feature values")
    # Ranking one column at a time keeps temporaries to a column's size.
    inverses = [np.unique(column, return_inverse=True)[1] for column in X.T]
    top = max((int(inverse.max(initial=0)) for inverse in inverses), default=0)
    return np.array(inverses, dtype=np.min_scalar_type(top)).reshape(X.shape[::-1])


def step(
    cells: np.ndarray,
    row_start: np.ndarray,
    node: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    routes: np.ndarray,
) -> np.ndarray:
    """Move each (row, node) pair down one level; return the nodes reached.

    ``cells`` is a C-ordered float64 matrix raveled, ``row_start`` the
    flat offset of each pair's row. ``routes`` holds (right, left) child
    pairs, so a node's next node is at flat index 2 * node + goes_left.
    A row goes left when its value is <= the threshold, so NaN goes
    right; a leaf's +inf threshold sends its rows back to itself.
    """
    # Leaves read column -1; their +inf threshold makes it moot.
    goes_left = cells.take(row_start + feature.take(node)) <= threshold.take(node)
    return routes.take(2 * node + goes_left)


@dataclass
class RegressionTree:
    """CART-style tree; fit() and from_params() fill the node arrays.

    Nodes are numbered in pre-order, so every child comes after its
    parent. feature[i] is _LEAF for leaves, whose threshold is +inf and
    whose left and right children are the leaf itself. Ties between
    equally good splits resolve to the earliest feature and lowest
    threshold, making structure deterministic for a fixed rng.
    """

    max_depth: int = 3
    min_samples_leaf: int = 1
    max_features: int | None = None
    feature: np.ndarray = field(init=False, repr=False)
    threshold: np.ndarray = field(init=False, repr=False)
    left: np.ndarray = field(init=False, repr=False)
    right: np.ndarray = field(init=False, repr=False)
    # (nodes, 2) children as step() reads them; left and right are views.
    routes: np.ndarray = field(init=False, repr=False)
    value: np.ndarray = field(init=False, repr=False)
    # Longest root-to-leaf path; apply() takes this many routing steps.
    depth: int = field(init=False, default=0)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator | None = None,
        ranks: np.ndarray | None = None,
    ) -> RegressionTree:
        """Grow the tree on X's rows and targets y.

        ``ranks`` holds rank_columns codes for X's rows: (width, len(y)),
        column j ordered like X[:, j], equal codes exactly where values
        are equal. Ensembles rank their matrix once and pass each tree the
        codes of its rows; without them fit ranks X itself.
        """
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if ranks is None:
            ranks = rank_columns(X)
        if not np.isfinite(y).all():
            raise ValueError("tree fitting needs finite targets")
        nodes: list[tuple[int, float, int, int, float]] = []
        self.depth = 0
        self._grow(X, ranks, y, np.arange(len(y)), 0, rng, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self._set_nodes(feature, threshold, left, right, value)
        return self

    def _grow(
        self,
        X: np.ndarray,
        ranks: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator | None,
        nodes: list[tuple[int, float, int, int, float]],
    ) -> int:
        """Append the subtree over rows idx to nodes in pre-order; return its root."""
        node = len(nodes)
        self.depth = max(self.depth, depth)
        target = y[idx]
        # The sum over the count is np.mean's own arithmetic, minus its overhead.
        nodes.append((_LEAF, np.inf, node, node, float(target.sum() / len(idx))))
        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node
        if target.min() == target.max():
            return node
        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            if rng is None:
                raise ValueError("feature subsampling needs an rng")
            candidates = np.sort(
                rng.choice(n_features, size=self.max_features, replace=False)
            )
            codes = ranks.take(candidates, axis=0).take(idx, axis=1)
        else:
            candidates = np.arange(n_features)
            codes = ranks.take(idx, axis=1)
        best = self._best_split(X, codes, target, idx, candidates)
        if best is None:
            return node
        feature_id, cut, goes_left = best
        left = self._grow(X, ranks, y, idx[goes_left], depth + 1, rng, nodes)
        right = self._grow(X, ranks, y, idx[~goes_left], depth + 1, rng, nodes)
        nodes[node] = (feature_id, cut, left, right, nodes[node][4])
        return node

    def _set_nodes(self, feature, threshold, left, right, value) -> None:
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.value = np.asarray(value, dtype=np.float64)
        # Row i holds (right, left) children of node i, so step() finds a
        # row's next node at flat index 2i + goes_left.
        self.routes = np.column_stack([right, left]).astype(np.int64)
        self.right, self.left = self.routes[:, 0], self.routes[:, 1]

    def _best_split(
        self,
        X: np.ndarray,
        codes: np.ndarray,
        target: np.ndarray,
        idx: np.ndarray,
        candidates: np.ndarray,
    ) -> tuple[int, float, np.ndarray] | None:
        """Lowest-SSE cut over the node's (candidates, rows) codes, or None.

        Returns the feature, the threshold and which of the node's rows
        go left. Rows are summed in stable code order, which is stable
        value order, so the sums match a float sort bit for bit.
        """
        n = len(idx)
        min_leaf = self.min_samples_leaf
        order = np.argsort(codes, axis=1, kind="stable")
        # Flat take()s gather several times faster than 2-D fancy indexing.
        ranked = codes.take(order + np.arange(0, codes.size, n)[:, None])
        ys = target.take(order)
        prefix = np.cumsum(ys, axis=1)
        prefix_sq = np.cumsum(ys * ys, axis=1)
        # A cut after sorted position p leaves p + 1 rows on the left; only
        # value boundaries with min_leaf rows on both sides are scored.
        low, high = min_leaf - 1, n - min_leaf
        column, pos = np.nonzero(ranked[:, low:high] != ranked[:, low + 1 : high + 1])
        if not len(column):
            return None
        pos += low
        sizes = pos + 1
        at = column * n + pos
        left_sum, left_sq = prefix.take(at), prefix_sq.take(at)
        sse_left = left_sq - left_sum * left_sum / sizes
        right_sum = prefix[:, -1].take(column) - left_sum
        right_sq = prefix_sq[:, -1].take(column) - left_sq
        sse_right = right_sq - right_sum * right_sum / (n - sizes)
        # Cuts are listed column by column, lowest first, so the first
        # minimum is the earliest column's lowest cut.
        best = int(np.argmin(sse_left + sse_right))
        column, pos = int(column[best]), int(pos[best])
        feature = int(candidates[column])
        low_value = X[idx[order[column, pos]], feature]
        high_value = X[idx[order[column, pos + 1]], feature]
        cut = (low_value + high_value) / 2.0
        # Adjacent floats can round the midpoint up onto high_value,
        # which would route every row left; pin to the lower value.
        if cut >= high_value:
            cut = low_value
        return feature, float(cut), codes[column] <= ranked[column, pos]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for each row of X.

        All rows start at the root and take one step() per level, as many
        steps as the tree is deep. NodeTable routes chosen rows of
        several trees.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        cells = X.ravel()
        row_start = np.arange(len(X), dtype=np.int64) * X.shape[1]
        node = np.zeros(len(X), dtype=np.int64)
        for _ in range(self.depth):
            node = step(cells, row_start, node, self.feature, self.threshold, self.routes)
        return node

    def path_columns(self, width: int) -> np.ndarray:
        """(nodes, width) flags: True where the root-to-node path splits on the column.

        Changing a row's values in columns its leaf's path never splits
        on cannot move the row to another leaf.
        """
        paths = np.zeros((len(self.feature), width), dtype=bool)
        level = np.zeros(1, dtype=np.int64)
        for _ in range(self.depth):
            level = level[self.feature[level] != _LEAF]
            for children in (self.left[level], self.right[level]):
                paths[children] = paths[level]
                paths[children, self.feature[level]] = True
            level = np.concatenate([self.left[level], self.right[level]])
        return paths

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

    def to_params(self) -> dict:
        leaf = self.feature == _LEAF
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "feature": self.feature.tolist(),
            "threshold": np.where(leaf, 0.0, self.threshold).tolist(),
            "left": np.where(leaf, _LEAF, self.left).tolist(),
            "right": np.where(leaf, _LEAF, self.right).tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_params(cls, data: dict, width: int) -> RegressionTree:
        """Rebuild a saved tree over ``width`` feature columns.

        Raises ValueError for any tree that could crash or misroute:
        unequal node arrays, a child outside parent < child < n (which
        also rules out cycles), a node other than the root without
        exactly one parent, a feature outside [0, width), a non-finite
        threshold or value, or more levels than max_depth.
        """
        tree = cls(
            max_depth=_positive_int(data["max_depth"], "max_depth"),
            min_samples_leaf=_positive_int(data["min_samples_leaf"], "min_samples_leaf"),
            max_features=(
                None
                if data["max_features"] is None
                else _positive_int(data["max_features"], "max_features")
            ),
        )
        feature, left, right = (_int_nodes(data[key], key) for key in ("feature", "left", "right"))
        threshold, value = (_float_nodes(data[key], key) for key in ("threshold", "value"))
        n = len(feature)
        if n == 0 or any(len(nodes) != n for nodes in (threshold, left, right, value)):
            raise ValueError("tree node arrays must be non-empty and of equal length")
        inner = feature != _LEAF
        ids = np.arange(n)
        if not ((feature[inner] >= 0) & (feature[inner] < width)).all():
            raise ValueError(f"tree feature index outside [0, {width})")
        for children in (left, right):
            if not ((ids[inner] < children[inner]) & (children[inner] < n)).all():
                raise ValueError("tree child index out of range")
            if not (children[~inner] == _LEAF).all():
                raise ValueError("tree leaf has a child")
        if not (np.bincount(np.concatenate([left[inner], right[inner]]), minlength=n)[1:] == 1).all():
            raise ValueError("every tree node but the root must have exactly one parent")
        if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
            raise ValueError("tree thresholds and values must be finite")
        depth, level = 0, np.zeros(1, dtype=np.int64)
        while inner[level].any():
            level = level[inner[level]]
            level = np.concatenate([left[level], right[level]])
            depth += 1
        if depth > tree.max_depth:
            raise ValueError(f"tree is {depth} levels deep, max_depth is {tree.max_depth}")
        tree.depth = depth
        threshold[~inner] = np.inf
        tree._set_nodes(
            feature, threshold, np.where(inner, left, ids), np.where(inner, right, ids), value
        )
        return tree


# (tree, row) pairs a NodeTable routes together: enough to spread each
# numpy call's overhead, few enough to keep the temporaries small.
_BLOCK = 1 << 14


class NodeTable:
    """Several trees' nodes in one set of arrays, so that (tree, row) pairs
    of all of them route together through step().

    Tree t's node i is table node roots[t] + i; child ids are shifted
    the same way, so a leaf still routes to itself.
    """

    def __init__(self, trees: Sequence[RegressionTree]) -> None:
        self.roots = np.cumsum([0] + [len(tree.value) for tree in trees[:-1]])
        self.feature = np.concatenate([tree.feature for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees])
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
                node = step(cells, row_start, node, self.feature, self.threshold, self.routes)
            leaves[block] = node
        return leaves


def _positive_int(raw, name: str) -> int:
    if type(raw) is not int or raw < 1:
        raise ValueError(f"tree {name} must be a positive integer: {raw!r}")
    return raw


def _int_nodes(raw, name: str) -> np.ndarray:
    nodes = np.asarray(raw)
    if nodes.ndim != 1 or (len(nodes) and nodes.dtype.kind != "i"):
        raise ValueError(f"tree {name} must be a list of integers")
    return nodes.astype(np.int64)


def _float_nodes(raw, name: str) -> np.ndarray:
    nodes = np.asarray(raw, dtype=np.float64)
    if nodes.ndim != 1:
        raise ValueError(f"tree {name} must be a list of numbers")
    return nodes
