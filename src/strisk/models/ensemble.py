"""Tree ensembles: bootstrap bagging, random forests, gradient boosting.

All three share the RegressionTree core. Bagging and forests average
leaf means of trees fit to 0/1 labels; boosting fits each tree to the
log-loss residuals and replaces leaf outputs with one Newton step per
leaf before shrinking by the learning rate.

Their base, _TreeEnsemble, holds predict_proba and the permuted scorer,
both routing (tree, row) pairs of all trees together through one
NodeTable and handing each tree's per-row values to the family's _proba,
and the saved parameters with their checks. A family adds its fit and
_proba: the clipped mean vote, or the sigmoid of the boosted sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

from ..records import Bound, Count, Seed, check_bounds, json_fields
from .encode import read_params
from .linear import _sigmoid
from .trees import _BLOCK, NodeTable, RegressionTree, check_features, grow_trees, rank_columns


def _resolve_max_features(max_features: int | str | None, n_features: int) -> int | None:
    if max_features is None:
        return None
    if max_features == "sqrt":
        return max(1, round(math.sqrt(n_features)))
    if isinstance(max_features, int) and max_features >= 1:
        return min(max_features, n_features)
    raise ValueError(f"max_features must be None, 'sqrt' or a positive int: {max_features!r}")


def _tree_sum(start: np.ndarray, weight: float, values: Iterable[np.ndarray]) -> np.ndarray:
    """start plus weight times each tree's per-row values, added in tree order."""
    for tree_values in values:
        start += weight * tree_values
    return start


def _route(table: NodeTable, X: np.ndarray) -> np.ndarray:
    """(trees, rows) table leaf ids of X: every (tree, row) pair routed together."""
    n_trees, n_rows = len(table.roots), len(X)
    tree_ids = np.arange(n_trees, dtype=np.min_scalar_type(n_trees))
    rows = np.arange(n_rows, dtype=np.min_scalar_type(n_rows))
    return table.apply(X, np.repeat(tree_ids, n_rows), np.tile(rows, n_trees)).reshape(n_trees, n_rows)


def _permuted_values(
    trees: list[RegressionTree], X: np.ndarray
) -> Callable[[np.ndarray, Sequence[int]], Iterator[np.ndarray]]:
    """values(shuffled, columns): each tree's per-row values for
    ``shuffled``, a matrix equal to X outside ``columns``.

    A (tree, row) pair moves only if its leaf path splits on one of ``columns``;
    where moved pairs are tested, one whose shuffled value lies in its leaf's
    interval on the column (NodeTable.intervals; never NaN) keeps its leaf too.
    The rest route again, all trees' together through one NodeTable. Moved
    pairs and intervals are kept for the latest column set, which repeats share.
    """
    table = NodeTable(trees)
    nodes, (n_rows, width) = len(table.value), X.shape
    unshuffled = _route(table, X)
    tree_ids, row_ids = np.arange(len(trees), dtype=np.min_scalar_type(len(trees))), np.min_scalar_type(n_rows)
    # Per column set: moved pairs' rows, each tree's end, and bounded node n's first-column interval at slot[n].
    movable: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def moved_pairs(columns: Sequence[int]) -> tuple[np.ndarray, ...]:
        key = tuple(columns)
        if key not in movable:
            movable.clear()
            lo, hi = table.intervals(columns)
            bounded = ((lo < nodes) | (hi < nodes)).any(axis=1)
            rows = [np.flatnonzero(bounded.take(leaves)).astype(row_ids) for leaves in unshuffled]
            ends = np.cumsum([0] + [len(tree_rows) for tree_rows in rows])
            rows = np.concatenate(rows)
            slot = np.zeros(nodes, dtype=lo.dtype)
            slot[bounded] = np.arange(np.count_nonzero(bounded))
            lo, hi = (table.threshold.take(end[bounded, :1].ravel()) for end in (lo, hi))
            movable[key] = (rows, ends, slot, lo, hi)
        return movable[key]

    def values(shuffled: np.ndarray, columns: Sequence[int]) -> Iterator[np.ndarray]:
        rows, ends, slot, lo, hi = moved_pairs(columns)
        leaving, counts = np.ones(len(rows), dtype=bool), np.diff(ends)
        # Moved pairs are tested, _BLOCK at a time, only where that can save
        # routing blocks: on one shuffled column, and more pairs than one block.
        if len(columns) == 1 and len(rows) > _BLOCK:
            counts = np.zeros(len(trees), dtype=np.int64)
            for start in range(0, len(rows), _BLOCK):
                block = slice(start, start + _BLOCK)
                owners = np.repeat(tree_ids, np.diff(ends.clip(start, start + _BLOCK)))
                leaves = slot.take(unshuffled.take(np.multiply(owners, n_rows, dtype=np.int64) + rows[block]))
                value = shuffled.take(np.multiply(rows[block], width, dtype=np.int64) + columns[0])
                leaving[block] = out = ~((lo.take(leaves) < value) & (value <= hi.take(leaves)))
                counts += np.bincount(owners[out], minlength=len(trees))
        rows = rows[leaving]
        new_leaves = table.apply(shuffled, np.repeat(tree_ids, counts), rows)
        for leaf_ids, high, count in zip(unshuffled, np.cumsum(counts).tolist(), counts.tolist()):
            tree_values = table.value.take(leaf_ids)
            tree_values[rows[high - count : high]] = table.value.take(new_leaves[high - count : high])
            yield tree_values

    return values


class _TreeEnsemble:
    """Scoring and saving shared by the ensembles of ``trees``: each
    family turns every tree's per-row values into probabilities in
    _proba(n_rows, values). Settings are checked on construction."""

    __post_init__ = check_bounds

    def _tree_values(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """Each tree's per-row values for X, in tree order."""
        table = NodeTable(self.trees)
        return (table.value.take(leaves) for leaves in _route(table, X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._proba(len(X), self._tree_values(X))

    def permuted_proba(self, X: np.ndarray) -> Callable[[np.ndarray, Sequence[int]], np.ndarray]:
        """proba(shuffled, columns): predict_proba of a matrix equal to X
        outside ``columns``, re-routing only the rows that can move."""
        values = _permuted_values(self.trees, X)
        return lambda shuffled, columns: self._proba(len(X), values(shuffled, columns))

    to_params = json_fields

    @classmethod
    def from_params(cls, data: dict, width: int) -> _TreeEnsemble:
        """A saved ensemble (read_params) with at least one tree, each splitting on columns in [0, width)."""
        model = read_params(cls, data, {})
        if not model.trees:
            raise ValueError("a tree ensemble needs at least one tree")
        check_features(model.trees, width)
        return model


@dataclass
class BaggedTrees(_TreeEnsemble):
    """Bootstrap-aggregated probability trees; forests add per-node
    feature subsampling on top."""

    n_estimators: Count = 50
    max_depth: Count = 8
    min_samples_leaf: Count = 2
    max_features: Annotated[int | Literal["sqrt"] | None, Bound(1)] = None
    seed: Seed = 0
    trees: list[RegressionTree] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> BaggedTrees:
        rng = np.random.default_rng(self.seed)
        subset = _resolve_max_features(self.max_features, X.shape[1])
        # Every tree's bootstrap rows first, then the feature draws of
        # all trees together, depth by depth.
        samples = np.array([rng.integers(0, len(y), size=len(y)) for _ in range(self.n_estimators)])
        settings = {"max_depth": self.max_depth, "min_samples_leaf": self.min_samples_leaf, "max_features": subset}
        self.trees = [RegressionTree(**settings) for _ in range(self.n_estimators)]
        grow_trees(self.trees, X, y.astype(np.float64), samples, rng)
        return self

    def _proba(self, n_rows: int, values: Iterable[np.ndarray]) -> np.ndarray:
        votes = _tree_sum(np.zeros(n_rows), 1.0, values)
        return np.clip(votes / len(self.trees), 0.0, 1.0)


@dataclass
class GradientBoostedTrees(_TreeEnsemble):
    """Log-loss boosting with Newton leaf values.

    Each round fits a tree to the residuals y - p, then sets every leaf to
    sum(residual) / (sum(p(1-p)) + l2_leaf) and adds learning_rate times
    that to the running log-odds.
    """

    n_estimators: Count = 150
    learning_rate: Annotated[float, Bound(0, 1, "(]")] = 0.1
    max_depth: Count = 3
    min_samples_leaf: Count = 2
    l2_leaf: float = 1.0
    seed: Seed = 0
    base_score: float = 0.0
    trees: list[RegressionTree] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> GradientBoostedTrees:
        y = y.astype(np.float64)
        positive_rate = float(y.mean())
        self.base_score = math.log(positive_rate / (1.0 - positive_rate))
        scores = np.full(len(y), self.base_score)
        ranks = rank_columns(X)
        self.trees = []
        for _ in range(self.n_estimators):
            prob = _sigmoid(scores)
            residual = y - prob
            hessian = prob * (1.0 - prob)
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X, residual, ranks=ranks)
            assignments = tree.apply(X)
            leaves = tree.leaf_ids()
            values = np.empty(len(leaves))
            for i, leaf in enumerate(leaves):
                mask = assignments == leaf
                values[i] = residual[mask].sum() / (hessian[mask].sum() + self.l2_leaf)
            tree.set_leaf_values(leaves, values)
            scores += self.learning_rate * tree.value[assignments]
            self.trees.append(tree)
        return self

    def decision(self, X: np.ndarray) -> np.ndarray:
        return self._decision(len(X), self._tree_values(X))

    def _decision(self, n_rows: int, values: Iterable[np.ndarray]) -> np.ndarray:
        return _tree_sum(np.full(n_rows, self.base_score), self.learning_rate, values)

    def _proba(self, n_rows: int, values: Iterable[np.ndarray]) -> np.ndarray:
        return _sigmoid(self._decision(n_rows, values))
