"""Tree ensembles: bootstrap bagging, random forests, gradient boosting.

All three share the RegressionTree core. Bagging and forests average
leaf means of trees fit to 0/1 labels; boosting fits each tree to the
log-loss residuals and replaces leaf outputs with one Newton step per
leaf before shrinking by the learning rate.

Their base, _TreeEnsemble, holds predict_proba and the permuted scorer,
both handing each tree's per-row values to the family's _proba, and the
saved parameters with their checks. A family adds its fit and _proba:
the clipped mean vote, or the sigmoid of the boosted sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..records import json_fields
from .encode import read_params
from .linear import _sigmoid
from .trees import NodeTable, RegressionTree, check_features, grow_trees, rank_columns


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


def _compact(ids: np.ndarray, bound: int) -> np.ndarray:
    """ids below ``bound`` in the narrowest unsigned integer type that holds them."""
    return ids.astype(np.min_scalar_type(max(bound - 1, 0)))


def _permuted_values(
    trees: list[RegressionTree], X: np.ndarray
) -> Callable[[np.ndarray, Sequence[int]], Iterator[np.ndarray]]:
    """values(shuffled, columns): each tree's per-row values for
    ``shuffled``, a matrix equal to X outside ``columns``.

    Only rows whose leaf for X lies under a split on one of ``columns``
    are routed again; every other row keeps its leaf. Which rows those
    are depends on the columns alone, so they are kept for the latest
    column set, which the repeats of one feature share. The moved
    (tree, row) pairs of all trees route together through one NodeTable.
    """
    unshuffled = [_compact(tree.apply(X), len(tree.value)) for tree in trees]
    table = NodeTable(trees)
    # Table node -> the columns its path splits on, for every tree at once.
    paths = np.concatenate([tree.path_columns(X.shape[1]) for tree in trees])
    ends = np.append(table.roots[1:], len(paths))
    tree_ids = _compact(np.arange(len(trees)), len(trees))
    # Per column set: every tree's moved rows, tree after tree, the tree of
    # each, and where each tree's rows start and end.
    movable: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def moved_pairs(columns: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = tuple(columns)
        if key not in movable:
            movable.clear()
            hit = paths[:, columns].any(axis=1)
            rows = [
                _compact(np.flatnonzero(hit[root:end].take(leaf_ids)), len(X))
                for root, end, leaf_ids in zip(table.roots, ends, unshuffled)
            ]
            counts = [len(tree_rows) for tree_rows in rows]
            movable[key] = (np.concatenate(rows), np.repeat(tree_ids, counts), np.cumsum([0] + counts))
        return movable[key]

    def values(shuffled: np.ndarray, columns: Sequence[int]) -> Iterator[np.ndarray]:
        rows, owners, bounds = moved_pairs(columns)
        leaves = table.apply(shuffled, owners, rows)
        for tree, leaf_ids, low, high in zip(trees, unshuffled, bounds[:-1], bounds[1:]):
            tree_values = tree.value.take(leaf_ids)
            tree_values[rows[low:high]] = table.value.take(leaves[low:high])
            yield tree_values

    return values


class _TreeEnsemble:
    """Scoring and saving shared by the ensembles of ``trees``: each
    family turns every tree's per-row values into probabilities in
    _proba(n_rows, values)."""

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._proba(len(X), (tree.predict(X) for tree in self.trees))

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

    n_estimators: int = 50
    max_depth: int = 8
    min_samples_leaf: int = 2
    max_features: int | str | None = None
    seed: int = 0
    trees: list[RegressionTree] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> BaggedTrees:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.seed)
        subset = _resolve_max_features(self.max_features, X.shape[1])
        # Every tree's bootstrap rows first, then the feature draws of
        # all trees together, depth by depth.
        samples = np.array([rng.integers(0, len(y), size=len(y)) for _ in range(self.n_estimators)])
        self.trees = [
            RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=subset,
            )
            for _ in range(self.n_estimators)
        ]
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

    n_estimators: int = 150
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 2
    l2_leaf: float = 1.0
    seed: int = 0
    base_score: float = 0.0
    trees: list[RegressionTree] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> GradientBoostedTrees:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
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
        return self._decision(len(X), (tree.predict(X) for tree in self.trees))

    def _decision(self, n_rows: int, values: Iterable[np.ndarray]) -> np.ndarray:
        return _tree_sum(np.full(n_rows, self.base_score), self.learning_rate, values)

    def _proba(self, n_rows: int, values: Iterable[np.ndarray]) -> np.ndarray:
        return _sigmoid(self._decision(n_rows, values))

    @classmethod
    def from_params(cls, data: dict, width: int) -> GradientBoostedTrees:
        model = super().from_params(data, width)
        if not 0.0 < model.learning_rate <= 1.0:
            raise ValueError("learning_rate must be a finite number in (0, 1]")
        if not math.isfinite(model.base_score):
            raise ValueError("base_score must be a finite number")
        return model
