"""Tree ensembles: bootstrap bagging, random forests, gradient boosting.

All three share the RegressionTree core. Bagging and forests average
leaf means of trees fit to 0/1 labels; boosting fits each tree to the
log-loss residuals and replaces leaf outputs with one Newton step per
leaf before shrinking by the learning rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trees import RegressionTree


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _resolve_max_features(max_features: int | str | None, n_features: int) -> int | None:
    if max_features is None:
        return None
    if max_features == "sqrt":
        return max(1, round(math.sqrt(n_features)))
    if isinstance(max_features, int) and max_features >= 1:
        return min(max_features, n_features)
    raise ValueError(f"max_features must be None, 'sqrt' or a positive int: {max_features!r}")


def _trees_from_params(saved: list[dict], width: int) -> list[RegressionTree]:
    if not saved:
        raise ValueError("a tree ensemble needs at least one tree")
    return [RegressionTree.from_params(tree, width) for tree in saved]


@dataclass
class BaggedTrees:
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
        y = y.astype(np.float64)
        self.trees = []
        for _ in range(self.n_estimators):
            rows = rng.integers(0, len(y), size=len(y))
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=subset,
            )
            tree.fit(X[rows], y[rows], rng=rng)
            self.trees.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X))
        for tree in self.trees:
            votes += tree.predict(X)
        return np.clip(votes / len(self.trees), 0.0, 1.0)

    def to_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "seed": self.seed,
            "trees": [tree.to_params() for tree in self.trees],
        }

    @classmethod
    def from_params(cls, data: dict, width: int) -> BaggedTrees:
        trees = _trees_from_params(data["trees"], width)
        rest = {k: v for k, v in data.items() if k != "trees"}
        return cls(trees=trees, **rest)


@dataclass
class GradientBoostedTrees:
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
        self.trees = []
        for _ in range(self.n_estimators):
            prob = _sigmoid(scores)
            residual = y - prob
            hessian = prob * (1.0 - prob)
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X, residual)
            assignments = tree.apply(X)
            leaves = tree.leaf_ids()
            values = np.empty(len(leaves))
            for i, leaf in enumerate(leaves):
                mask = assignments == leaf
                values[i] = residual[mask].sum() / (hessian[mask].sum() + self.l2_leaf)
            tree.set_leaf_values(leaves, values)
            scores += self.learning_rate * tree.predict(X)
            self.trees.append(tree)
        return self

    def decision(self, X: np.ndarray) -> np.ndarray:
        scores = np.full(len(X), self.base_score)
        for tree in self.trees:
            scores += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision(X))

    def to_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "l2_leaf": self.l2_leaf,
            "seed": self.seed,
            "base_score": self.base_score,
            "trees": [tree.to_params() for tree in self.trees],
        }

    @classmethod
    def from_params(cls, data: dict, width: int) -> GradientBoostedTrees:
        trees = _trees_from_params(data["trees"], width)
        rest = {k: v for k, v in data.items() if k != "trees"}
        model = cls(trees=trees, **rest)
        rate, base = model.learning_rate, model.base_score
        if not isinstance(rate, (int, float)) or not 0.0 < rate <= 1.0:
            raise ValueError("learning_rate must be a finite number in (0, 1]")
        if not isinstance(base, (int, float)) or not math.isfinite(base):
            raise ValueError("base_score must be a finite number")
        return model
