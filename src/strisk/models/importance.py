"""Permutation feature importance with per-category rollups.

Importance of a feature is the mean AUC lost when its values are
shuffled across organizations. The sector indicator columns move as one
block, since shuffling them independently would fabricate impossible
multi-sector rows. When no single shuffle lowers the AUC, as when a
model reads the same signal from several redundant features, each
category's columns are shuffled together instead (Gregorutti, Michel &
Saint-Pierre, "Grouped variable importance with random forests", CSDA
2015).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..evaluation import roc_auc
from ..features import FEATURES, SOCIAL_FEATURES, TECHNICAL_FEATURES, FeatureVector
from ..records import json_fields
from .api import Model, encode_for
from .encode import NUMERIC_COLUMNS, SECTOR_COLUMNS, encode_labels

# The features of each importance category, in report order.
_CATEGORY_FEATURES: dict[str, tuple[str, ...]] = {
    "technical": TECHNICAL_FEATURES,
    "twitter": SOCIAL_FEATURES,
    "sector": ("sector",),
    "org_size": ("org_size",),
}

IMPORTANCE_CATEGORIES: tuple[str, ...] = tuple(_CATEGORY_FEATURES)

_FEATURE_NAMES: tuple[str, ...] = FEATURES + ("org_size", "sector")


@dataclass(frozen=True, slots=True)
class ImportanceReport:
    model: str
    baseline_auc: float
    repeats: int
    per_feature: dict[str, float]
    category_shares: dict[str, float]

    to_dict = json_fields


def _columns_for(feature: str) -> list[int]:
    if feature == "sector":
        start = len(NUMERIC_COLUMNS)
        return list(range(start, start + len(SECTOR_COLUMNS)))
    return [NUMERIC_COLUMNS.index(feature)]


def permutation_importance(
    model: Model,
    dataset: Sequence[FeatureVector],
    repeats: int = 5,
    seed: int = 0,
) -> ImportanceReport:
    """Mean AUC drop per shuffled feature, clipped at zero.

    Category shares divide the summed importances of technical features,
    social (twitter) features, sector, and organization size by the grand
    total, scaled to percent. When that total is 0, the same generator
    goes on to shuffle each category's columns together, ``repeats``
    times each, and the shares divide those clipped mean drops instead.
    A model that loses nothing to either kind of shuffle reports all-zero
    shares.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    X = encode_for(model, dataset)
    labels = encode_labels(dataset)
    proba = model.permuted_proba(X)
    # No column shuffled: every row keeps its leaf, so nothing is re-routed.
    baseline = roc_auc(proba(X, []), labels)
    rng = np.random.default_rng(seed)

    def mean_drop(columns: list[int]) -> float:
        # proba keeps what it needs of X, so X itself is shuffled in place
        # and the columns are put back after their repeats.
        unshuffled = X[:, columns]
        drops = []
        for _ in range(repeats):
            X[:, columns] = unshuffled[rng.permutation(len(dataset))]
            drops.append(baseline - roc_auc(proba(X, columns), labels))
        X[:, columns] = unshuffled
        return max(0.0, float(np.mean(drops)))

    per_feature = {feature: mean_drop(_columns_for(feature)) for feature in _FEATURE_NAMES}
    sums = {
        category: sum(per_feature[name] for name in features)
        for category, features in _CATEGORY_FEATURES.items()
    }
    if sum(sums.values()) == 0:
        sums = {
            category: mean_drop([column for name in features for column in _columns_for(name)])
            for category, features in _CATEGORY_FEATURES.items()
        }
    total = sum(sums.values())
    shares = {
        category: (100.0 * value / total if total > 0 else 0.0)
        for category, value in sums.items()
    }
    return ImportanceReport(
        model=model.name,
        baseline_auc=float(baseline),
        repeats=repeats,
        per_feature=per_feature,
        category_shares=shares,
    )
