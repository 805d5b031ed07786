"""Permutation feature importance with per-category rollups.

Importance of a feature is the mean AUC lost when its values are
shuffled across organizations. The sector indicator columns move as one
block, since shuffling them independently would fabricate impossible
multi-sector rows.
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

IMPORTANCE_CATEGORIES: tuple[str, ...] = ("technical", "twitter", "sector", "org_size")

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
    total, scaled to percent. A model with nothing to lose anywhere
    reports all-zero shares rather than dividing by zero.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    X = encode_for(model, dataset)
    labels = encode_labels(dataset)
    proba = model.permuted_proba(X)
    # No column shuffled: every row keeps its leaf, so nothing is re-routed.
    baseline = roc_auc(proba(X, []), labels)
    rng = np.random.default_rng(seed)
    per_feature: dict[str, float] = {}
    # proba keeps what it needs of X, so X itself is shuffled in place and
    # each feature's columns are put back after its repeats.
    for feature in _FEATURE_NAMES:
        columns = _columns_for(feature)
        unshuffled = X[:, columns]
        drops = []
        for _ in range(repeats):
            X[:, columns] = unshuffled[rng.permutation(len(dataset))]
            drops.append(baseline - roc_auc(proba(X, columns), labels))
        X[:, columns] = unshuffled
        per_feature[feature] = max(0.0, float(np.mean(drops)))
    sums = {
        "technical": sum(per_feature[name] for name in TECHNICAL_FEATURES),
        "twitter": sum(per_feature[name] for name in SOCIAL_FEATURES),
        "sector": per_feature["sector"],
        "org_size": per_feature["org_size"],
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
