"""Stratified folds and out-of-fold probability estimation.

Out-of-fold probabilities are the backbone of both stacking and the
label-noise estimators: every example is scored by a model that never
saw it, so self-confidence is honest.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..features import FeatureVector
from .api import ModelSpec, train_matrix
from .encode import encode_labels, encode_profiles


def stratified_fold_assignments(
    labels: Sequence[int], folds: int, seed: int
) -> np.ndarray:
    """Assign each example a fold id in [0, folds), per-class round robin.

    Every fold receives both classes, which keeps per-fold training sets
    trainable and per-fold class mixes within one example of each other.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    labels = np.asarray(labels)
    assignments = np.empty(len(labels), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < folds:
            raise ValueError(
                f"insufficient class support: class {cls} has {len(members)} examples "
                f"for {folds} folds"
            )
        rng.shuffle(members)
        assignments[members] = np.arange(len(members)) % folds
    return assignments


def out_of_fold_probabilities(
    dataset: Sequence[FeatureVector],
    spec: ModelSpec,
    folds: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Probability of class 1 for every example from fold-excluded models,
    the folds drawn by stratified_fold_assignments(labels, folds, seed)."""
    X = encode_profiles(dataset)
    y = encode_labels(dataset)
    assignments = stratified_fold_assignments(y, folds, seed)
    probabilities = np.empty(len(dataset), dtype=np.float64)
    for fold in range(folds):
        held_out = assignments == fold
        model = train_matrix(X[~held_out], y[~held_out], spec)
        probabilities[held_out] = model.predict_matrix(X[held_out])
    return probabilities
