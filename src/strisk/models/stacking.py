"""Stacked ensembles with a logistic-regression meta-model.

Base models are trained on the full training set, but the meta-model
only ever sees out-of-fold base probabilities, so it cannot learn from
each base's memory of its own training rows. A StackedModel shares the
single-model surface in ``api``, so it is saved, loaded and scored by
the same functions.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..features import FeatureVector
from .api import ModelSpec, StackedModel, load_model, predict_proba_many, save_model, train
from .encode import encode_labels
from .folds import out_of_fold_probabilities
from .linear import LogisticRegression

# The shared functions under the names stacking has always exported.
save_stacked = save_model
load_stacked = load_model
predict_stacked_many = predict_proba_many


def train_stacked(
    dataset: Sequence[FeatureVector],
    base_specs: Sequence[ModelSpec],
    folds: int = 5,
    seed: int = 0,
) -> StackedModel:
    """Fit bases on everything, the meta-model on out-of-fold probabilities.

    Every base draws its folds from the same labels, folds and seed, so
    all share one fold assignment and each meta training row mixes
    predictions made under the same exclusion.
    """
    meta_inputs = np.column_stack(
        [out_of_fold_probabilities(dataset, spec, folds, seed) for spec in base_specs]
    )
    meta = LogisticRegression().fit(meta_inputs, encode_labels(dataset))
    bases = [train(dataset, spec) for spec in base_specs]
    return StackedModel(bases=bases, meta=meta, folds=folds, seed=seed)
