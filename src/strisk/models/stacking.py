"""Stacked ensembles with a logistic-regression meta-model.

Base models are trained on the full training set, but the meta-model
only ever sees out-of-fold base probabilities, so it cannot learn from
each base's memory of its own training rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..features import FeatureVector
from .api import MODEL_FORMAT_VERSION, ModelSpec, TrainedModel, predict_proba_many, train
from .encode import encode_labels
from .folds import out_of_fold_probabilities, stratified_fold_assignments
from .linear import LogisticRegression


@dataclass
class StackedModel:
    bases: list[TrainedModel]
    meta: LogisticRegression
    folds: int
    seed: int

    @property
    def spec(self) -> ModelSpec:
        return self.bases[0].spec

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "stacked",
            "folds": self.folds,
            "seed": self.seed,
            "bases": [base.to_dict() for base in self.bases],
            "meta": self.meta.to_params(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> StackedModel:
        if data.get("kind") != "stacked":
            raise ValueError("not a stacked model file")
        bases = [TrainedModel.from_dict(b) for b in data["bases"]]
        return cls(
            bases=bases,
            meta=LogisticRegression.from_params(data["meta"], width=len(bases)),
            folds=int(data["folds"]),
            seed=int(data["seed"]),
        )


def train_stacked(
    dataset: Sequence[FeatureVector],
    base_specs: Sequence[ModelSpec],
    folds: int = 5,
    seed: int = 0,
) -> StackedModel:
    """Fit bases on everything, the meta-model on out-of-fold probabilities.

    One fold assignment is shared by all bases so each meta training row
    mixes predictions made under the same exclusion.
    """
    if len(base_specs) < 2:
        raise ValueError("stacking needs at least 2 base specs")
    y = encode_labels(dataset)
    assignments = stratified_fold_assignments(y, folds, seed)
    meta_inputs = np.column_stack(
        [
            out_of_fold_probabilities(dataset, spec, folds, seed, assignments)
            for spec in base_specs
        ]
    )
    meta = LogisticRegression().fit(meta_inputs, y)
    bases = [train(dataset, spec) for spec in base_specs]
    return StackedModel(bases=bases, meta=meta, folds=folds, seed=seed)


def predict_stacked_many(
    model: StackedModel, dataset: Sequence[FeatureVector]
) -> np.ndarray:
    base_probs = np.column_stack(
        [predict_proba_many(base, dataset) for base in model.bases]
    )
    return np.clip(model.meta.predict_proba(base_probs), 0.0, 1.0)


def predict_stacked(model: StackedModel, profile: FeatureVector) -> float:
    return float(predict_stacked_many(model, [profile])[0])


def save_stacked(model: StackedModel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(model.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_stacked(path: str | Path) -> StackedModel:
    return StackedModel.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
