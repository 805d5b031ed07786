"""Public training and prediction surface.

A ModelSpec names a family, overrides any of its documented default
hyperparameters, and fixes a seed. Training encodes profiles with the
shared schema and returns a TrainedModel whose serialized form embeds the
schema fingerprint; prediction refuses vectors encoded any other way.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..features import FeatureVector
from .bayes import GaussianNaiveBayes
from .encode import FeatureSchema, default_schema, encode_labels, encode_profiles
from .ensemble import BaggedTrees, GradientBoostedTrees
from .linear import LinearSvmPlatt, LogisticRegression

MODEL_FORMAT_VERSION = 1

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "logistic_regression": {"l2": 1e-3, "max_iter": 200},
    "naive_bayes": {"var_smoothing": 1e-9},
    "bagged_trees": {"n_estimators": 50, "max_depth": 8, "min_samples_leaf": 2},
    "random_forest": {
        "n_estimators": 80,
        "max_depth": 10,
        "min_samples_leaf": 2,
        "max_features": "sqrt",
    },
    "gradient_boosted_trees": {
        "n_estimators": 150,
        "learning_rate": 0.1,
        "max_depth": 3,
        "min_samples_leaf": 2,
        "l2_leaf": 1.0,
    },
    "linear_svm_platt": {"c": 1.0, "max_iter": 200},
}

MODEL_FAMILIES: tuple[str, ...] = tuple(DEFAULT_HYPERPARAMETERS)


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """Family name, hyperparameter overrides, and training seed."""

    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in DEFAULT_HYPERPARAMETERS:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {sorted(MODEL_FAMILIES)}"
            )
        allowed = DEFAULT_HYPERPARAMETERS[self.family]
        for key in self.hyperparameters:
            if key not in allowed:
                raise ValueError(f"{self.family} does not take hyperparameter {key!r}")

    def resolved(self) -> dict:
        merged = dict(DEFAULT_HYPERPARAMETERS[self.family])
        merged.update(self.hyperparameters)
        return merged

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "hyperparameters": dict(self.hyperparameters),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> ModelSpec:
        return cls(
            family=data["family"],
            hyperparameters=dict(data.get("hyperparameters", {})),
            seed=int(data.get("seed", 0)),
        )


@dataclass
class TrainedModel:
    spec: ModelSpec
    schema: FeatureSchema
    impl: object

    @property
    def fingerprint(self) -> str:
        return self.schema.fingerprint

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "schema": self.schema.to_dict(),
            "params": self.impl.to_params(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> TrainedModel:
        if data.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format version {data.get('format_version')!r}"
            )
        spec = ModelSpec.from_dict(data["spec"])
        schema = FeatureSchema.from_dict(data["schema"])
        impl = _IMPLEMENTATIONS[spec.family].from_params(
            data["params"], width=len(schema.columns)
        )
        return cls(spec=spec, schema=schema, impl=impl)


_IMPLEMENTATIONS = {
    "logistic_regression": LogisticRegression,
    "naive_bayes": GaussianNaiveBayes,
    "bagged_trees": BaggedTrees,
    "random_forest": BaggedTrees,
    "gradient_boosted_trees": GradientBoostedTrees,
    "linear_svm_platt": LinearSvmPlatt,
}


def _build_impl(spec: ModelSpec):
    hyper = spec.resolved()
    family = spec.family
    if family == "logistic_regression":
        return LogisticRegression(l2=hyper["l2"], max_iter=hyper["max_iter"])
    if family == "naive_bayes":
        return GaussianNaiveBayes(var_smoothing=hyper["var_smoothing"])
    if family == "bagged_trees":
        return BaggedTrees(
            n_estimators=hyper["n_estimators"],
            max_depth=hyper["max_depth"],
            min_samples_leaf=hyper["min_samples_leaf"],
            max_features=None,
            seed=spec.seed,
        )
    if family == "random_forest":
        return BaggedTrees(
            n_estimators=hyper["n_estimators"],
            max_depth=hyper["max_depth"],
            min_samples_leaf=hyper["min_samples_leaf"],
            max_features=hyper["max_features"],
            seed=spec.seed,
        )
    if family == "gradient_boosted_trees":
        return GradientBoostedTrees(
            n_estimators=hyper["n_estimators"],
            learning_rate=hyper["learning_rate"],
            max_depth=hyper["max_depth"],
            min_samples_leaf=hyper["min_samples_leaf"],
            l2_leaf=hyper["l2_leaf"],
            seed=spec.seed,
        )
    if family == "linear_svm_platt":
        return LinearSvmPlatt(c=hyper["c"], max_iter=hyper["max_iter"])
    raise ValueError(f"unknown family {family!r}")


def train_matrix(X: np.ndarray, y: np.ndarray, spec: ModelSpec):
    """Fit a family implementation on an already-encoded matrix."""
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature")
    if len(set(y.tolist())) < 2:
        raise ValueError("training needs both classes present")
    return _build_impl(spec).fit(X, y)


def train(dataset: Sequence[FeatureVector], spec: ModelSpec) -> TrainedModel:
    schema = default_schema()
    X = encode_profiles(dataset, schema)
    y = encode_labels(dataset)
    impl = train_matrix(X, y, spec)
    return TrainedModel(spec=spec, schema=schema, impl=impl)


def _check_schema(model: TrainedModel) -> FeatureSchema:
    schema = default_schema()
    if model.schema.fingerprint != schema.fingerprint:
        raise ValueError(
            "schema mismatch: model was trained against a different feature layout"
        )
    return schema


def predict_proba_many(
    model: TrainedModel, dataset: Sequence[FeatureVector]
) -> np.ndarray:
    schema = _check_schema(model)
    X = encode_profiles(dataset, schema)
    return np.clip(model.impl.predict_proba(X), 0.0, 1.0)


def predict_proba(model: TrainedModel, profile: FeatureVector) -> float:
    return float(predict_proba_many(model, [profile])[0])


def save_model(model: TrainedModel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(model.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> TrainedModel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return TrainedModel.from_dict(data)
