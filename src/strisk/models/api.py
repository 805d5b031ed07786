"""Public training and prediction surface.

A ModelSpec names a family, overrides any of its documented default
hyperparameters, and fixes a seed. Training encodes profiles with the
shared schema and returns a model whose serialized form embeds the
schema fingerprint; prediction refuses vectors encoded any other way.
Single and stacked models share one surface (name, schema,
predict_matrix, to_dict), so saving, loading and scoring treat both
alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Literal, Sequence

import numpy as np

from ..features import FeatureVector
from ..records import (
    RecordError, Seed, check_bounds, field_types, json_fields, read_config, read_json, read_value, write_json
)
from .bayes import GaussianNaiveBayes
from .encode import FeatureSchema, default_schema, encode_labels, encode_profiles
from .ensemble import BaggedTrees, GradientBoostedTrees
from .linear import LinearSvmPlatt, LogisticRegression

# proba(shuffled, columns) -> probabilities for a matrix that equals the
# X given to permuted_proba outside columns. permuted_proba keeps what it
# needs of X, so a caller may shuffle X itself and pass it as shuffled.
PermutedProba = Callable[[np.ndarray, Sequence[int]], np.ndarray]

# Family -> (implementation class, default hyperparameters). The
# hyperparameter names are the implementation's constructor arguments;
# a spec may override only the ones listed.
_FAMILIES: dict[str, tuple[type, dict]] = {
    "logistic_regression": (LogisticRegression, {"l2": 1e-3, "max_iter": 200}),
    "naive_bayes": (GaussianNaiveBayes, {"var_smoothing": 1e-9}),
    "bagged_trees": (
        BaggedTrees,
        {"n_estimators": 50, "max_depth": 8, "min_samples_leaf": 2},
    ),
    "random_forest": (
        BaggedTrees,
        {"n_estimators": 80, "max_depth": 10, "min_samples_leaf": 2, "max_features": "sqrt"},
    ),
    "gradient_boosted_trees": (
        GradientBoostedTrees,
        {
            "n_estimators": 150,
            "learning_rate": 0.1,
            "max_depth": 3,
            "min_samples_leaf": 2,
            "l2_leaf": 1.0,
        },
    ),
    "linear_svm_platt": (LinearSvmPlatt, {"c": 1.0, "max_iter": 200}),
}

MODEL_FAMILIES: tuple[str, ...] = tuple(_FAMILIES)


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """Family name, hyperparameter overrides (read by their impl_class fields), and training seed."""

    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: Seed = 0

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {sorted(MODEL_FAMILIES)}"
            )
        allowed = _FAMILIES[self.family][1]
        for key in self.hyperparameters:
            if key not in allowed:
                raise ValueError(f"{self.family} does not take hyperparameter {key!r}")
        hints = field_types(self.impl_class)
        read = {key: read_value(value, hints[key], key) for key, value in self.hyperparameters.items()}
        object.__setattr__(self, "hyperparameters", read)
        self.impl_class(**self.resolved())  # checks each hyperparameter's bounds

    @property
    def impl_class(self) -> type:
        return _FAMILIES[self.family][0]

    def resolved(self) -> dict:
        merged = dict(_FAMILIES[self.family][1])
        merged.update(self.hyperparameters)
        return merged

    to_dict = json_fields
    from_dict = classmethod(read_config)


@dataclass
class TrainedModel:
    spec: ModelSpec
    schema: FeatureSchema
    impl: object

    @property
    def name(self) -> str:
        return self.spec.family

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Class-1 probabilities, clipped to [0, 1], for an encoded matrix."""
        return np.clip(self.impl.predict_proba(X), 0.0, 1.0)

    def permuted_proba(self, X: np.ndarray) -> PermutedProba:
        """proba(shuffled, columns): predict_matrix of a matrix equal to X
        outside ``columns``. Tree ensembles re-route only the rows a
        shuffle can move; naive Bayes and the linear families recompute
        only the shuffled columns' cells."""
        proba = self.impl.permuted_proba(X)
        return lambda shuffled, columns: np.clip(proba(shuffled, columns), 0.0, 1.0)

    def to_dict(self) -> dict:
        return json_fields(_ModelFile(self.spec, self.schema, self.impl.to_params()))

    @classmethod
    def from_dict(cls, data: object, where: str = "model") -> TrainedModel:
        saved = read_config(_ModelFile, data, where, complete=True)
        impl = saved.spec.impl_class.from_params(saved.params, width=len(saved.schema.columns))
        return cls(spec=saved.spec, schema=saved.schema, impl=impl)


@dataclass(frozen=True, slots=True)
class _ModelFile:
    """A single model as saved: its spec, schema and the family's params."""

    spec: ModelSpec
    schema: FeatureSchema
    params: dict
    format_version: Literal[1] = 1


@dataclass
class StackedModel:
    """Base models plus a logistic meta-model over their probabilities."""

    bases: list[TrainedModel]
    meta: LogisticRegression
    folds: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.bases) < 2:
            raise ValueError(f"a stacked model needs at least 2 bases, got {len(self.bases)}")
        self.schema  # raises unless every base uses one feature layout

    @property
    def name(self) -> str:
        return "stacked(" + "+".join(base.name for base in self.bases) + ")"

    @property
    def schema(self) -> FeatureSchema:
        """The layout every base was trained against."""
        if len({base.schema.fingerprint for base in self.bases}) != 1:
            raise ValueError("schema mismatch: stacked bases use different feature layouts")
        return self.bases[0].schema

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Meta-model probabilities, clipped to [0, 1], for an encoded matrix."""
        return self._combine([base.predict_matrix(X) for base in self.bases])

    def permuted_proba(self, X: np.ndarray) -> PermutedProba:
        """proba(shuffled, columns): predict_matrix of a matrix equal to X
        outside ``columns``, from each base's permuted_proba."""
        bases = [base.permuted_proba(X) for base in self.bases]
        return lambda shuffled, columns: self._combine(
            [proba(shuffled, columns) for proba in bases]
        )

    def _combine(self, base_probs: list[np.ndarray]) -> np.ndarray:
        return np.clip(self.meta.predict_proba(np.column_stack(base_probs)), 0.0, 1.0)

    def to_dict(self) -> dict:
        return json_fields(_StackedFile(self.folds, self.seed, self.bases, self.meta.to_params()))

    @classmethod
    def from_dict(cls, data: object, where: str = "model") -> StackedModel:
        saved = read_config(_StackedFile, data, where, complete=True)
        meta = LogisticRegression.from_params(saved.meta, width=len(saved.bases))
        return cls(bases=saved.bases, meta=meta, folds=saved.folds, seed=saved.seed)


@dataclass(frozen=True, slots=True)
class _StackedFile:
    """A stacked model as saved: its bases as single models and the meta-model's params."""

    folds: int
    seed: int
    bases: list[TrainedModel]
    meta: dict
    kind: Literal["stacked"] = "stacked"
    format_version: Literal[1] = 1


Model = TrainedModel | StackedModel


def train_matrix(X: np.ndarray, y: np.ndarray, spec: ModelSpec) -> TrainedModel:
    """Fit a model on an already-encoded matrix in the default schema."""
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature")
    if len(set(y.tolist())) < 2:
        raise ValueError("training needs both classes present")
    impl_class = spec.impl_class
    hyper = spec.resolved()
    if "seed" in impl_class.__dataclass_fields__:
        hyper["seed"] = spec.seed
    return TrainedModel(spec=spec, schema=default_schema(), impl=impl_class(**hyper).fit(X, y))


def train(dataset: Sequence[FeatureVector], spec: ModelSpec) -> TrainedModel:
    X = encode_profiles(dataset)
    return train_matrix(X, encode_labels(dataset), spec)


def encode_for(model: Model, dataset: Sequence[FeatureVector]) -> np.ndarray:
    """Encode profiles for ``model``, refusing a model trained on another layout."""
    if model.schema.fingerprint != default_schema().fingerprint:
        raise ValueError(
            "schema mismatch: model was trained against a different feature layout"
        )
    return encode_profiles(dataset)


def predict_proba_many(model: Model, dataset: Sequence[FeatureVector]) -> np.ndarray:
    return model.predict_matrix(encode_for(model, dataset))


def save_model(model: Model, path: str | Path) -> None:
    write_json(path, model.to_dict())


def load_model(path: str | Path) -> Model:
    """Read a single or stacked model file, dispatching on its ``kind``."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise RecordError(f"a model file must hold a JSON object, not a {type(data).__name__}")
    stacked = read_value(data.get("kind"), str | None, "kind") == "stacked"
    return (StackedModel if stacked else TrainedModel).from_dict(data)
