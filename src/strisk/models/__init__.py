"""Probabilistic classifiers over organization profiles.

Families are implemented natively at desk scale; the public surface is
train / predict_proba_many / serialization plus stacking and permutation
importance.
"""
from .api import (
    MODEL_FAMILIES,
    ModelSpec,
    StackedModel,
    TrainedModel,
    load_model,
    predict_proba_many,
    save_model,
    train,
)
from .encode import FeatureSchema, default_schema, encode_profiles
from .folds import out_of_fold_probabilities, stratified_fold_assignments
from .importance import ImportanceReport, permutation_importance
from .stacking import load_stacked, save_stacked, train_stacked

__all__ = [
    "MODEL_FAMILIES",
    "ModelSpec",
    "TrainedModel",
    "train",
    "predict_proba_many",
    "save_model",
    "load_model",
    "FeatureSchema",
    "default_schema",
    "encode_profiles",
    "stratified_fold_assignments",
    "out_of_fold_probabilities",
    "StackedModel",
    "train_stacked",
    "save_stacked",
    "load_stacked",
    "ImportanceReport",
    "permutation_importance",
]
