"""Profile-to-matrix encoding shared by every model family.

The column layout is fixed: the profile values in FEATURES order,
org_size, then one sector indicator per known sector in registry order.
A sha256 fingerprint of that layout travels with every serialized model
so a model never scores vectors laid out differently.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..features import FEATURES, FeatureVector
from ..records import SECTORS, json_fields, json_object, read_config, read_fields, read_value

T = TypeVar("T")

SCHEMA_VERSION = 1

NUMERIC_COLUMNS: tuple[str, ...] = FEATURES + ("org_size",)
SECTOR_COLUMNS: tuple[str, ...] = tuple(f"sector={name}" for name in SECTORS)


@dataclass(frozen=True, slots=True)
class FeatureSchema:
    """Column layout of the encoded design matrix."""

    columns: tuple[str, ...]
    version: int = SCHEMA_VERSION

    @property
    def fingerprint(self) -> str:
        payload = json.dumps(json_fields(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {**json_fields(self), "fingerprint": self.fingerprint}

    @classmethod
    def from_dict(cls, data: object, where: str = "schema") -> FeatureSchema:
        """A saved schema (read_fields) with its version; a fingerprint, when given, must match."""
        data = json_object(data, where, ("columns", "version", "fingerprint"))
        schema = read_fields(cls, data, complete=True)
        if read_value(data.get("fingerprint", schema.fingerprint), str, "fingerprint") != schema.fingerprint:
            raise ValueError("schema fingerprint does not match its columns")
        return schema


def default_schema() -> FeatureSchema:
    return FeatureSchema(columns=NUMERIC_COLUMNS + SECTOR_COLUMNS)


def encode_profiles(profiles: Sequence[FeatureVector]) -> np.ndarray:
    """Encode profiles as a float64 matrix in default_schema column order.

    Unknown sectors and non-finite feature values are hard errors: a
    silently zeroed row would score as a real organization.
    """
    sector_index = {name: i for i, name in enumerate(SECTORS)}
    try:
        codes = [sector_index[p.sector] for p in profiles]
    except KeyError as exc:
        raise ValueError(f"unknown sector {exc.args[0]!r}") from None
    n_rows, n_features = len(profiles), len(FEATURES)
    matrix = np.zeros((n_rows, len(NUMERIC_COLUMNS) + len(SECTOR_COLUMNS)), dtype=np.float64)
    matrix[:, :n_features] = np.reshape([p.values for p in profiles], (n_rows, n_features))
    matrix[:, n_features] = [p.org_size for p in profiles]
    matrix[np.arange(n_rows), len(NUMERIC_COLUMNS) + np.array(codes, dtype=np.intp)] = 1.0
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite feature")
    return matrix


def encode_labels(profiles: Sequence[FeatureVector]) -> np.ndarray:
    return np.array([p.label for p in profiles], dtype=np.int64)


def read_params(cls: type[T], data: object, shapes: dict[str, tuple[int, ...]]) -> T:
    """A family's saved parameters (read_config), every field given, each array named
    in ``shapes`` of that shape."""
    model = read_config(cls, data, "params", complete=True)
    for name, shape in shapes.items():
        array = getattr(model, name)
        if getattr(array, "shape", None) != shape:
            raise ValueError(f"field {name!r} has shape {getattr(array, 'shape', None)}, expected {shape}")
    return model


def standardize_fit(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and scales from training data; constant columns get scale 1."""
    mean = matrix.mean(axis=0)
    scale = matrix.std(axis=0)
    scale[scale == 0.0] = 1.0
    return mean, scale


def standardize_apply(
    matrix: np.ndarray, mean: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    return (matrix - mean) / scale


def with_columns(
    matrix: np.ndarray,
    columns: Sequence[int],
    values: np.ndarray,
    score: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """score(matrix) with matrix[:, columns] set to ``values``; the
    columns are put back afterwards, so matrix is unchanged on return.

    Permuted scorers cache a per-cell matrix of the unshuffled input and
    patch only the shuffled columns: the reduction in ``score`` then sees
    the matrix a full rescore would build, so its result is bit-equal.
    """
    saved = matrix[:, columns]
    matrix[:, columns] = values
    try:
        return score(matrix)
    finally:
        matrix[:, columns] = saved
