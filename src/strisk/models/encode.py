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
from typing import Sequence

import numpy as np

from ..features import FEATURES, FeatureVector
from ..records import SECTORS

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
        payload = json.dumps(
            {"columns": list(self.columns), "version": self.version}, sort_keys=True
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "version": self.version,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> FeatureSchema:
        schema = cls(columns=tuple(data["columns"]), version=data["version"])
        stored = data.get("fingerprint")
        if stored is not None and stored != schema.fingerprint:
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


def param_array(raw, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A saved float parameter as an array; ValueError unless it has
    ``shape`` and only finite values."""
    array = np.asarray(raw, dtype=np.float64)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


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
