"""Gaussian naive Bayes over the encoded feature matrix."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..records import Positive, check_bounds, json_fields
from .encode import read_params, with_columns


@dataclass
class GaussianNaiveBayes:
    """Per-class diagonal Gaussians with a variance floor.

    The floor is var_smoothing times the largest overall feature variance
    (or var_smoothing itself when everything is constant), keeping
    log-densities finite on constant or one-hot columns.
    """

    var_smoothing: Positive = 1e-9
    log_prior: np.ndarray | None = None
    means: np.ndarray | None = None
    variances: np.ndarray | None = None

    __post_init__ = check_bounds

    def fit(self, X: np.ndarray, y: np.ndarray) -> GaussianNaiveBayes:
        classes = (0, 1)
        counts = np.array([np.sum(y == c) for c in classes], dtype=np.float64)
        self.log_prior = np.log(counts / counts.sum())
        self.means = np.vstack([X[y == c].mean(axis=0) for c in classes])
        raw_var = np.vstack([X[y == c].var(axis=0) for c in classes])
        overall = float(X.var(axis=0).max())
        epsilon = self.var_smoothing * overall if overall > 0 else self.var_smoothing
        if not np.isfinite(epsilon):
            raise ValueError(f"var_smoothing {self.var_smoothing!r} times variance {overall!r} overflows")
        self.variances = raw_var + epsilon
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._proba([np.sum(self._terms(X, c), axis=1) for c in (0, 1)])

    def permuted_proba(self, X: np.ndarray) -> Callable[[np.ndarray, Sequence[int]], np.ndarray]:
        """proba(shuffled, columns): predict_proba of a matrix equal to X
        outside ``columns``, recomputing only those columns' terms."""
        terms = [self._terms(X, c) for c in (0, 1)]

        def proba(shuffled: np.ndarray, columns: Sequence[int]) -> np.ndarray:
            return self._proba(
                [
                    with_columns(
                        terms[c],
                        columns,
                        self._terms(shuffled[:, columns], c, columns),
                        lambda patched: np.sum(patched, axis=1),
                    )
                    for c in (0, 1)
                ]
            )

        return proba

    def _terms(self, X: np.ndarray, c: int, columns: Sequence[int] | slice = slice(None)) -> np.ndarray:
        """Per-cell class-c terms log(2 pi var) + (x - mean)^2 / var of X,
        whose columns are ``columns`` of the encoded layout."""
        # The log runs over the full row either way, so a column's term
        # does not depend on which other columns are computed with it.
        log_norm = np.log(2.0 * np.pi * self.variances[c])
        diff = X - self.means[c, columns]
        return log_norm[columns] + diff * diff / self.variances[c, columns]

    def _proba(self, sums: list[np.ndarray]) -> np.ndarray:
        """Class-1 posteriors from each class's row sums of its terms."""
        joint = np.empty((len(sums[0]), 2))
        for c in (0, 1):
            joint[:, c] = self.log_prior[c] + -0.5 * sums[c]
        shifted = joint - joint.max(axis=1, keepdims=True)
        likes = np.exp(shifted)
        return likes[:, 1] / likes.sum(axis=1)

    to_params = json_fields

    @classmethod
    def from_params(cls, data: dict, width: int) -> GaussianNaiveBayes:
        model = read_params(cls, data, {"log_prior": (2,), "means": (2, width), "variances": (2, width)})
        if not (model.variances > 0).all():
            raise ValueError("variances must be positive")
        return model
