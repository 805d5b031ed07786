"""Linear families: logistic regression and a squared-hinge SVM with
Platt-scaled probabilities.

Both standardize their inputs with training-set statistics and optimize
with L-BFGS. The logistic log-loss gradient is exposed as a plain
function so it can be audited against finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .encode import param_array, standardize_apply, standardize_fit, with_columns


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_loss_gradient(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Mean log-loss with an L2 weight penalty, and its exact gradient.

    params packs the weight vector followed by the intercept; the
    intercept is not penalized. Loss uses logaddexp so extreme margins
    stay finite.
    """
    weights, bias = params[:-1], params[-1]
    z = X @ weights + bias
    signs = 2.0 * y - 1.0
    loss = float(np.mean(np.logaddexp(0.0, -signs * z)))
    loss += 0.5 * l2 * float(weights @ weights)
    residual = _sigmoid(z) - y
    grad_w = X.T @ residual / len(y) + l2 * weights
    grad_b = float(residual.mean())
    return loss, np.append(grad_w, grad_b)


def _margins(model: LogisticRegression | LinearSvmPlatt, X_std: np.ndarray) -> np.ndarray:
    return X_std @ model.weights + model.bias


def _permuted_margins(
    model: LogisticRegression | LinearSvmPlatt, X: np.ndarray
) -> Callable[[np.ndarray, Sequence[int]], np.ndarray]:
    """margins(shuffled, columns): the model's margins for a matrix equal
    to X outside ``columns``, from X standardized once and patched."""
    X_std = standardize_apply(X, model.mean, model.scale)

    def margins(shuffled: np.ndarray, columns: Sequence[int]) -> np.ndarray:
        patch = standardize_apply(shuffled[:, columns], model.mean[columns], model.scale[columns])
        return with_columns(X_std, columns, patch, lambda patched: _margins(model, patched))

    return margins


@dataclass
class LogisticRegression:
    l2: float = 1e-3
    max_iter: int = 200
    weights: np.ndarray | None = None
    bias: float = 0.0
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> LogisticRegression:
        self.mean, self.scale = standardize_fit(X)
        X_std = standardize_apply(X, self.mean, self.scale)
        y = y.astype(np.float64)
        start = np.zeros(X.shape[1] + 1)
        result = minimize(
            logistic_loss_gradient,
            start,
            args=(X_std, y, self.l2),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": self.max_iter},
        )
        self.weights = result.x[:-1]
        self.bias = float(result.x[-1])
        return self

    def decision(self, X: np.ndarray) -> np.ndarray:
        return _margins(self, standardize_apply(X, self.mean, self.scale))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision(X))

    def permuted_proba(self, X: np.ndarray) -> Callable[[np.ndarray, Sequence[int]], np.ndarray]:
        """proba(shuffled, columns): predict_proba of a matrix equal to X
        outside ``columns``, standardizing only those columns again."""
        margins = _permuted_margins(self, X)
        return lambda shuffled, columns: _sigmoid(margins(shuffled, columns))

    def to_params(self) -> dict:
        return {
            "l2": self.l2,
            "max_iter": self.max_iter,
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
        }

    @classmethod
    def from_params(cls, data: dict, width: int) -> LogisticRegression:
        model = cls(l2=data["l2"], max_iter=data["max_iter"])
        model.weights = param_array(data["weights"], (width,), "weights")
        model.bias = float(data["bias"])
        model.mean = param_array(data["mean"], (width,), "mean")
        model.scale = param_array(data["scale"], (width,), "scale")
        return model


def _squared_hinge_loss_gradient(
    params: np.ndarray, X: np.ndarray, signs: np.ndarray, reg: float
) -> tuple[float, np.ndarray]:
    weights, bias = params[:-1], params[-1]
    margin = 1.0 - signs * (X @ weights + bias)
    active = np.maximum(margin, 0.0)
    loss = float(np.mean(active * active)) + 0.5 * reg * float(weights @ weights)
    coeff = -2.0 * signs * active / len(signs)
    grad_w = X.T @ coeff + reg * weights
    grad_b = float(coeff.sum())
    return loss, np.append(grad_w, grad_b)


def _platt_loss_gradient(
    params: np.ndarray, margins: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    a, b = params
    z = a * margins + b
    loss = float(np.sum(targets * np.logaddexp(0.0, -z) + (1.0 - targets) * np.logaddexp(0.0, z)))
    residual = _sigmoid(z) - targets
    return loss, np.array([float(residual @ margins), float(residual.sum())])


@dataclass
class LinearSvmPlatt:
    """Squared-hinge linear SVM; probabilities via a Platt sigmoid fitted
    on training margins with the standard smoothed 0/1 targets."""

    c: float = 1.0
    max_iter: int = 200
    weights: np.ndarray | None = None
    bias: float = 0.0
    platt_a: float = 1.0
    platt_b: float = 0.0
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> LinearSvmPlatt:
        if self.c <= 0:
            raise ValueError("c must be positive")
        self.mean, self.scale = standardize_fit(X)
        X_std = standardize_apply(X, self.mean, self.scale)
        signs = 2.0 * y.astype(np.float64) - 1.0
        start = np.zeros(X.shape[1] + 1)
        result = minimize(
            _squared_hinge_loss_gradient,
            start,
            args=(X_std, signs, 1.0 / self.c),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": self.max_iter},
        )
        self.weights = result.x[:-1]
        self.bias = float(result.x[-1])
        margins = X_std @ self.weights + self.bias
        n_pos = float(np.sum(y == 1))
        n_neg = float(np.sum(y == 0))
        targets = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
        platt = minimize(
            _platt_loss_gradient,
            np.array([0.0, 0.0]),
            args=(margins, targets),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": self.max_iter},
        )
        self.platt_a = float(platt.x[0])
        self.platt_b = float(platt.x[1])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._platt(_margins(self, standardize_apply(X, self.mean, self.scale)))

    def permuted_proba(self, X: np.ndarray) -> Callable[[np.ndarray, Sequence[int]], np.ndarray]:
        """proba(shuffled, columns): predict_proba of a matrix equal to X
        outside ``columns``, standardizing only those columns again."""
        margins = _permuted_margins(self, X)
        return lambda shuffled, columns: self._platt(margins(shuffled, columns))

    def _platt(self, margins: np.ndarray) -> np.ndarray:
        return _sigmoid(self.platt_a * margins + self.platt_b)

    def to_params(self) -> dict:
        return {
            "c": self.c,
            "max_iter": self.max_iter,
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "platt_a": self.platt_a,
            "platt_b": self.platt_b,
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
        }

    @classmethod
    def from_params(cls, data: dict, width: int) -> LinearSvmPlatt:
        model = cls(c=data["c"], max_iter=data["max_iter"])
        model.weights = param_array(data["weights"], (width,), "weights")
        model.bias = float(data["bias"])
        model.platt_a = float(data["platt_a"])
        model.platt_b = float(data["platt_b"])
        model.mean = param_array(data["mean"], (width,), "mean")
        model.scale = param_array(data["scale"], (width,), "scale")
        return model
