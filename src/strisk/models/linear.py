"""Linear families: logistic regression and a squared-hinge SVM with
Platt-scaled probabilities.

Their base, _StandardizedLinear, holds the standardization, weights and
bias, the standardize-then-Newton fit, the margins, the permuted scorer
and the saved parameters. A family adds its loss and Hessian and its
link from margins to probabilities: a sigmoid, or a Platt sigmoid fitted
on the training margins. Each of the three fits is a small, smooth,
convex problem solved by damped Newton with an Armijo backtracking line
search:

- logistic regression uses the exact Hessian of its L2-penalized mean
  log-loss;
- the squared-hinge SVM uses the generalized Hessian of the finite
  Newton method (Keerthi & DeCoste, "A Modified Finite Newton Method for
  Fast Solution of Large Scale Linear SVMs", JMLR 2005);
- the Platt sigmoid uses the two-parameter Newton of Lin, Lin & Weng ("A
  Note on Platt's Probabilistic Outputs for Support Vector Machines",
  Machine Learning 2007).

The logistic log-loss gradient is exposed as a plain function so it can
be audited against finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..records import Count, Positive, check_bounds, json_fields
from .encode import read_params, standardize_apply, standardize_fit, with_columns


# Newton stops once every gradient entry is at most _TOLERANCE. A step is
# kept once it lowers the loss by _ARMIJO of the decrease its slope
# promises, and halved at most _HALVINGS times before the fit stops where
# it is (at the optimum, rounding can make every step look uphill).
# _RIDGE on the Hessian diagonal keeps a flat direction (a constant
# margin, an empty active set) solvable; it changes steps, not the optimum.
_TOLERANCE = 1e-10
_ARMIJO = 1e-4
_HALVINGS = 30
_RIDGE = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _newton(
    loss_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]],
    hessian: Callable[[np.ndarray], np.ndarray],
    n_params: int,
    max_iter: int,
) -> np.ndarray:
    """Minimize loss_gradient(params) -> (loss, gradient) from zero by
    damped Newton on hessian(params), taking at most max_iter steps."""
    params = np.zeros(n_params)
    loss, grad = loss_gradient(params)
    ridge = _RIDGE * np.eye(n_params)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= _TOLERANCE:
            break
        direction = np.linalg.solve(hessian(params) + ridge, -grad)
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(_HALVINGS + 1):
            trial = params + step * direction
            trial_loss, trial_grad = loss_gradient(trial)
            if trial_loss <= loss + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        params, loss, grad = trial, trial_loss, trial_grad
    return params


def _with_intercept(X: np.ndarray) -> np.ndarray:
    """X with a column of ones appended, so design @ params is the margin."""
    return np.column_stack([X, np.ones(len(X))])


def _gram(design: np.ndarray, weights: np.ndarray, reg: float) -> np.ndarray:
    """designᵀ diag(weights) design for non-negative weights, with reg
    added on the diagonal of every column but the intercept's last: the
    Hessian shape of a penalized weight vector and a free intercept."""
    # One matrix times its own transpose, which BLAS computes as a
    # symmetric rank-k update at half the cost of a general product.
    scaled = design * np.sqrt(weights)[:, None]
    gram = scaled.T @ scaled
    diagonal = np.arange(design.shape[1] - 1)
    gram[diagonal, diagonal] += reg
    return gram


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


def _logistic_hessian(params: np.ndarray, design: np.ndarray, l2: float) -> np.ndarray:
    prob = _sigmoid(design @ params)
    return _gram(design, prob * (1.0 - prob) / len(design), l2)


@dataclass
class _StandardizedLinear:
    """Weights and a bias over inputs standardized with training-set
    statistics. A family adds its fit, which hands its loss and Hessian
    to _fit_standardized, and its _link from margins to probabilities."""

    max_iter: Count = 200
    weights: np.ndarray | None = None
    bias: float = 0.0
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    __post_init__ = check_bounds

    def _fit_standardized(self, X: np.ndarray, loss_gradient: Callable, hessian: Callable) -> np.ndarray:
        """Standardize X, then keep the weights and bias minimizing loss_gradient(params, X_std)
        by Newton on hessian(params, design), design being X_std with an intercept; returns X_std."""
        self.mean, self.scale = standardize_fit(X)
        X_std = standardize_apply(X, self.mean, self.scale)
        design = _with_intercept(X_std)
        params = _newton(
            lambda p: loss_gradient(p, X_std), lambda p: hessian(p, design), design.shape[1], self.max_iter
        )
        self.weights = params[:-1]
        self.bias = float(params[-1])
        return X_std

    def _margin(self, X_std: np.ndarray) -> np.ndarray:
        return X_std @ self.weights + self.bias

    def decision(self, X: np.ndarray) -> np.ndarray:
        return self._margin(standardize_apply(X, self.mean, self.scale))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._link(self.decision(X))

    def permuted_proba(self, X: np.ndarray) -> Callable[[np.ndarray, Sequence[int]], np.ndarray]:
        """proba(shuffled, columns): predict_proba of a matrix equal to X
        outside ``columns``, standardizing only those columns again."""
        X_std = standardize_apply(X, self.mean, self.scale)

        def proba(shuffled: np.ndarray, columns: Sequence[int]) -> np.ndarray:
            patch = standardize_apply(shuffled[:, columns], self.mean[columns], self.scale[columns])
            return self._link(with_columns(X_std, columns, patch, self._margin))

        return proba

    to_params = json_fields

    @classmethod
    def from_params(cls, data: dict, width: int) -> _StandardizedLinear:
        return read_params(cls, data, dict.fromkeys(("weights", "mean", "scale"), (width,)))


@dataclass
class LogisticRegression(_StandardizedLinear):
    l2: float = 1e-3

    def fit(self, X: np.ndarray, y: np.ndarray) -> LogisticRegression:
        y = y.astype(np.float64)
        self._fit_standardized(
            X,
            lambda params, X_std: logistic_loss_gradient(params, X_std, y, self.l2),
            lambda params, design: _logistic_hessian(params, design, self.l2),
        )
        return self

    _link = staticmethod(_sigmoid)


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


def _squared_hinge_hessian(
    params: np.ndarray, design: np.ndarray, signs: np.ndarray, reg: float
) -> np.ndarray:
    """The generalized Hessian: only rows inside the margin contribute."""
    active = 1.0 - signs * (design @ params) > 0.0
    return _gram(design, 2.0 * active / len(signs), reg)


def _platt_loss_gradient(
    params: np.ndarray, margins: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    a, b = params
    z = a * margins + b
    loss = float(np.sum(targets * np.logaddexp(0.0, -z) + (1.0 - targets) * np.logaddexp(0.0, z)))
    residual = _sigmoid(z) - targets
    return loss, np.array([float(residual @ margins), float(residual.sum())])


def _platt_hessian(params: np.ndarray, design: np.ndarray) -> np.ndarray:
    prob = _sigmoid(design @ params)
    return _gram(design, prob * (1.0 - prob), 0.0)


@dataclass
class LinearSvmPlatt(_StandardizedLinear):
    """Squared-hinge linear SVM; probabilities via a Platt sigmoid fitted
    on training margins with the standard smoothed 0/1 targets."""

    c: Positive = 1.0
    platt_a: float = 1.0
    platt_b: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> LinearSvmPlatt:
        signs = 2.0 * y.astype(np.float64) - 1.0
        reg = 1.0 / self.c
        X_std = self._fit_standardized(
            X,
            lambda params, X_std: _squared_hinge_loss_gradient(params, X_std, signs, reg),
            lambda params, design: _squared_hinge_hessian(params, design, signs, reg),
        )
        margins = self._margin(X_std)
        n_pos = float(np.sum(y == 1))
        n_neg = float(np.sum(y == 0))
        targets = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
        platt_design = _with_intercept(margins[:, None])
        platt = _newton(
            lambda params: _platt_loss_gradient(params, margins, targets),
            lambda params: _platt_hessian(params, platt_design),
            2,
            self.max_iter,
        )
        self.platt_a = float(platt[0])
        self.platt_b = float(platt[1])
        return self

    def _link(self, margins: np.ndarray) -> np.ndarray:
        return _sigmoid(self.platt_a * margins + self.platt_b)
