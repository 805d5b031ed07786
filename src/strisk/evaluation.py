"""Dataset splitting and classification metrics.

Metrics with an empty denominator are reported as None instead of a
numeric stand-in; consumers decide how to present an undefined TPR on a
corpus with no positives.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def split_train_test(
    dataset: Sequence[T], train_fraction: float = 0.7, seed: int = 0
) -> tuple[list[T], list[T]]:
    """Uniform random split: round(N * fraction) train, remainder test.

    Deliberately unstratified, so class balance can drift between halves.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1): {train_fraction!r}")
    if len(dataset) < 10:
        raise ValueError("dataset too small to split: need at least 10 examples")
    indices = list(range(len(dataset)))
    random.Random(seed).shuffle(indices)
    cut = round(len(dataset) * train_fraction)
    train = [dataset[i] for i in sorted(indices[:cut])]
    test = [dataset[i] for i in sorted(indices[cut:])]
    return train, test


def _check_aligned(scores: Sequence[float], labels: Sequence[int]) -> np.ndarray:
    """labels as an array, after checking there is one per score and each is 0 or 1."""
    if len(scores) != len(labels):
        raise ValueError(f"length mismatch: {len(scores)} scores vs {len(labels)} labels")
    try:
        array = np.asarray(labels)
    except ValueError:  # ragged: some labels are sequences
        array = np.asarray(labels, dtype=object)
    if array.ndim == 1 and array.dtype.kind in "biuf":
        bad = np.flatnonzero((array != 0) & (array != 1))
        offending = [labels[bad[0]]] if len(bad) else []
    else:
        # Strings, objects and ragged input: Python's own comparison decides.
        offending = [label for label in labels if label not in (0, 1)][:1]
    if offending:
        raise ValueError(f"labels must be 0 or 1: {offending[0]!r}")
    return array


def tpr_fpr_f1_at(
    scores: Sequence[float], labels: Sequence[int], threshold: float = 0.5
) -> tuple[float | None, float | None, float | None]:
    """Threshold scores at >= threshold and compute TPR, FPR, F1.

    Any metric whose denominator is empty comes back as None.
    """
    _check_aligned(scores, labels)
    tp = fp = tn = fn = 0
    for score, label in zip(scores, labels):
        predicted = 1 if score >= threshold else 0
        if predicted == 1 and label == 1:
            tp += 1
        elif predicted == 1 and label == 0:
            fp += 1
        elif predicted == 0 and label == 0:
            tn += 1
        else:
            fn += 1
    tpr = tp / (tp + fn) if (tp + fn) else None
    fpr = fp / (fp + tn) if (fp + tn) else None
    precision = tp / (tp + fp) if (tp + fp) else None
    f1: float | None = None
    if precision is not None and tpr is not None and (precision + tpr) > 0:
        f1 = 2 * precision * tpr / (precision + tpr)
    elif precision is not None and tpr is not None:
        f1 = 0.0
    return tpr, fpr, f1


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outscores a random negative, ties half.

    Computed from the rank sum of positives with midranks for ties, which
    equals pairwise counting without the quadratic loop.
    """
    positive = _check_aligned(scores, labels) == 1
    n_pos = int(np.count_nonzero(positive))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    values = np.asarray(scores, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # Tie groups are runs of equal sorted scores; a run over sorted
    # positions [start, end) shares the midrank (start + end - 1) / 2 + 1.
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(ordered)]
    ranks = np.empty(len(ordered))
    ranks[order] = np.repeat((starts + ends - 1) / 2 + 1, ends - starts)
    # Ranks are multiples of 1/2, so this sum is exact in any order.
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def brier_score(probabilities: Sequence[float], labels: Sequence[int]) -> float:
    """Mean squared gap between predicted probability and the 0/1 outcome."""
    _check_aligned(probabilities, labels)
    if not probabilities:
        raise ValueError("brier_score needs at least one prediction")
    for p in probabilities:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {p!r}")
    return sum((p - y) ** 2 for p, y in zip(probabilities, labels)) / len(labels)


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """All headline metrics for one model on one test set."""

    model: str
    threshold: float
    n_positive: int
    n_negative: int
    tpr: float | None
    fpr: float | None
    f1: float | None
    auc: float
    brier: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "threshold": self.threshold,
            "n_positive": self.n_positive,
            "n_negative": self.n_negative,
            "tpr": self.tpr,
            "fpr": self.fpr,
            "f1": self.f1,
            "auc": self.auc,
            "brier": self.brier,
        }


def evaluate_scores(
    model: str,
    scores: Sequence[float],
    labels: Sequence[int],
    threshold: float = 0.5,
) -> EvaluationReport:
    tpr, fpr, f1 = tpr_fpr_f1_at(scores, labels, threshold)
    return EvaluationReport(
        model=model,
        threshold=threshold,
        n_positive=sum(labels),
        n_negative=len(labels) - sum(labels),
        tpr=tpr,
        fpr=fpr,
        f1=f1,
        auc=roc_auc(scores, labels),
        brier=brier_score(scores, labels),
    )
