"""Noisy-negative discovery and correction via confident learning.

Negatives are the suspect class: an organization labeled 0 may simply
have an unreported breach, while positives are documented incidents.
Out-of-sample probabilities feed one confident-learning rule, under
per-class expected-self-confidence thresholds (the confident joint) or
thresholds of 0.5 (the plain confusion matrix); examples confidently
asserted positive while labeled negative get their labels flipped,
never pruned, and never in the 1 -> 0 direction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import FeatureVector
from .models.api import ModelSpec
from .models.folds import out_of_fold_probabilities
from .records import json_fields

CONFIDENT_JOINT = "confident_joint"
CONFUSION_MATRIX = "confusion_matrix"
METHODS = (CONFIDENT_JOINT, CONFUSION_MATRIX)

Matrix2x2 = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True, slots=True)
class ClassThresholds:
    """Expected self-confidence per class: mean p-hat(j) over examples labeled j."""

    class0: float
    class1: float


_HALF = ClassThresholds(class0=0.5, class1=0.5)


@dataclass(frozen=True, slots=True)
class JointMatrix:
    """2x2 counts of (given label, asserted label) pairs."""

    counts: tuple[tuple[int, int], tuple[int, int]]
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in METHODS:
            raise ValueError(f"tag must be one of {METHODS}: {self.tag!r}")
        for row in self.counts:
            for entry in row:
                if entry < 0:
                    raise ValueError("joint counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    to_dict = json_fields


@dataclass(frozen=True, slots=True)
class TransitionEstimate:
    """Noise transition views of one joint matrix.

    conditional follows the composite recipe: row-normalize, rescale each
    row by its class count, column-normalize. simple_conditional is the
    direct column normalization; the two coincide whenever the class
    counts equal the row sums. row_normalized divides each row by its own
    sum, and is the only view that reproduces the published conditional
    table, whose rows sum to 1. Undefined rows/columns (all-zero) hold
    NaN and are listed rather than fabricated.
    """

    conditional: Matrix2x2
    simple_conditional: Matrix2x2
    row_normalized: Matrix2x2
    label_counts: tuple[int, int]
    undefined_columns: tuple[int, ...]
    undefined_rows: tuple[int, ...]

    to_dict = json_fields


@dataclass(frozen=True, slots=True)
class NoiseReport:
    """Everything a correction run asserted: joint, transition, flips."""

    joint: JointMatrix
    transition: TransitionEstimate
    flipped_ids: tuple[str, ...]
    before_counts: tuple[int, int]
    after_counts: tuple[int, int]
    method: str

    to_dict = json_fields


def out_of_sample_probabilities(
    dataset: Sequence[FeatureVector],
    model_spec: ModelSpec,
    k: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Stratified k-fold probabilities: each example scored out-of-fold."""
    return out_of_fold_probabilities(dataset, model_spec, folds=k, seed=seed)


def self_confidence_thresholds(probs: Sequence[float], labels: Sequence[int]) -> ClassThresholds:
    """t_j = mean predicted probability of class j over examples labeled j."""
    p1 = [float(p) for p in probs]
    if len(p1) != len(labels):
        raise ValueError("probabilities and labels differ in length")
    class1 = [p for p, label in zip(p1, labels) if label == 1]
    class0 = [1.0 - p for p, label in zip(p1, labels) if label == 0]
    if not class0 or not class1:
        raise ValueError("empty class: thresholds need examples of both labels")
    return ClassThresholds(
        class0=sum(class0) / len(class0), class1=sum(class1) / len(class1)
    )


def _asserted(p1: np.ndarray, thresholds: ClassThresholds) -> np.ndarray:
    """The class each p-hat(1) asserts, or -1 where it clears neither
    threshold.

    An example is asserted class j when p-hat(j) clears t_j; clearing both
    resolves by argmax with the exact tie going to class 1.
    """
    p0 = 1.0 - p1
    meets0 = p0 >= thresholds.class0
    meets1 = p1 >= thresholds.class1
    asserted = (meets1 & (~meets0 | (p1 >= p0))).astype(np.int64)
    asserted[~meets0 & ~meets1] = -1
    return asserted


def confident_joint(
    probs: Sequence[float],
    labels: Sequence[int],
    thresholds: ClassThresholds,
) -> JointMatrix:
    """Count (given, asserted) pairs under per-class confidence thresholds;
    an example that clears neither threshold is left uncounted."""
    p1 = np.asarray(probs, dtype=np.float64)
    if len(p1) != len(labels):
        raise ValueError("probabilities and labels differ in length")
    asserted = _asserted(p1, thresholds)
    counted = asserted >= 0
    cells = 2 * np.asarray(labels, dtype=np.int64)[counted] + asserted[counted]
    counts = np.bincount(cells, minlength=4).reshape(2, 2)
    return JointMatrix(
        counts=tuple(tuple(int(v) for v in row) for row in counts), tag=CONFIDENT_JOINT
    )


def confusion_matrix_at_half(probs: Sequence[float], labels: Sequence[int]) -> JointMatrix:
    """Plain confusion matrix: the confident joint at thresholds of 0.5,
    where every example is counted and asserts 1 exactly when p-hat(1) >= 0.5."""
    joint = confident_joint(probs, labels, _HALF)
    return JointMatrix(counts=joint.counts, tag=CONFUSION_MATRIX)


def noise_transition_matrix(
    joint: JointMatrix, label_counts: tuple[int, int] | None = None
) -> TransitionEstimate:
    """Estimate label-noise transition probabilities from a joint matrix.

    label_counts defaults to the joint's row sums, the natural choice for
    a confusion matrix that counts every example. All three views are
    computed; see TransitionEstimate for which satisfies which sum rule.
    """
    Z = np.array(joint.counts, dtype=np.float64)
    row_sums = Z.sum(axis=1)
    col_sums = Z.sum(axis=0)
    if not row_sums.any():
        raise ValueError("joint matrix has no nonzero row")
    if label_counts is None:
        label_counts = (int(row_sums[0]), int(row_sums[1]))

    # Counts are non-negative, so a zero row or column sum divides 0 by 0: NaN.
    with np.errstate(invalid="ignore", divide="ignore"):
        row_normalized = Z / row_sums[:, None]
        simple = Z / col_sums
        rescaled = np.where(
            row_sums[:, None] > 0, row_normalized * np.array(label_counts)[:, None], 0.0
        )
        totals = rescaled.sum(axis=0)
        composite = np.where(totals > 0, rescaled / totals, np.nan)

    def freeze(matrix: np.ndarray) -> Matrix2x2:
        return tuple(tuple(float(v) for v in row) for row in matrix)

    return TransitionEstimate(
        conditional=freeze(composite),
        simple_conditional=freeze(simple),
        row_normalized=freeze(row_normalized),
        label_counts=label_counts,
        undefined_columns=tuple(int(j) for j in np.flatnonzero(col_sums == 0)),
        undefined_rows=tuple(int(i) for i in np.flatnonzero(row_sums == 0)),
    )


def discover_noisy_negatives(
    prob_sets: Sequence[Sequence[float]],
    labels: Sequence[int],
    method: str = CONFUSION_MATRIX,
    ids: Sequence[str] | None = None,
) -> list[str]:
    """Flag negatives the model ensemble confidently asserts positive.

    The ensemble probability is the unweighted mean across prob_sets.
    Thresholds are 0.5 for the confusion-matrix method and the ensemble's
    self-confidence for the confident joint. Returns ids ordered by
    descending ensemble probability (input order breaks exact ties), so
    the most suspicious labels come first.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}: {method!r}")
    if not prob_sets:
        raise ValueError("need at least one probability set")
    lists = [[float(p) for p in probs] for probs in prob_sets]
    lengths = {len(p) for p in lists} | {len(labels)}
    if len(lengths) != 1:
        raise ValueError("misaligned probability sets")
    if ids is None:
        ids = [str(i) for i in range(len(labels))]
    elif len(ids) != len(labels):
        raise ValueError("misaligned probability sets")
    ensemble = np.array([sum(column) / len(lists) for column in zip(*lists)])
    thresholds = (
        self_confidence_thresholds(ensemble, labels) if method == CONFIDENT_JOINT else _HALF
    )
    negatives = np.asarray(labels) == 0
    flagged = np.flatnonzero(negatives & (_asserted(ensemble, thresholds) == 1))
    flagged = flagged[np.argsort(-ensemble[flagged], kind="stable")]
    return [ids[i] for i in flagged]


def flip_labels(
    dataset: Sequence[FeatureVector],
    ids: Sequence[str],
    method: str = CONFUSION_MATRIX,
) -> tuple[list[FeatureVector], NoiseReport]:
    """Relabel the given negatives as positives and account for it.

    Features are untouched and positives may never be flipped. The
    report's joint holds the flip-implied counts (kept negatives,
    flipped negatives, original positives), from which the transition
    views follow.
    """
    id_set = set(ids)
    if len(id_set) != len(ids):
        raise ValueError("duplicate ids in flip set")
    by_id = {profile.org_id: profile for profile in dataset}
    for org_id in ids:
        if org_id not in by_id:
            raise ValueError(f"unknown org_id {org_id!r}")
        if by_id[org_id].label == 1:
            raise ValueError(f"cannot flip positive: {org_id!r}")
    n_pos_before = sum(p.label for p in dataset)
    n_neg_before = len(dataset) - n_pos_before
    corrected = [
        profile.with_label(1) if profile.org_id in id_set else profile
        for profile in dataset
    ]
    n_flipped = len(id_set)
    joint = JointMatrix(
        counts=((n_neg_before - n_flipped, n_flipped), (0, n_pos_before)),
        tag=method,
    )
    transition = noise_transition_matrix(joint, (n_neg_before, n_pos_before))
    report = NoiseReport(
        joint=joint,
        transition=transition,
        flipped_ids=tuple(ids),
        before_counts=(n_neg_before, n_pos_before),
        after_counts=(n_neg_before - n_flipped, n_pos_before + n_flipped),
        method=method,
    )
    return corrected, report


def correct_labels(
    dataset: Sequence[FeatureVector],
    model_specs: Sequence[ModelSpec],
    method: str = CONFUSION_MATRIX,
    k: int = 5,
    seed: int = 0,
) -> tuple[list[FeatureVector], NoiseReport]:
    """Score every example out of sample with each spec, then flip the
    negatives the ensemble confidently asserts positive."""
    prob_sets = [
        out_of_sample_probabilities(dataset, spec, k=k, seed=seed) for spec in model_specs
    ]
    labels = [p.label for p in dataset]
    ids = [p.org_id for p in dataset]
    flagged = discover_noisy_negatives(prob_sets, labels, method, ids)
    return flip_labels(dataset, flagged, method)


@dataclass(frozen=True, slots=True)
class ExperimentRow:
    """Mean detection accuracy for one model combination and method."""

    models: tuple[str, ...]
    method: str
    accuracies: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return sum(self.accuracies) / len(self.accuracies)

    def to_dict(self) -> dict:
        return {**json_fields(self), "mean_accuracy": self.mean_accuracy}


@dataclass(frozen=True, slots=True)
class NoiseExperimentResult:
    rows: tuple[ExperimentRow, ...]
    flip_fraction: float
    repeats: int
    folds: int

    to_dict = json_fields


def noise_detection_experiment(
    dataset: Sequence[FeatureVector],
    model_specs: Sequence[ModelSpec],
    flip_fraction: float = 0.1,
    repeats: int = 10,
    method: str | None = None,
    folds: int = 5,
    seed: int = 0,
) -> NoiseExperimentResult:
    """Hide disjoint slices of positives and measure how many come back.

    Each repeat relabels floor(flip_fraction * N_pos) positives as
    negatives, estimates out-of-sample probabilities per model on the
    corrupted corpus, and scores every model plus the all-model ensemble:
    accuracy is the recovered fraction of the hidden slice. method=None
    evaluates both discovery methods.
    """
    from .synth import inject_label_noise

    methods = METHODS if method is None else (method,)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"method must be one of {METHODS}: {m!r}")
    if not model_specs:
        raise ValueError("need at least one model spec")
    # The last slice needs the most positives, so an impossible partition fails before any fit.
    inject_label_noise(dataset, flip_fraction, seed=seed, partition=(repeats - 1, repeats))
    combos: list[tuple[int, ...]] = [(i,) for i in range(len(model_specs))]
    if len(model_specs) > 1:
        combos.append(tuple(range(len(model_specs))))
    names = {
        combo: tuple(model_specs[i].family for i in combo) for combo in combos
    }
    accumulator: dict[tuple[tuple[str, ...], str], list[float]] = {
        (names[combo], m): [] for combo in combos for m in methods
    }
    for repeat in range(repeats):
        corrupted, hidden_ids = inject_label_noise(
            dataset, flip_fraction, seed=seed, partition=(repeat, repeats)
        )
        labels = [p.label for p in corrupted]
        ids = [p.org_id for p in corrupted]
        prob_sets = [
            out_of_sample_probabilities(corrupted, spec, k=folds, seed=seed + repeat)
            for spec in model_specs
        ]
        hidden = set(hidden_ids)
        for combo in combos:
            members = [prob_sets[i] for i in combo]
            for m in methods:
                flagged = set(discover_noisy_negatives(members, labels, m, ids))
                accuracy = len(flagged & hidden) / len(hidden)
                accumulator[(names[combo], m)].append(accuracy)
    rows = tuple(
        ExperimentRow(models=combo, method=m, accuracies=tuple(values))
        for (combo, m), values in accumulator.items()
    )
    return NoiseExperimentResult(
        rows=rows, flip_fraction=flip_fraction, repeats=repeats, folds=folds
    )
