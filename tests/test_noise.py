"""Confident-learning counting, transition views, and label correction."""
from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_profile
from oracles import (
    confident_joint_reference,
    discover_noisy_negatives_reference,
    noise_transition_matrix_reference,
)
from strisk import noise
from strisk.evaluation import roc_auc
from strisk.models import ModelSpec
from strisk.noise import (
    CONFIDENT_JOINT,
    CONFUSION_MATRIX,
    METHODS,
    ClassThresholds,
    ExperimentRow,
    JointMatrix,
    NoiseExperimentResult,
    NoiseReport,
    confident_joint,
    confusion_matrix_at_half,
    discover_noisy_negatives,
    flip_labels,
    noise_detection_experiment,
    noise_transition_matrix,
    out_of_sample_probabilities,
    self_confidence_thresholds,
)

prob_label_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=80,
)

# Exact 0.5, its float neighbours and a few repeated values, so ties at a
# threshold and between ensemble probabilities are drawn often.
probability = st.one_of(
    st.sampled_from([0.0, 0.2, 0.5 - 2**-54, 0.5, 0.5 + 2**-53, 0.8, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def flag_cases(draw):
    """Aligned probability sets and labels holding both classes."""
    n = draw(st.integers(min_value=2, max_value=40))
    sets = draw(st.integers(min_value=1, max_value=4))
    prob_sets = [draw(st.lists(probability, min_size=n, max_size=n)) for _ in range(sets)]
    labels = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    return prob_sets, labels


joint_cell = st.one_of(st.just(0), st.integers(min_value=1, max_value=500))


def bits(view):
    """A transition view with each float as its exact hex form, NaN as None."""
    return [[None if math.isnan(v) else v.hex() for v in row] for row in view]


class TestThresholds:
    def test_per_class_means(self):
        thresholds = self_confidence_thresholds([0.9, 0.8, 0.2, 0.4], [1, 1, 0, 0])
        assert thresholds.class1 == pytest.approx(0.85)
        assert thresholds.class0 == pytest.approx(0.7)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            self_confidence_thresholds([0.9, 0.8], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self_confidence_thresholds([0.9], [1, 0])


class TestConfidentJoint:
    def test_hand_fixture(self):
        probs = [0.9, 0.5, 0.25, 0.8, 0.35]
        labels = [0, 0, 0, 1, 1]
        joint = confident_joint(probs, labels, ClassThresholds(class0=0.6, class1=0.7))
        # 0.9 asserts 1; 0.5 clears neither; 0.25 asserts 0; 0.8 asserts 1; 0.35 asserts 0
        assert joint.counts == ((1, 1), (1, 1))
        assert joint.total == 4
        assert joint.tag == CONFIDENT_JOINT

    def test_exact_tie_goes_to_class_one(self):
        joint = confident_joint([0.5], [0], ClassThresholds(class0=0.3, class1=0.3))
        assert joint.counts == ((0, 1), (0, 0))

    def test_confusion_matrix_fixture(self):
        joint = confusion_matrix_at_half([0.9, 0.4, 0.5, 0.1], [0, 0, 1, 1])
        assert joint.counts == ((1, 1), (1, 1))
        assert joint.tag == CONFUSION_MATRIX

    @given(prob_label_rows)
    def test_matches_reference_counting(self, rows):
        probs = [p for p, _ in rows]
        labels = [y for _, y in rows]
        thresholds = ClassThresholds(class0=0.55, class1=0.45)
        joint = confident_joint(probs, labels, thresholds)
        assert joint.counts == confident_joint_reference(probs, labels, 0.55, 0.45)

    @given(prob_label_rows)
    def test_equals_confusion_matrix_at_forced_half(self, rows):
        probs = [p for p, _ in rows]
        labels = [y for _, y in rows]
        forced = ClassThresholds(class0=0.5, class1=0.5)
        assert confident_joint(probs, labels, forced).counts == (
            confusion_matrix_at_half(probs, labels).counts
        )


class TestTransitionMatrix:
    def fixture(self):
        joint = JointMatrix(counts=((2669, 347), (0, 795)), tag=CONFUSION_MATRIX)
        return noise_transition_matrix(joint, label_counts=(3016, 795))

    def test_simple_conditional_column_normalizes(self):
        estimate = self.fixture()
        assert estimate.simple_conditional[0][1] == pytest.approx(347 / 1142)
        assert estimate.simple_conditional[1][1] == pytest.approx(795 / 1142)
        for j in range(2):
            assert sum(estimate.simple_conditional[i][j] for i in range(2)) == (
                pytest.approx(1.0, abs=1e-9)
            )

    def test_row_normalized_rows_are_count_shares(self):
        estimate = self.fixture()
        assert estimate.row_normalized[0][1] == pytest.approx(347 / 3016)
        for i in range(2):
            assert sum(estimate.row_normalized[i]) == pytest.approx(1.0, abs=1e-9)

    def test_composite_reduces_to_simple_when_counts_match_rows(self):
        # label_counts equal to the row sums cancel the rescaling exactly
        estimate = self.fixture()
        for i in range(2):
            for j in range(2):
                assert estimate.conditional[i][j] == pytest.approx(
                    estimate.simple_conditional[i][j], abs=1e-12
                )

    def test_composite_rescales_by_label_counts(self):
        joint = JointMatrix(counts=((8, 2), (1, 9)), tag=CONFUSION_MATRIX)
        estimate = noise_transition_matrix(joint, label_counts=(100, 10))
        # row-normalize, scale rows to (100, 10), then column-normalize
        col1 = (2 / 10) * 100, (9 / 10) * 10
        assert estimate.conditional[0][1] == pytest.approx(col1[0] / sum(col1))

    def test_label_counts_default_to_row_sums(self):
        joint = JointMatrix(counts=((8, 2), (1, 9)), tag=CONFUSION_MATRIX)
        explicit = noise_transition_matrix(joint, label_counts=(10, 10))
        defaulted = noise_transition_matrix(joint)
        assert defaulted.conditional == explicit.conditional
        assert defaulted.label_counts == (10, 10)

    def test_zero_row_marked_undefined(self):
        joint = JointMatrix(counts=((0, 0), (3, 5)), tag=CONFUSION_MATRIX)
        estimate = noise_transition_matrix(joint)
        assert estimate.undefined_rows == (0,)
        assert all(math.isnan(v) for v in estimate.row_normalized[0])

    def test_zero_column_marked_undefined(self):
        joint = JointMatrix(counts=((0, 4), (0, 6)), tag=CONFUSION_MATRIX)
        estimate = noise_transition_matrix(joint)
        assert 0 in estimate.undefined_columns
        assert math.isnan(estimate.simple_conditional[0][0])

    def test_all_zero_rejected(self):
        joint = JointMatrix(counts=((0, 0), (0, 0)), tag=CONFUSION_MATRIX)
        with pytest.raises(ValueError, match="no nonzero row"):
            noise_transition_matrix(joint)

    @given(
        st.tuples(
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=1, max_value=500),
        )
    )
    def test_columns_always_stochastic_on_positive_counts(self, cells):
        a, b, c, d = cells
        joint = JointMatrix(counts=((a, b), (c, d)), tag=CONFUSION_MATRIX)
        estimate = noise_transition_matrix(joint)
        for j in range(2):
            for view in (estimate.conditional, estimate.simple_conditional):
                assert sum(view[i][j] for i in range(2)) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.tuples(joint_cell, joint_cell, joint_cell, joint_cell),
        st.none() | st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
    )
    @example((0, 0, 3, 5), None)
    @example((0, 0, 3, 5), (7, 2))
    @example((0, 4, 0, 6), None)
    @example((0, 4, 0, 6), (3, 11))
    @example((8, 2, 1, 9), (100, 10))
    @example((5, 0, 0, 0), (5, 0))
    def test_matches_reference_loops(self, cells, label_counts):
        a, b, c, d = cells
        assume(a + b + c + d > 0)
        joint = JointMatrix(counts=((a, b), (c, d)), tag=CONFUSION_MATRIX)
        estimate = noise_transition_matrix(joint, label_counts)
        reference = noise_transition_matrix_reference(joint.counts, label_counts)
        for view in ("conditional", "simple_conditional", "row_normalized"):
            assert bits(getattr(estimate, view)) == bits(getattr(reference, view)), view
        assert estimate.label_counts == reference.label_counts
        assert estimate.undefined_rows == reference.undefined_rows
        assert estimate.undefined_columns == reference.undefined_columns

    def test_round_trip_preserves_nan_as_none(self):
        joint = JointMatrix(counts=((0, 4), (0, 6)), tag=CONFUSION_MATRIX)
        estimate = noise_transition_matrix(joint)
        assert math.isnan(estimate.simple_conditional[0][0])
        data = json.loads(json.dumps(estimate.to_dict(), allow_nan=False))
        assert data["simple_conditional"][0][0] is None
        assert data["undefined_columns"] == list(estimate.undefined_columns) == [0]

    def test_noise_report_nests_its_matrices_with_null_for_undefined(self):
        joint = JointMatrix(counts=((0, 4), (0, 6)), tag=CONFUSION_MATRIX)
        report = NoiseReport(
            joint=joint,
            transition=noise_transition_matrix(joint),
            flipped_ids=("o1",),
            before_counts=(4, 6),
            after_counts=(3, 7),
            method=CONFUSION_MATRIX,
        )
        data = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert data["joint"] == {"counts": [[0, 4], [0, 6]], "tag": CONFUSION_MATRIX}
        assert data["transition"]["simple_conditional"][0] == [None, 0.4]
        assert data["transition"]["undefined_columns"] == [0]
        assert (data["flipped_ids"], data["before_counts"], data["after_counts"]) == (["o1"], [4, 6], [3, 7])


class TestDiscoverNoisyNegatives:
    def test_confusion_matrix_flags_confident_positives(self):
        flagged = discover_noisy_negatives(
            [[0.9, 0.4], [0.7, 0.2]], [0, 0], CONFUSION_MATRIX, ids=["a", "b"]
        )
        assert flagged == ["a"]

    def test_ordered_by_descending_ensemble_probability(self):
        flagged = discover_noisy_negatives(
            [[0.6, 0.9, 0.7]], [0, 0, 0], CONFUSION_MATRIX, ids=["a", "b", "c"]
        )
        assert flagged == ["b", "c", "a"]

    def test_positives_never_flagged(self):
        flagged = discover_noisy_negatives([[0.99, 0.99]], [1, 0], CONFUSION_MATRIX)
        assert flagged == ["1"]

    def test_confident_joint_uses_self_confidence_thresholds(self):
        # ensemble [0.85, 0.45, 0.1, 0.9]: t1 = 0.9, t0 = mean(0.15, 0.55, 0.9)
        probs = [[0.85, 0.45, 0.1, 0.9]]
        labels = [0, 0, 0, 1]
        flagged = discover_noisy_negatives(probs, labels, CONFIDENT_JOINT, ids=list("abcd"))
        assert flagged == []
        relaxed = discover_noisy_negatives(probs, labels, CONFUSION_MATRIX, ids=list("abcd"))
        assert relaxed == ["a"]

    @given(flag_cases())
    def test_matches_reference_flagging(self, case):
        prob_sets, labels = case
        ids = [f"org{i}" for i in range(len(labels))]
        for method in METHODS:
            assert discover_noisy_negatives(prob_sets, labels, method, ids) == (
                discover_noisy_negatives_reference(prob_sets, labels, method, ids)
            ), method

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            discover_noisy_negatives([[0.5]], [0], "majority_vote")

    def test_empty_prob_sets_rejected(self):
        with pytest.raises(ValueError):
            discover_noisy_negatives([], [0])

    def test_misaligned_ids_rejected(self):
        with pytest.raises(ValueError):
            discover_noisy_negatives([[0.5, 0.5]], [0, 0], ids=["only-one"])


class TestFlipLabels:
    def test_bookkeeping_fixture(self):
        dataset = [make_profile(f"n{i}", 0) for i in range(3016)]
        dataset += [make_profile(f"p{i}", 1) for i in range(795)]
        ids = [f"n{i}" for i in range(347)]
        corrected, report = flip_labels(dataset, ids)
        assert report.before_counts == (3016, 795)
        assert report.after_counts == (2669, 1142)
        assert len(report.flipped_ids) == 347
        assert report.joint.counts == ((2669, 347), (0, 795))
        assert sum(p.label for p in corrected) == 1142

    def test_features_untouched(self):
        dataset = make_dataset(5, 3, seed=2)
        target = dataset[0].org_id
        corrected, _ = flip_labels(dataset, [target])
        assert corrected[0].values == dataset[0].values
        assert corrected[0].label == 1
        assert [p.label for p in corrected[1:]] == [p.label for p in dataset[1:]]

    def test_cannot_flip_positive(self):
        dataset = make_dataset(2, 2, seed=0)
        with pytest.raises(ValueError, match="cannot flip positive"):
            flip_labels(dataset, [dataset[-1].org_id])

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown org_id"):
            flip_labels(make_dataset(3, 1, seed=0), ["ghost"])

    def test_duplicate_ids_rejected(self):
        dataset = make_dataset(3, 1, seed=0)
        with pytest.raises(ValueError, match="duplicate ids"):
            flip_labels(dataset, [dataset[0].org_id, dataset[0].org_id])


class TestOutOfSampleProbabilities:
    def test_high_separation_recovers_labels(self):
        dataset = make_dataset(60, 30, seed=8, shift=2.5)
        probabilities = out_of_sample_probabilities(
            dataset, ModelSpec("logistic_regression"), k=4, seed=0
        )
        assert len(probabilities) == len(dataset)
        labels = [p.label for p in dataset]
        assert roc_auc(probabilities, labels) > 0.95


class TestNoiseDetectionExperiment:
    def experiment(self, method=None):
        dataset = make_dataset(80, 20, seed=6, shift=2.5)
        specs = [
            ModelSpec("logistic_regression"),
            ModelSpec("naive_bayes"),
        ]
        return noise_detection_experiment(
            dataset, specs, flip_fraction=0.2, repeats=2, method=method, folds=3, seed=4
        )

    def test_rows_cover_singletons_and_ensemble(self):
        result = self.experiment()
        combos = {row.models for row in result.rows}
        assert combos == {
            ("logistic_regression",),
            ("naive_bayes",),
            ("logistic_regression", "naive_bayes"),
        }
        methods = {row.method for row in result.rows}
        assert methods == {CONFIDENT_JOINT, CONFUSION_MATRIX}
        assert all(len(row.accuracies) == 2 for row in result.rows)

    def test_accuracies_are_fractions(self):
        result = self.experiment(method=CONFUSION_MATRIX)
        for row in result.rows:
            assert all(0.0 <= a <= 1.0 for a in row.accuracies)

    def test_deterministic(self):
        assert self.experiment().to_dict() == self.experiment().to_dict()

    def test_rows_written_with_mean_accuracy(self):
        row = ExperimentRow(models=("naive_bayes",), method=CONFUSION_MATRIX, accuracies=(0.5, 1.0))
        result = NoiseExperimentResult(rows=(row,), flip_fraction=0.2, repeats=2, folds=3)
        assert result.to_dict() == {
            "rows": [
                {
                    "models": ["naive_bayes"],
                    "method": CONFUSION_MATRIX,
                    "accuracies": [0.5, 1.0],
                    "mean_accuracy": 0.75,
                }
            ],
            "flip_fraction": 0.2,
            "repeats": 2,
            "folds": 3,
        }

    def test_bad_method_rejected(self):
        dataset = make_dataset(40, 10, seed=0)
        with pytest.raises(ValueError, match="method"):
            noise_detection_experiment(
                dataset, [ModelSpec("naive_bayes")], method="vibes", repeats=1
            )

    @pytest.mark.parametrize(
        "repeats, message",
        [(6, "partition 5/6 needs 24 positives, have 20"), (0, "partition index -1 outside [0, 0)")],
    )
    def test_impossible_partition_fails_before_any_fit(self, monkeypatch, repeats, message):
        fits = []
        fit = noise.out_of_sample_probabilities
        monkeypatch.setattr(noise, "out_of_sample_probabilities", lambda *args, **kw: fits.append(1) or fit(*args, **kw))
        dataset = make_dataset(80, 20, seed=6)  # a fraction of 0.2 hides 4 of the 20 positives per repeat
        with pytest.raises(ValueError, match=re.escape(message)):
            noise_detection_experiment(dataset, [ModelSpec("naive_bayes")], flip_fraction=0.2, repeats=repeats, folds=3)
        assert fits == []

    def test_needs_model_specs(self):
        with pytest.raises(ValueError):
            noise_detection_experiment(make_dataset(40, 10, seed=0), [], repeats=1)
