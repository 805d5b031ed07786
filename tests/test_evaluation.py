"""Splitting and the metric suite against independent oracles."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import midrank_auc_reference, pairwise_auc
from strisk.evaluation import (
    EvaluationReport,
    brier_score,
    evaluate_scores,
    roc_auc,
    split_train_test,
    tpr_fpr_f1_at,
)

scores_and_labels = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=2,
    max_size=60,
).filter(lambda rows: 0 < sum(y for _, y in rows) < len(rows))


# Scores drawn from a handful of values (often all one value) so most
# pairs tie; labels cover both classes.
tied_scores_and_labels = st.integers(min_value=1, max_value=4).flatmap(
    lambda distinct: st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 1.0][:distinct]),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=2,
        max_size=80,
    )
).filter(lambda rows: 0 < sum(y for _, y in rows) < len(rows))


class TestSplitTrainTest:
    def test_sizes_follow_rounding(self):
        train, test = split_train_test(list(range(10)), 0.7, seed=1)
        assert (len(train), len(test)) == (7, 3)
        train, test = split_train_test(list(range(15)), 0.3, seed=1)
        # round(4.5) banker-rounds to 4
        assert (len(train), len(test)) == (4, 11)

    def test_partition_preserves_input_order(self):
        data = [f"x{i}" for i in range(20)]
        train, test = split_train_test(data, 0.6, seed=5)
        assert sorted(train + test) == sorted(data)
        assert train == [x for x in data if x in set(train)]
        assert test == [x for x in data if x in set(test)]

    def test_deterministic_per_seed(self):
        data = list(range(30))
        assert split_train_test(data, 0.7, seed=4) == split_train_test(data, 0.7, seed=4)
        assert split_train_test(data, 0.7, seed=4) != split_train_test(data, 0.7, seed=5)

    def test_small_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_train_test(list(range(9)), 0.7)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            split_train_test(list(range(20)), fraction)


class TestThresholdMetrics:
    def test_balanced_fixture(self):
        tpr, fpr, f1 = tpr_fpr_f1_at([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0], 0.5)
        assert (tpr, fpr, f1) == (0.5, 0.5, 0.5)

    def test_perfect_classifier(self):
        tpr, fpr, f1 = tpr_fpr_f1_at([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0], 0.5)
        assert (tpr, fpr, f1) == (1.0, 0.0, 1.0)

    def test_threshold_is_inclusive(self):
        tpr, _, _ = tpr_fpr_f1_at([0.5], [1], 0.5)
        assert tpr == 1.0

    def test_no_positives_means_undefined_tpr(self):
        tpr, fpr, f1 = tpr_fpr_f1_at([0.9, 0.1], [0, 0], 0.5)
        assert tpr is None
        assert fpr == 0.5
        assert f1 is None

    def test_no_negatives_means_undefined_fpr(self):
        tpr, fpr, _ = tpr_fpr_f1_at([0.9, 0.1], [1, 1], 0.5)
        assert tpr == 0.5
        assert fpr is None

    def test_zero_precision_and_recall_gives_zero_f1(self):
        # one false positive, one false negative: precision = recall = 0
        tpr, fpr, f1 = tpr_fpr_f1_at([0.9, 0.1], [0, 1], 0.5)
        assert (tpr, fpr, f1) == (0.0, 1.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            tpr_fpr_f1_at([0.5], [1, 0])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            tpr_fpr_f1_at([0.5, 0.5], [1, 2])

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            tpr_fpr_f1_at([0.9, 0.1], [1, 0], threshold)


class TestRocAuc:
    def test_perfect_and_inverted(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_scores_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([0.1, 0.9], [1, 1])
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([0.1, 0.9], [0, 0])

    def test_hand_fixture_with_tie(self):
        # positives {0.8, 0.5}, negatives {0.5, 0.2}: wins 3, tie 0.5 of 4
        assert roc_auc([0.8, 0.5, 0.5, 0.2], [1, 1, 0, 0]) == pytest.approx(3.5 / 4)

    @given(scores_and_labels)
    def test_matches_pairwise_counting(self, rows):
        scores = [s for s, _ in rows]
        labels = [y for _, y in rows]
        assert roc_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-9
        )


    @given(st.one_of(scores_and_labels, tied_scores_and_labels))
    def test_matches_pairwise_counting_and_midrank_loop(self, rows):
        scores = [s for s, _ in rows]
        labels = [y for _, y in rows]
        auc = roc_auc(scores, labels)
        assert abs(auc - pairwise_auc(scores, labels)) <= 1e-12
        assert auc == midrank_auc_reference(scores, labels)

    @pytest.mark.parametrize("wrap", [list, np.array])
    @pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
    def test_bad_label_rejected_from_list_and_array(self, wrap, bad):
        labels = wrap([1, 0, bad, 0, 7])
        # The message names the first bad label as the caller holds it.
        with pytest.raises(ValueError) as info:
            roc_auc([0.9, 0.1, 0.5, 0.2, 0.3], labels)
        assert str(info.value) == f"labels must be 0 or 1: {labels[2]!r}"

    @pytest.mark.parametrize("bad", ["1", None, [1], (0,)])
    def test_non_numeric_label_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            roc_auc([0.9, 0.1, 0.5], [1, 0, bad])
        assert str(info.value) == f"labels must be 0 or 1: {bad!r}"

    def test_boolean_and_float_labels_count_as_numbers(self):
        scores = [0.8, 0.5, 0.5, 0.2]
        expected = roc_auc(scores, [1, 1, 0, 0])
        assert roc_auc(scores, [True, True, False, False]) == expected
        assert roc_auc(scores, np.array([1.0, 1.0, 0.0, -0.0])) == expected

    def test_accepts_arrays(self):
        scores = np.array([0.8, 0.5, 0.5, 0.2])
        assert roc_auc(scores, np.array([1, 1, 0, 0])) == roc_auc(scores.tolist(), [1, 1, 0, 0])


class TestBrierScore:
    def test_fixtures(self):
        assert brier_score([0.0, 1.0, 1.0, 0.0], [0, 1, 1, 0]) == 0.0
        assert brier_score([0.5, 0.5, 0.5, 0.5], [0, 1, 1, 0]) == 0.25
        assert brier_score([0.5] + [1.0] * 9, [1] * 10) == 0.025

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError, match="probability out of"):
            brier_score([1.2], [1])
        with pytest.raises(ValueError, match="probability out of"):
            brier_score([-0.1], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            brier_score([], [])
        with pytest.raises(ValueError, match="at least one"):
            brier_score(np.array([]), np.array([], dtype=np.int64))

    @given(scores_and_labels)
    def test_numpy_input_scores_like_a_list(self, rows):
        scores = [s for s, _ in rows]
        labels = [y for _, y in rows]
        expected = brier_score(scores, labels)
        for array_labels in (labels, np.array(labels)):
            result = brier_score(np.array(scores), array_labels)
            assert (type(result), result) == (float, expected)
        assert evaluate_scores("m", np.array(scores), labels) == evaluate_scores("m", scores, labels)

    @given(scores_and_labels)
    def test_bounded_by_one(self, rows):
        scores = [s for s, _ in rows]
        labels = [y for _, y in rows]
        assert 0.0 <= brier_score(scores, labels) <= 1.0


class TestEvaluateScores:
    def test_report_fields(self):
        report = evaluate_scores("demo", [0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0], 0.5)
        assert report.model == "demo"
        assert report.threshold == 0.5
        assert (report.n_positive, report.n_negative) == (2, 2)
        assert (report.tpr, report.fpr, report.f1) == (1.0, 0.0, 1.0)
        assert report.auc == 1.0
        assert report.brier == pytest.approx(0.045)

    def test_numpy_and_list_inputs_give_equal_serializable_reports(self):
        from_lists = evaluate_scores("m", [0.2, 0.8, 0.6], [0, 1, 1])
        from_arrays = evaluate_scores("m", np.array([0.2, 0.8, 0.6]), np.array([0, 1, 1]))
        assert from_arrays == from_lists
        assert type(from_arrays.n_positive) is int and type(from_arrays.n_negative) is int
        assert json.dumps(from_arrays.to_dict()) == json.dumps(from_lists.to_dict())

    def test_round_trip_preserves_none(self):
        report = EvaluationReport(
            model="m", threshold=0.5, n_positive=0, n_negative=2,
            tpr=None, fpr=0.0, f1=None, auc=0.5, brier=0.1,
        )
        data = report.to_dict()
        assert (data["tpr"], data["f1"]) == (None, None)
        assert json.loads(json.dumps(data, allow_nan=False)) == data
