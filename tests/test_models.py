"""Encoding schema, the model zoo, folds, stacking, and importance."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_profile
from oracles import encode_profiles_reference, permutation_importance_reference
from strisk.evaluation import roc_auc, split_train_test
from strisk.features import FEATURES, FeatureVector
from strisk.models import (
    MODEL_FAMILIES,
    FeatureSchema,
    ModelSpec,
    TrainedModel,
    default_schema,
    encode_profiles,
    load_model,
    load_stacked,
    out_of_fold_probabilities,
    permutation_importance,
    predict_proba_many,
    save_model,
    save_stacked,
    stratified_fold_assignments,
    train,
    train_stacked,
)
from strisk.models.encode import NUMERIC_COLUMNS, SECTOR_COLUMNS, encode_labels
from strisk.models.linear import logistic_loss_gradient
from strisk.models.stacking import predict_stacked_many
from strisk.models.trees import RegressionTree
from strisk.records import SECTORS

# Small overrides keep the ensemble families fast without changing behavior.
FAST_HYPERPARAMETERS = {
    "bagged_trees": {"n_estimators": 15, "max_depth": 5},
    "random_forest": {"n_estimators": 20, "max_depth": 6},
    "gradient_boosted_trees": {"n_estimators": 40},
}


def fast_spec(family: str, seed: int = 0) -> ModelSpec:
    return ModelSpec(family, FAST_HYPERPARAMETERS.get(family, {}), seed=seed)


@pytest.fixture(scope="module")
def separable_split():
    dataset = make_dataset(160, 80, seed=9, shift=2.0)
    return split_train_test(dataset, 0.7, seed=2)


@pytest.fixture(scope="module")
def weak_signal_split():
    # a faint shift, so trees split on many columns and every shuffle matters
    dataset = make_dataset(150, 90, seed=31, shift=0.4)
    return split_train_test(dataset, 0.6, seed=5)


@pytest.fixture(scope="module")
def single_signal_split():
    # all separation lives in one technical field, so shuffling it must hurt
    dataset = make_dataset(120, 60, seed=21, shift=1.5, shift_fields=("blacklist_count",))
    return split_train_test(dataset, 0.7, seed=3)


class TestSchema:
    def test_fingerprint_stable(self):
        assert default_schema().fingerprint == default_schema().fingerprint

    def test_round_trip(self):
        schema = default_schema()
        assert FeatureSchema.from_dict(schema.to_dict()).fingerprint == schema.fingerprint

    def test_tampered_fingerprint_rejected(self):
        data = default_schema().to_dict()
        data["fingerprint"] = "0" * len(data["fingerprint"])
        with pytest.raises(ValueError):
            FeatureSchema.from_dict(data)

    def test_column_layout(self):
        schema = default_schema()
        assert schema.columns == NUMERIC_COLUMNS + SECTOR_COLUMNS
        assert "org_size" in NUMERIC_COLUMNS
        assert all(column.startswith("sector=") for column in SECTOR_COLUMNS)


# Signed zeros, subnormals, the largest finite magnitudes and neighbouring floats.
feature_value = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def encodable_profiles(draw):
    return FeatureVector(
        org_id="o",
        values=tuple(draw(st.lists(feature_value, min_size=len(FEATURES), max_size=len(FEATURES)))),
        sector=draw(st.sampled_from(SECTORS)),
        org_size=draw(st.integers(1, 10**12)),
        label=draw(st.integers(0, 1)),
    )


class TestEncoding:
    def test_matrix_shape_and_order(self):
        profiles = make_dataset(3, 2, seed=1)
        X = encode_profiles(profiles)
        assert X.shape == (5, len(NUMERIC_COLUMNS) + len(SECTOR_COLUMNS))
        assert X.dtype == np.float64
        numeric = np.array([p.values + (p.org_size,) for p in profiles])
        assert np.array_equal(X[:, : len(NUMERIC_COLUMNS)], numeric)

    def test_sector_one_hot(self):
        profile = make_profile("o1", sector="finance")
        X = encode_profiles([profile])
        block = X[0, len(NUMERIC_COLUMNS):]
        assert block.sum() == 1.0
        assert block[SECTOR_COLUMNS.index("sector=finance")] == 1.0

    def test_unknown_sector_rejected(self):
        profile = make_profile("o1")
        object.__setattr__(profile, "sector", "astrology")
        with pytest.raises(ValueError, match="sector"):
            encode_profiles([profile])

    def test_non_finite_rejected(self):
        profile = make_profile("o1")
        object.__setattr__(profile, "org_size", float("nan"))
        with pytest.raises(ValueError, match="non-finite feature"):
            encode_profiles([profile])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_row_reference(self, data):
        profiles = data.draw(st.lists(encodable_profiles(), max_size=6))
        if profiles and data.draw(st.booleans()):
            row = data.draw(st.integers(0, len(profiles) - 1))
            profiles[row] = replace(profiles[row], sector="astrology")
        if profiles and data.draw(st.booleans()):
            row = data.draw(st.integers(0, len(profiles) - 1))
            cell = data.draw(st.integers(0, len(FEATURES)))
            bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            if cell == len(FEATURES):
                profiles[row] = replace(profiles[row], org_size=bad)
            else:
                values = list(profiles[row].values)
                values[cell] = bad
                profiles[row] = replace(profiles[row], values=tuple(values))
        try:
            expected = encode_profiles_reference(profiles)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                encode_profiles(profiles)
            assert str(raised.value) == str(exc)
            return
        X = encode_profiles(profiles)
        assert X.dtype == expected.dtype
        assert X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()

    def test_labels_encoded(self):
        labels = encode_labels(make_dataset(2, 3, seed=0))
        assert labels.tolist() == [0, 0, 1, 1, 1]


class TestFolds:
    def test_each_class_spread_evenly(self):
        labels = [0] * 17 + [1] * 8
        assignments = stratified_fold_assignments(labels, 5, seed=3)
        assert len(assignments) == 25
        for cls in (0, 1):
            per_fold = [
                sum(1 for a, y in zip(assignments, labels) if a == fold and y == cls)
                for fold in range(5)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic(self):
        labels = [0, 1] * 20
        first = stratified_fold_assignments(labels, 4, seed=7)
        second = stratified_fold_assignments(labels, 4, seed=7)
        assert np.array_equal(np.asarray(first), np.asarray(second))

    def test_insufficient_support_rejected(self):
        with pytest.raises(ValueError, match="insufficient class support"):
            stratified_fold_assignments([0] * 20 + [1] * 2, 3, seed=0)

    def test_too_few_folds_rejected(self):
        with pytest.raises(ValueError):
            stratified_fold_assignments([0, 1] * 5, 1, seed=0)

    def test_out_of_fold_probabilities_cover_everyone(self):
        dataset = make_dataset(40, 20, seed=5, shift=2.0)
        probs = out_of_fold_probabilities(dataset, fast_spec("logistic_regression"), folds=4, seed=1)
        assert len(probs) == len(dataset)
        assert all(0.0 <= p <= 1.0 for p in probs)
        labels = [p.label for p in dataset]
        assert roc_auc(list(probs), labels) > 0.9


class TestModelSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            ModelSpec("neural_net")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            ModelSpec("naive_bayes", {"depth": 3})

    def test_resolved_merges_defaults(self):
        spec = ModelSpec("gradient_boosted_trees", {"n_estimators": 10})
        resolved = spec.resolved()
        assert resolved["n_estimators"] == 10
        assert resolved["learning_rate"] == 0.1

    def test_round_trip(self):
        spec = ModelSpec("bagged_trees", {"n_estimators": 7}, seed=3)
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestTrainPredict:
    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_family_learns_separable_data(self, family, separable_split):
        train_set, test_set = separable_split
        model = train(train_set, fast_spec(family))
        scores = predict_proba_many(model, test_set)
        labels = [p.label for p in test_set]
        assert roc_auc(scores.tolist(), labels) >= 0.9
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_save_load_predicts_identically(self, family, separable_split, tmp_path):
        train_set, test_set = separable_split
        model = train(train_set, fast_spec(family))
        path = tmp_path / f"{family}.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(
            predict_proba_many(model, test_set), predict_proba_many(restored, test_set)
        )

    @pytest.mark.parametrize(
        "family, key, edit, message",
        [
            ("logistic_regression", "weights", lambda w: w[:-1], r"shape \(36,\)"),
            ("logistic_regression", "weights", lambda w: [float("nan")] + w[1:], "finite"),
            ("linear_svm_platt", "scale", lambda s: s + [1.0], r"shape \(38,\)"),
            ("naive_bayes", "means", lambda m: m[:1], r"shape \(1, 37\)"),
            ("naive_bayes", "variances", lambda v: [[-1.0] + v[0][1:], v[1]], "positive"),
        ],
    )
    def test_malformed_params_rejected_on_load(self, family, key, edit, message, separable_split):
        train_set, _ = separable_split
        data = train(train_set, fast_spec(family)).to_dict()
        data["params"][key] = edit(data["params"][key])
        with pytest.raises(ValueError, match=message):
            TrainedModel.from_dict(data)

    def test_training_deterministic(self, separable_split):
        train_set, test_set = separable_split
        a = train(train_set, fast_spec("random_forest", seed=4))
        b = train(train_set, fast_spec("random_forest", seed=4))
        assert np.array_equal(
            predict_proba_many(a, test_set), predict_proba_many(b, test_set)
        )

    def test_single_class_rejected(self):
        dataset = make_dataset(20, 0, seed=0)
        with pytest.raises(ValueError, match="both classes"):
            train(dataset, fast_spec("logistic_regression"))

    def test_schema_mismatch_rejected(self, separable_split):
        train_set, test_set = separable_split
        model = train(train_set[:40] + train_set[-40:], fast_spec("naive_bayes"))
        tampered = FeatureSchema(columns=("x", "y"))
        model.schema = tampered
        with pytest.raises(ValueError, match="schema mismatch"):
            predict_proba_many(model, test_set)


class TestLogisticGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30).astype(float)
        params = rng.normal(size=5)
        _, grad = logistic_loss_gradient(params, X, y, l2=0.01)
        eps = 1e-6
        for k in range(len(params)):
            bump = np.zeros_like(params)
            bump[k] = eps
            hi, _ = logistic_loss_gradient(params + bump, X, y, l2=0.01)
            lo, _ = logistic_loss_gradient(params - bump, X, y, l2=0.01)
            numeric = (hi - lo) / (2 * eps)
            assert abs(numeric - grad[k]) / max(1.0, abs(grad[k])) < 1e-5

    def test_loss_decreases_under_training(self, separable_split):
        train_set, _ = separable_split
        model = train(train_set, fast_spec("logistic_regression"))
        scores = predict_proba_many(model, train_set)
        labels = np.array([p.label for p in train_set])
        # trained model should beat the constant 0.5 baseline handily
        baseline = np.full_like(scores, 0.5)
        assert np.mean((scores - labels) ** 2) < np.mean((baseline - labels) ** 2)


class TestRegressionTree:
    def test_single_split_fixture(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = RegressionTree(max_depth=1, min_samples_leaf=1)
        tree.fit(X, y)
        assert tree.predict(X).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_min_samples_leaf_forces_merge(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = RegressionTree(max_depth=3, min_samples_leaf=3)
        tree.fit(X, y)
        assert tree.predict(X).tolist() == [0.5] * 4

    def test_constant_target_is_single_leaf(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        tree = RegressionTree(max_depth=4, min_samples_leaf=1)
        tree.fit(X, np.ones(8))
        assert tree.predict(X).tolist() == [1.0] * 8

    def test_apply_routes_consistently(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(float)
        tree = RegressionTree(max_depth=4, min_samples_leaf=2)
        tree.fit(X, y)
        leaves = tree.apply(X)
        values = tree.predict(X)
        by_leaf = {}
        for leaf, value in zip(leaves.tolist(), values.tolist()):
            by_leaf.setdefault(leaf, set()).add(value)
        assert all(len(vals) == 1 for vals in by_leaf.values())

    def test_subsampling_without_rng_rejected(self):
        tree = RegressionTree(max_depth=2, min_samples_leaf=1, max_features=1)
        with pytest.raises(ValueError, match="rng"):
            tree.fit(np.zeros((4, 2)), np.arange(4.0))

    def test_adjacent_float_split_keeps_both_children_nonempty(self):
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        assert (low + high) / 2.0 == high
        X = np.array([[low], [low], [high], [high]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = RegressionTree(max_depth=1, min_samples_leaf=1)
        tree.fit(X, y)
        predictions = tree.predict(X)
        assert np.isfinite(predictions).all()
        assert predictions.tolist() == [0.0, 0.0, 1.0, 1.0]


class TestStacking:
    def test_needs_two_bases(self, separable_split):
        train_set, _ = separable_split
        with pytest.raises(ValueError):
            train_stacked(train_set, [fast_spec("naive_bayes")], folds=3, seed=0)

    def test_stack_tracks_best_base(self, separable_split):
        train_set, test_set = separable_split
        specs = [fast_spec("logistic_regression"), fast_spec("naive_bayes")]
        stacked = train_stacked(train_set, specs, folds=4, seed=0)
        labels = [p.label for p in test_set]
        stack_auc = roc_auc(predict_stacked_many(stacked, test_set).tolist(), labels)
        base_aucs = [
            roc_auc(predict_proba_many(train(train_set, spec), test_set).tolist(), labels)
            for spec in specs
        ]
        assert stack_auc >= max(base_aucs) - 0.02

    def test_save_load_round_trip(self, separable_split, tmp_path):
        train_set, test_set = separable_split
        stacked = train_stacked(
            train_set,
            [fast_spec("logistic_regression"), fast_spec("naive_bayes")],
            folds=3,
            seed=1,
        )
        path = tmp_path / "stacked.json"
        save_stacked(stacked, path)
        restored = load_stacked(path)
        assert np.array_equal(
            predict_stacked_many(stacked, test_set),
            predict_stacked_many(restored, test_set),
        )

    def test_schema_mismatch_in_any_base_rejected(self, separable_split):
        train_set, test_set = separable_split
        stacked = train_stacked(
            train_set,
            [fast_spec("logistic_regression"), fast_spec("naive_bayes")],
            folds=3,
            seed=0,
        )
        stacked.bases[1].schema = FeatureSchema(columns=("x", "y"))
        with pytest.raises(ValueError, match="schema mismatch"):
            predict_proba_many(stacked, test_set)


class TestPermutationImportance:
    def test_report_structure(self, single_signal_split):
        train_set, test_set = single_signal_split
        model = train(train_set, fast_spec("logistic_regression"))
        report = permutation_importance(model, test_set, repeats=3, seed=0)
        assert report.repeats == 3
        assert set(report.category_shares) == {"technical", "twitter", "sector", "org_size"}
        assert sum(report.category_shares.values()) == pytest.approx(100.0)
        assert all(value >= 0.0 for value in report.per_feature.values())
        assert 0.0 <= report.baseline_auc <= 1.0

    def test_signal_field_dominates(self, single_signal_split):
        train_set, test_set = single_signal_split
        model = train(train_set, fast_spec("logistic_regression"))
        report = permutation_importance(model, test_set, repeats=5, seed=0)
        assert report.category_shares["technical"] > 90.0
        top = max(report.per_feature, key=report.per_feature.get)
        assert top == "blacklist_count"

    def test_saturated_model_reports_zero_shares(self, separable_split):
        # six redundant signal fields: no single shuffle dents a perfect model
        train_set, test_set = separable_split
        model = train(train_set, fast_spec("logistic_regression"))
        report = permutation_importance(model, test_set, repeats=2, seed=0)
        if report.baseline_auc == 1.0 and all(
            v == 0.0 for v in report.per_feature.values()
        ):
            assert set(report.category_shares.values()) == {0.0}

    def test_works_for_stacked_models(self, single_signal_split):
        train_set, test_set = single_signal_split
        stacked = train_stacked(
            train_set,
            [fast_spec("logistic_regression"), fast_spec("naive_bayes")],
            folds=3,
            seed=0,
        )
        report = permutation_importance(stacked, test_set, repeats=2, seed=0)
        assert report.model == "stacked(logistic_regression+naive_bayes)"
        assert sum(report.category_shares.values()) == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "family",
        ["random_forest", "bagged_trees", "gradient_boosted_trees", "logistic_regression"],
    )
    def test_equals_full_rescore(self, weak_signal_split, family):
        train_set, test_set = weak_signal_split
        model = train(train_set, fast_spec(family, seed=3))
        report = permutation_importance(model, test_set, repeats=3, seed=8)
        assert report.to_dict() == permutation_importance_reference(model, test_set, 3, 8)
        assert any(value > 0.0 for value in report.per_feature.values())

    def test_stacked_equals_full_rescore(self, weak_signal_split):
        train_set, test_set = weak_signal_split
        specs = [
            fast_spec("random_forest"),
            fast_spec("gradient_boosted_trees"),
            fast_spec("logistic_regression"),
            fast_spec("naive_bayes"),
        ]
        stacked = train_stacked(train_set, specs, folds=3, seed=2)
        report = permutation_importance(stacked, test_set, repeats=2, seed=4)
        assert report.to_dict() == permutation_importance_reference(stacked, test_set, 2, 4)

    def test_zero_repeats_rejected(self, single_signal_split):
        train_set, test_set = single_signal_split
        model = train(train_set, fast_spec("naive_bayes"))
        with pytest.raises(ValueError):
            permutation_importance(model, test_set, repeats=0)
