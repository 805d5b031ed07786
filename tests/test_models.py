"""Encoding schema, the model zoo, folds, stacking, and importance."""
from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_dataset, make_profile
from oracles import encode_profiles_reference, leaf_intervals_reference, permutation_importance_reference
from strisk.evaluation import roc_auc, split_train_test
from strisk.features import FEATURES, SOCIAL_FEATURES, TECHNICAL_FEATURES, FeatureVector
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
from strisk.models import ensemble, linear
from strisk.models.bayes import GaussianNaiveBayes
from strisk.models.encode import NUMERIC_COLUMNS, SECTOR_COLUMNS, encode_labels, standardize_apply
from strisk.models.linear import (
    LinearSvmPlatt,
    LogisticRegression,
    _platt_loss_gradient,
    _squared_hinge_loss_gradient,
    logistic_loss_gradient,
)
from strisk.models.stacking import predict_stacked_many
from strisk.models.trees import NodeTable, RegressionTree
from strisk.records import SECTORS

# Small overrides keep the ensemble families fast without changing behavior.
FAST_HYPERPARAMETERS = {
    "bagged_trees": {"n_estimators": 15, "max_depth": 5},
    "random_forest": {"n_estimators": 20, "max_depth": 6},
    "gradient_boosted_trees": {"n_estimators": 40},
}
TREE_FAMILIES = tuple(FAST_HYPERPARAMETERS)

# The column sets importance shuffles: each single column, the sector
# block, and the technical and social categories whole.
IMPORTANCE_COLUMN_SETS = (
    [[column] for column in range(len(NUMERIC_COLUMNS))]
    + [list(range(len(NUMERIC_COLUMNS), len(NUMERIC_COLUMNS) + len(SECTOR_COLUMNS)))]
    + [[NUMERIC_COLUMNS.index(name) for name in names] for names in (TECHNICAL_FEATURES, SOCIAL_FEATURES)]
)


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
def weak_family_models(weak_signal_split):
    """One model per family on the weak-signal training half, and the
    encoded test half they score."""
    train_set, test_set = weak_signal_split
    models = {family: train(train_set, fast_spec(family, seed=5)) for family in MODEL_FAMILIES}
    return {**models, "X": encode_profiles(test_set)}


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

    def test_hyperparameters_read_by_implementation_field_type(self):
        spec = ModelSpec("logistic_regression", {"l2": 1, "max_iter": 50})
        assert spec.to_dict()["hyperparameters"] == {"l2": 1.0, "max_iter": 50}
        assert type(spec.hyperparameters["l2"]) is float
        assert ModelSpec("random_forest", {"max_features": None}).hyperparameters == {"max_features": None}
        with pytest.raises(ValueError, match="'max_features' must be int or 'sqrt' or null, got 2.5"):
            ModelSpec("random_forest", {"max_features": 2.5})
        with pytest.raises(ValueError, match="'max_iter' must be int, got 50.0"):
            ModelSpec("logistic_regression", {"max_iter": 50.0})


class TestTrainPredict:
    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_family_learns_separable_data(self, family, separable_split):
        train_set, test_set = separable_split
        model = train(train_set, fast_spec(family))
        scores = predict_proba_many(model, test_set)
        labels = [p.label for p in test_set]
        assert roc_auc(scores.tolist(), labels) >= 0.9
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    @pytest.mark.parametrize("family", MODEL_FAMILIES + ("stacked",))
    def test_save_load_predicts_identically(self, family, separable_split, tmp_path):
        train_set, test_set = separable_split
        if family == "stacked":
            specs = [fast_spec("gradient_boosted_trees"), fast_spec("linear_svm_platt")]
            model = train_stacked(train_set, specs, folds=3, seed=0)
        else:
            model = train(train_set, fast_spec(family))
        path = tmp_path / f"{family}.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(
            predict_proba_many(model, test_set), predict_proba_many(restored, test_set)
        )
        save_model(restored, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

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


def _awkward_matrix(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A constant column, a duplicated column and labels a hyperplane
    nearly separates."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 6))
    X[:, 2] = 4.0
    X[:, 5] = X[:, 1]
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.05 * rng.normal(size=200) > 0).astype(np.int64)
    return X, y


@pytest.fixture(scope="module", params=["quickstart", "awkward-0", "awkward-1", "awkward-2"])
def linear_problem(request, strong_corpus):
    if request.param == "quickstart":
        _, profiles = strong_corpus
        return encode_profiles(profiles), encode_labels(profiles)
    return _awkward_matrix(int(request.param.split("-")[1]))


def _solved(model, X: np.ndarray, y: np.ndarray) -> list[tuple]:
    """(loss_gradient, fitted params, args) of every problem model.fit solved."""
    X_std = standardize_apply(X, model.mean, model.scale)
    fitted = np.append(model.weights, model.bias)
    if isinstance(model, LogisticRegression):
        return [(logistic_loss_gradient, fitted, (X_std, y.astype(np.float64), model.l2))]
    n_pos, n_neg = float(np.sum(y == 1)), float(np.sum(y == 0))
    targets = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    margins = X_std @ model.weights + model.bias
    return [
        (_squared_hinge_loss_gradient, fitted, (X_std, 2.0 * y - 1.0, 1.0 / model.c)),
        (_platt_loss_gradient, np.array([model.platt_a, model.platt_b]), (margins, targets)),
    ]


LINEAR_FAMILIES = (LogisticRegression, LinearSvmPlatt)


class TestNewtonSolvers:
    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_gradient_vanishes_at_the_fit(self, family, linear_problem):
        X, y = linear_problem
        model = family().fit(X, y)
        for loss_gradient, params, args in _solved(model, X, y):
            _, grad = loss_gradient(params, *args)
            assert np.max(np.abs(grad)) <= 1e-8

    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_no_nearby_point_is_lower(self, family, linear_problem):
        X, y = linear_problem
        model = family().fit(X, y)
        rng = np.random.default_rng(3)
        for loss_gradient, params, args in _solved(model, X, y):
            loss, _ = loss_gradient(params, *args)
            for _ in range(20):
                nearby, _ = loss_gradient(params + rng.normal(scale=1e-3, size=len(params)), *args)
                assert loss <= nearby

    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_one_iteration_takes_one_newton_step(self, family, linear_problem, monkeypatch):
        X, y = linear_problem
        steps = []
        for name in ("_logistic_hessian", "_squared_hinge_hessian", "_platt_hessian"):
            hessian = getattr(linear, name)
            monkeypatch.setattr(
                linear, name, lambda *args, name=name, hessian=hessian: steps.append(name) or hessian(*args)
            )
        model = family(max_iter=1).fit(X, y)
        if family is LogisticRegression:
            assert steps == ["_logistic_hessian"]
        else:
            assert steps == ["_squared_hinge_hessian", "_platt_hessian"]
            assert math.isfinite(model.platt_a) and math.isfinite(model.platt_b)
        assert np.isfinite(model.weights).all() and math.isfinite(model.bias)
        assert np.any(model.weights != 0.0)

    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_fits_are_bit_equal(self, family, linear_problem):
        X, y = linear_problem
        first, second = family().fit(X, y), family().fit(X, y)
        assert first.to_params() == second.to_params()


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

    def test_saturated_model_shares_whole_category_drops(self, separable_split):
        # six redundant signal fields: no single shuffle dents a perfect model,
        # so the shares come from shuffling each category's columns together
        train_set, test_set = separable_split
        model = train(train_set, fast_spec("logistic_regression"))
        report = permutation_importance(model, test_set, repeats=2, seed=0)
        assert report.baseline_auc == 1.0
        assert set(report.per_feature.values()) == {0.0}
        assert sum(report.category_shares.values()) == pytest.approx(100.0)
        assert report.to_dict() == permutation_importance_reference(model, test_set, 2, 0)

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

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_equals_full_rescore(self, weak_signal_split, family):
        train_set, test_set = weak_signal_split
        model = train(train_set, fast_spec(family, seed=3))
        report = permutation_importance(model, test_set, repeats=3, seed=8)
        assert report.to_dict() == permutation_importance_reference(model, test_set, 3, 8)
        assert any(value > 0.0 for value in report.per_feature.values())

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_permuted_proba_is_bit_equal_to_predict_proba(self, weak_family_models, family, data):
        impl, X = weak_family_models[family].impl, weak_family_models["X"]
        sector = list(range(len(NUMERIC_COLUMNS), X.shape[1]))
        column_sets = st.one_of(
            st.just([]),
            st.just(sector),
            st.lists(st.integers(0, X.shape[1] - 1), min_size=1, max_size=4, unique=True),
        )
        matrix = X.copy()
        proba = impl.permuted_proba(matrix)
        # Column sets alternate and repeat, and the matrix is shuffled in
        # place as importance does: each call must match a fresh full
        # rescore whatever calls came before it.
        for columns in data.draw(st.lists(column_sets, min_size=1, max_size=6)):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            permutation = rng.permutation(len(X))
            matrix[:, columns] = X[np.ix_(permutation, columns)]
            expected = impl.predict_proba(matrix.copy())
            assert proba(matrix, columns).tobytes() == expected.tobytes()
            matrix[:, columns] = X[:, columns]
        assert proba(matrix, []).tobytes() == impl.predict_proba(X).tobytes()

    @pytest.mark.parametrize("family", TREE_FAMILIES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_tree_permuted_proba_is_bit_equal_at_split_edges(self, weak_family_models, family, data):
        impl, X = weak_family_models[family].impl, weak_family_models["X"]
        # The trees' own cuts, their neighbouring floats, and values no
        # interval test may keep on a leaf by mistake.
        cuts = np.unique(np.concatenate([tree.threshold for tree in impl.trees]))
        cuts = cuts[np.isfinite(cuts)]
        edges = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)])
        cells = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0] + edges.tolist())
        columns = data.draw(st.sampled_from(IMPORTANCE_COLUMN_SETS))
        drawn = hnp.arrays(np.float64, (len(X), len(columns)), elements=cells, fill=st.nothing())
        matrix = X.copy()
        matrix[:, columns] = data.draw(drawn)
        shuffled = matrix.copy()
        shuffled[:, columns] = data.draw(drawn)
        # Small blocks test the moved pairs of a single column; full-size
        # ones leave this small forest's pairs to routing alone.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ensemble, "_BLOCK", data.draw(st.sampled_from([5, 1 << 14])))
            proba = impl.permuted_proba(matrix)
            for scored in (shuffled, matrix):
                assert proba(scored, columns).tobytes() == impl.predict_proba(scored).tobytes()

    @pytest.mark.parametrize("family", TREE_FAMILIES)
    def test_tree_shuffles_route_at_most_the_moved_pairs(self, weak_family_models, family, monkeypatch):
        impl, X = weak_family_models[family].impl, weak_family_models["X"]
        routed = []
        apply = NodeTable.apply

        def counting_apply(table, matrix, tree_ids, rows):
            routed.append(len(rows))
            return apply(table, matrix, tree_ids, rows)

        monkeypatch.setattr(NodeTable, "apply", counting_apply)
        monkeypatch.setattr(ensemble, "_BLOCK", 16)
        proba = impl.permuted_proba(X)
        open_interval = (-math.inf, math.inf)
        leaf_intervals = [
            [intervals[leaf] for leaf in tree.apply(X).tolist()]
            for tree in impl.trees
            for intervals in [leaf_intervals_reference(tree.to_dict(), X.shape[1])]
        ]
        rng = np.random.default_rng(0)
        moved_total = routed_total = 0
        for columns in IMPORTANCE_COLUMN_SETS:
            # A (tree, row) pair moved when its leaf's path bounds a shuffled column.
            moved = sum(
                any(row_intervals[column] != open_interval for column in columns)
                for tree_intervals in leaf_intervals
                for row_intervals in tree_intervals
            )
            # Pairs are tested on one column with more than a block of them;
            # otherwise every moved pair routes.
            tested = len(columns) == 1 and moved > 16
            routed.clear()
            proba(X, columns)
            assert routed == [0 if tested else moved]
            shuffled = X.copy()
            shuffled[:, columns] = X[rng.permutation(len(X))][:, columns]
            routed.clear()
            proba(shuffled, columns)
            assert routed[0] <= moved if tested else routed[0] == moved
            moved_total += moved
            routed_total += routed[0]
        assert 0 < routed_total < moved_total

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


@pytest.mark.parametrize(
    "model, keys",
    [
        (LogisticRegression(), {"l2", "max_iter", "weights", "bias", "mean", "scale"}),
        (
            LinearSvmPlatt(),
            {"c", "max_iter", "weights", "bias", "platt_a", "platt_b", "mean", "scale"},
        ),
        (GaussianNaiveBayes(), {"var_smoothing", "log_prior", "means", "variances"}),
    ],
    ids=["logistic_regression", "linear_svm_platt", "naive_bayes"],
)
def test_to_params_writes_each_field_as_json(model, keys):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + rng.normal(scale=0.5, size=40) > 0).astype(np.int64)
    params = model.fit(X, y).to_params()
    assert set(params) == keys
    assert json.loads(json.dumps(params, allow_nan=False)) == params
    restored = type(model).from_params(params, width=3)
    np.testing.assert_array_equal(restored.predict_proba(X), model.predict_proba(X))
