"""Trees and ensembles against the one-node-at-a-time reference, rank codes, tree loading."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import apply_tree_reference, grow_tree_reference, path_columns_reference
from strisk.models.ensemble import BaggedTrees, GradientBoostedTrees
from strisk.models.trees import RegressionTree, rank_columns

NODE_KEYS = ("feature", "threshold", "left", "right", "value")


def tied_matrix(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """Few distinct values per column, so most cuts are blocked by ties."""
    return rng.integers(0, 4, size=(n, width)).astype(np.float64)


def adjacent_float_matrix(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """Values one ulp apart, where cut midpoints round onto the upper value."""
    low = np.nextafter(1.0, 2.0)
    return low + rng.integers(0, 3, size=(n, width)) * np.spacing(low)


def rounded_matrix(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    return rng.normal(size=(n, width)).round(1)


MATRICES = (tied_matrix, adjacent_float_matrix, rounded_matrix)


def with_nan_rows(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    holed = X.copy()
    holed[rng.random(X.shape) < 0.15] = np.nan
    return holed


def node_lists(tree: RegressionTree) -> dict[str, list]:
    params = tree.to_params()
    return {key: params[key] for key in NODE_KEYS}


@pytest.mark.parametrize("make_matrix", MATRICES)
@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_fit_and_apply_match_reference(make_matrix, min_samples_leaf, seed):
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(8, 120)), int(rng.integers(1, 6))
    X = make_matrix(rng, n, width)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    if seed >= 2:
        # Residual-like targets, whose sums depend on the order rows are added in.
        y += rng.normal(scale=0.3, size=n)
    max_features = None if seed % 2 == 0 else max(1, width - 1)
    tree = RegressionTree(max_depth=5, min_samples_leaf=min_samples_leaf, max_features=max_features)
    tree.fit(X, y, rng=np.random.default_rng(seed + 100))
    reference = grow_tree_reference(
        X, y, 5, min_samples_leaf, max_features, rng=np.random.default_rng(seed + 100)
    )
    assert node_lists(tree) == reference
    X_new = with_nan_rows(rng, make_matrix(rng, 40, width))
    for rows in (X, X_new):
        leaves = apply_tree_reference(reference, rows)
        assert tree.apply(rows).tolist() == leaves
        assert tree.predict(rows).tolist() == [reference["value"][leaf] for leaf in leaves]
        # A row subset, in any order and with repeats, lands where the full matrix does.
        subset = rng.integers(0, len(rows), size=int(rng.integers(0, len(rows) + 1)))
        assert tree.apply(rows, subset).tolist() == [leaves[row] for row in subset]
    assert tree.path_columns(width).tolist() == path_columns_reference(reference, width)


# Few values, signed zeros and neighbouring floats, so ties and near-ties are common.
rank_value = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -3.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
        elements=rank_value,
    )
)
def test_rank_columns_keep_order_and_ties(X):
    before = X.tobytes()
    codes = rank_columns(X)
    assert X.tobytes() == before
    assert codes.shape == X.shape[::-1]
    by_row = codes.T.astype(np.int64)
    assert ((X[:, None] < X[None, :]) == (by_row[:, None] < by_row[None, :])).all()
    assert ((X[:, None] == X[None, :]) == (by_row[:, None] == by_row[None, :])).all()
    levels = max((len(np.unique(column)) for column in X.T), default=0)
    assert codes.dtype == np.min_scalar_type(max(levels - 1, 0))
    assert codes.dtype.kind == "u"


@pytest.mark.parametrize(
    "levels, dtype",
    [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
)
def test_rank_columns_use_the_narrowest_dtype(levels, dtype):
    X = np.column_stack([np.zeros(levels), -np.arange(levels, dtype=np.float64)])
    codes = rank_columns(X)
    assert codes.dtype == dtype
    assert codes[1].tolist() == list(range(levels - 1, -1, -1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_fit_input_rejected(bad):
    rng = np.random.default_rng(5)
    X = rounded_matrix(rng, 30, 3)
    y = np.array([0, 1] * 15)
    holed = X.copy()
    holed[4, 1] = bad
    for fit in (
        RegressionTree(max_depth=3).fit,
        BaggedTrees(n_estimators=2).fit,
        GradientBoostedTrees(n_estimators=2).fit,
    ):
        with pytest.raises(ValueError, match="finite feature values"):
            fit(holed, y)
    with pytest.raises(ValueError, match="finite targets"):
        RegressionTree(max_depth=3).fit(X, np.where(np.arange(30) == 7, bad, 0.0))


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@pytest.mark.parametrize("make_matrix", MATRICES)
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("max_features", [None, 2])
def test_bagged_trees_match_reference_on_bootstrap_rows(make_matrix, seed, max_features):
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(40, 100)), int(rng.integers(3, 6))
    X = make_matrix(rng, n, width)
    y = np.resize([0, 1], n)
    rng.shuffle(y)
    model = BaggedTrees(
        n_estimators=6, max_depth=4, min_samples_leaf=2, max_features=max_features, seed=seed
    ).fit(X, y)
    # Replay the fit: the same bootstrap rows, and feature draws from the same rng.
    replay = np.random.default_rng(seed)
    for tree in model.trees:
        rows = replay.integers(0, n, size=n)
        reference = grow_tree_reference(
            X[rows], y[rows].astype(np.float64), 4, 2, max_features, rng=replay
        )
        assert node_lists(tree) == reference


@pytest.mark.parametrize("make_matrix", MATRICES)
@pytest.mark.parametrize("seed", range(2))
def test_boosted_trees_match_reference_on_residuals(make_matrix, seed):
    rng = np.random.default_rng(seed + 10)
    n, width = int(rng.integers(40, 100)), int(rng.integers(3, 6))
    X = make_matrix(rng, n, width)
    y = np.resize([0.0, 1.0, 0.0], n)
    rng.shuffle(y)
    model = GradientBoostedTrees(n_estimators=8, max_depth=3, min_samples_leaf=2, seed=seed).fit(X, y)
    scores = np.full(n, math.log(y.mean() / (1.0 - y.mean())))
    for tree in model.trees:
        prob = sigmoid(scores)
        residual = y - prob
        hessian = prob * (1.0 - prob)
        reference = grow_tree_reference(X, residual, 3, 2)
        leaves = np.array(apply_tree_reference(reference, X))
        for leaf in np.unique(leaves):
            mask = leaves == leaf
            reference["value"][leaf] = residual[mask].sum() / (hessian[mask].sum() + model.l2_leaf)
        assert node_lists(tree) == reference
        scores += model.learning_rate * np.array(reference["value"])[leaves]


# A residual-like target (a 0/1 label minus a probability in tenths) on a
# tied 96 x 2 matrix, found by search: summing tied rows in any order but
# the stable one moves a last-bit SSE near-tie, so an unstable argsort of
# the rank codes grows a different tree here than the reference does.
TIE_ORDER_X = (
    "2133122310030310302310331022011120001120002333103310232103102030"
    "2230102303000113322303021100313200302123131132210031012132330101"
    "2132323020232013313021102221300103133120013232113310133330012321"
)
TIE_ORDER_LABELS = (
    "1000001010010111000000101110101001101110110111100101001000111100"
    "01010001000000010111010101110100"
)
TIE_ORDER_TENTHS = (
    6, 2, 6, 9, 6, 6, 10, 9, 2, 10, 10, 10, 2, 3, 5, 1, 2, 8, 2, 8, 6, 4, 4, 3, 7,
    1, 3, 9, 1, 5, 8, 4, 2, 1, 5, 4, 8, 6, 3, 8, 2, 4, 0, 4, 7, 9, 6, 4, 7, 1, 5, 9,
    6, 7, 9, 1, 8, 5, 3, 3, 3, 8, 9, 0, 6, 6, 8, 9, 7, 4, 9, 5, 0, 8, 10, 8, 2, 4,
    1, 10, 3, 6, 2, 7, 5, 2, 9, 7, 9, 9, 1, 10, 7, 5, 10, 3,
)


def test_tied_rows_are_summed_in_stable_order():
    X = np.array([int(c) for c in TIE_ORDER_X], dtype=np.float64).reshape(-1, 2)
    labels = np.array([int(c) for c in TIE_ORDER_LABELS], dtype=np.float64)
    y = labels - np.array(TIE_ORDER_TENTHS) / 10
    tree = RegressionTree(max_depth=4, min_samples_leaf=1).fit(X, y)
    assert node_lists(tree) == grow_tree_reference(X, y, 4, 1)


def test_nan_rows_route_right():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = RegressionTree(max_depth=1, min_samples_leaf=1).fit(X, np.array([0.0, 0.0, 1.0, 1.0]))
    assert tree.apply(np.array([[np.nan], [0.0]])).tolist() == [tree.right[0], tree.left[0]]


def test_unsplit_root_routes_every_row_to_itself():
    tree = RegressionTree(max_depth=3).fit(np.zeros((5, 2)), np.ones(5))
    assert tree.depth == 0
    assert tree.apply(np.full((3, 2), np.nan)).tolist() == [0, 0, 0]
    assert tree.apply(np.full((3, 2), np.nan), np.array([2])).tolist() == [0]
    assert tree.path_columns(2).tolist() == [[False, False]]


def test_apply_on_no_rows_is_empty():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = RegressionTree(max_depth=1, min_samples_leaf=1).fit(X, np.array([0.0, 0.0, 1.0, 1.0]))
    assert tree.apply(X, np.array([], dtype=np.int64)).tolist() == []


def test_boosted_predictions_follow_set_leaf_values():
    rng = np.random.default_rng(7)
    X = tied_matrix(rng, 80, 3)
    y = (X[:, 0] + rng.normal(size=80) > 1.5).astype(np.int64)
    model = GradientBoostedTrees(n_estimators=6, max_depth=3, min_samples_leaf=2).fit(X, y)
    expected = np.full(len(X), model.base_score)
    for tree in model.trees:
        values = tree.to_params()["value"]
        expected += model.learning_rate * np.array(
            [values[leaf] for leaf in apply_tree_reference(tree.to_params(), X)]
        )
    assert model.decision(X).tolist() == expected.tolist()
    tree = model.trees[0]
    leaves = tree.leaf_ids()
    tree.set_leaf_values(leaves, np.arange(len(leaves), dtype=np.float64) + 10.0)
    routed = tree.apply(X)
    assert tree.predict(X).tolist() == (np.searchsorted(leaves, routed) + 10.0).tolist()


def test_set_leaf_values_rejects_inner_node():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = RegressionTree(max_depth=1, min_samples_leaf=1).fit(X, np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="not a leaf"):
        tree.set_leaf_values(np.array([0]), np.array([1.0]))


class TestFromParams:
    @pytest.fixture
    def params(self):
        rng = np.random.default_rng(11)
        X = rounded_matrix(rng, 60, 4)
        y = rng.integers(0, 2, size=60).astype(np.float64)
        tree = RegressionTree(max_depth=3, min_samples_leaf=2).fit(X, y)
        # Saved trees go through JSON, so edits below see plain lists.
        return json.loads(json.dumps(tree.to_params()))

    def test_round_trip_is_identical(self, params):
        tree = RegressionTree.from_params(params, width=4)
        assert tree.to_params() == params
        X = with_nan_rows(np.random.default_rng(1), rounded_matrix(np.random.default_rng(2), 30, 4))
        assert tree.apply(X).tolist() == apply_tree_reference(params, X)

    def test_leaf_values_stay_writable_after_load(self, params):
        tree = RegressionTree.from_params(params, width=4)
        leaves = tree.leaf_ids()
        tree.set_leaf_values(leaves, np.full(len(leaves), 0.5))
        assert tree.predict(np.zeros((3, 4))).tolist() == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["value"].pop(), "equal length"),
            (lambda p: p.update({key: [] for key in NODE_KEYS}), "non-empty"),
            (lambda p: p["left"].__setitem__(0, 10**6), "child index out of range"),
            (lambda p: p["right"].__setitem__(0, 0), "child index out of range"),
            (lambda p: p["left"].__setitem__(0, -1), "child index out of range"),
            (lambda p: p["feature"].__setitem__(0, 4), r"feature index outside \[0, 4\)"),
            (lambda p: p["feature"].__setitem__(0, -2), "feature index outside"),
            (lambda p: p["feature"].__setitem__(0, 1.5), "list of integers"),
            (lambda p: p["threshold"].__setitem__(0, float("nan")), "finite"),
            (lambda p: p["value"].__setitem__(-1, float("inf")), "finite"),
            (lambda p: p.update(max_depth=1), "levels deep"),
            (lambda p: p.update(max_depth=0), "positive integer"),
            (lambda p: p.update(min_samples_leaf="2"), "positive integer"),
        ],
    )
    def test_malformed_tree_rejected(self, params, edit, message):
        edit(params)
        with pytest.raises(ValueError, match=message):
            RegressionTree.from_params(params, width=4)

    def test_shared_child_rejected(self, params):
        # Point the root's right edge at its left child's subtree too.
        params["right"][0] = params["left"][0]
        with pytest.raises(ValueError, match="exactly one parent"):
            RegressionTree.from_params(params, width=4)

    def test_leaf_with_child_rejected(self, params):
        leaf = params["feature"].index(-1)
        params["left"][leaf] = len(params["feature"]) - 1
        with pytest.raises(ValueError, match="leaf has a child"):
            RegressionTree.from_params(params, width=4)


@pytest.mark.parametrize("ensemble", [BaggedTrees, GradientBoostedTrees])
def test_ensemble_without_trees_rejected(ensemble):
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    params = ensemble(n_estimators=2, seed=0).fit(X, np.array([0, 0, 1, 1])).to_params()
    assert ensemble.from_params(params, width=1).to_params() == params
    params["trees"] = []
    with pytest.raises(ValueError, match="at least one tree"):
        ensemble.from_params(params, width=1)
