"""Trees and ensembles against the one-node-at-a-time reference, rank codes, tree loading."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    apply_tree_reference,
    grow_forest_reference,
    grow_tree_reference,
    leaf_intervals_reference,
)
from strisk.features import featurize_corpus
from strisk.models import ModelSpec, train
from strisk.models import trees as trees_module
from strisk.models.ensemble import BaggedTrees, GradientBoostedTrees
from strisk.models.trees import NodeTable, RegressionTree, check_features, grow_trees, rank_columns
from strisk.synth import GeneratorConfig, generate_corpus

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
    params = tree.to_dict()
    return {key: params[key] for key in NODE_KEYS}


def leaf_intervals(
    table: NodeTable, root: int, tree: RegressionTree, width: int
) -> dict[int, list[tuple[float, float]]]:
    """The table's intervals on every column at ``tree``'s leaves, as thresholds."""
    lo, hi = table.intervals(range(width))
    return {
        int(leaf): list(zip(table.threshold[lo[root + leaf]].tolist(), table.threshold[hi[root + leaf]].tolist()))
        for leaf in tree.leaf_ids()
    }


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
    if max_features is None:
        reference = grow_tree_reference(X, y, 5, min_samples_leaf)
    else:
        # A subsampling tree is a forest of one and draws as a forest does.
        (reference,) = grow_forest_reference(
            X, y, [np.arange(n)], 5, min_samples_leaf, max_features,
            rng=np.random.default_rng(seed + 100),
        )
    assert node_lists(tree) == reference
    X_new = with_nan_rows(rng, make_matrix(rng, 40, width))
    for rows in (X, X_new):
        leaves = apply_tree_reference(reference, rows)
        assert tree.apply(rows).tolist() == leaves
        assert tree.predict(rows).tolist() == [reference["value"][leaf] for leaf in leaves]
        # A row subset, in any order and with repeats, lands where the full matrix does.
        subset = rng.integers(0, len(rows), size=int(rng.integers(0, len(rows) + 1)))
        routed = NodeTable([tree]).apply(rows, np.zeros(len(subset), dtype=np.int64), subset)
        assert routed.tolist() == [leaves[row] for row in subset]
    assert leaf_intervals(NodeTable([tree]), 0, tree, width) == leaf_intervals_reference(reference, width)


@pytest.mark.parametrize("make_matrix", MATRICES)
@pytest.mark.parametrize("seed", range(3))
def test_node_table_routes_like_each_tree(make_matrix, seed, monkeypatch):
    # A small block, so pairs of one tree straddle block boundaries.
    monkeypatch.setattr(trees_module, "_BLOCK", 7)
    rng = np.random.default_rng(seed + 20)
    n, width = int(rng.integers(30, 90)), int(rng.integers(2, 5))
    X = make_matrix(rng, n, width)
    y = np.resize([0, 1], n)
    rng.shuffle(y)
    # Trees of unequal depth, a single leaf among them, then a boosted ensemble's.
    trees = [RegressionTree(max_depth=depth).fit(X, y.astype(np.float64)) for depth in (1, 3, 6)]
    trees.append(RegressionTree(max_depth=4).fit(X, np.ones(n)))
    assert trees[-1].depth == 0
    trees += GradientBoostedTrees(n_estimators=5, max_depth=3, seed=seed).fit(X, y).trees
    assert len({tree.depth for tree in trees}) >= 3
    table = NodeTable(trees)
    for matrix in (X, with_nan_rows(rng, make_matrix(rng, 50, width))):
        references = [apply_tree_reference(node_lists(tree), matrix) for tree in trees]
        per_tree = [tree.apply(matrix) for tree in trees]
        # Pairs in any order, with repeats, as well as every pair tree after tree.
        tree_ids = rng.integers(0, len(trees), size=200)
        rows = rng.integers(0, len(matrix), size=200)
        every_tree = np.repeat(np.arange(len(trees)), len(matrix))
        every_row = np.tile(np.arange(len(matrix)), len(trees))
        for owners, pair_rows in ((tree_ids, rows), (every_tree, every_row)):
            leaves = table.apply(matrix, owners, pair_rows)
            local = (leaves - table.roots[owners]).tolist()
            assert local == [references[t][r] for t, r in zip(owners, pair_rows)]
            assert local == [per_tree[t][r] for t, r in zip(owners, pair_rows)]
            assert table.value[leaves].tolist() == [
                trees[t].value[leaf] for t, leaf in zip(owners, local)
            ]
    for tree, root in zip(trees, table.roots):
        reference = leaf_intervals_reference(node_lists(tree), width)
        assert leaf_intervals(table, root, tree, width) == reference


@pytest.mark.parametrize("make_matrix", MATRICES)
@pytest.mark.parametrize("seed", range(2))
def test_ensembles_score_each_tree_like_the_reference(make_matrix, seed, monkeypatch):
    # A small block, so pairs of one tree straddle block boundaries.
    monkeypatch.setattr(trees_module, "_BLOCK", 7)
    rng = np.random.default_rng(seed + 40)
    n, width = int(rng.integers(30, 80)), int(rng.integers(2, 5))
    X = make_matrix(rng, n, width)
    y = np.resize([0, 1, 1], n)
    rng.shuffle(y)
    bagged = BaggedTrees(n_estimators=4, max_depth=4, seed=seed).fit(X, y)
    forest = BaggedTrees(n_estimators=5, max_depth=5, max_features="sqrt", seed=seed).fit(X, y)
    boosted = GradientBoostedTrees(n_estimators=6, max_depth=3, seed=seed).fit(X, y)

    def summed(model, matrix: np.ndarray, start: np.ndarray, weight: float) -> np.ndarray:
        """start plus weight times each tree's oracle leaf values, in tree order."""
        for tree in model.trees:
            params = tree.to_dict()
            leaves = apply_tree_reference(params, matrix)
            start += weight * np.array([params["value"][leaf] for leaf in leaves], dtype=np.float64)
        return start

    for matrix in (X, with_nan_rows(rng, make_matrix(rng, 40, width)), np.empty((0, width))):
        for model in (bagged, forest):
            votes = summed(model, matrix, np.zeros(len(matrix)), 1.0)
            expected = np.clip(votes / len(model.trees), 0.0, 1.0)
            assert model.predict_proba(matrix).tolist() == expected.tolist()
        decision = summed(boosted, matrix, np.full(len(matrix), boosted.base_score), boosted.learning_rate)
        assert boosted.decision(matrix).tolist() == decision.tolist()
        assert boosted.predict_proba(matrix).tolist() == sigmoid(decision).tolist()


def test_intervals_keep_the_tightest_split_of_a_column():
    # The second split on column 0 is looser than the first on the left
    # side and, on the right, leaves the right child an empty interval.
    saved = {
        "max_depth": 3, "min_samples_leaf": 1, "max_features": None,
        "feature": [0, 0, -1, -1, 1, -1, 0, -1, -1],
        "threshold": [5.0, 7.0, 0.0, 0.0, 1.0, 0.0, 3.0, 0.0, 0.0],
        "left": [1, 2, -1, -1, 5, -1, 7, -1, -1],
        "right": [4, 3, -1, -1, 6, -1, 8, -1, -1],
        "value": [0.0] * 9,
    }
    tree = RegressionTree.from_dict(saved)
    intervals = leaf_intervals(NodeTable([tree]), 0, tree, 2)
    assert intervals == leaf_intervals_reference(saved, 2)
    inf = math.inf
    assert intervals[2] == [(-inf, 5.0), (-inf, inf)]
    assert intervals[3] == [(7.0, 5.0), (-inf, inf)]
    assert intervals[8] == [(5.0, inf), (1.0, inf)]


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
    codes, values = rank_columns(X)
    assert X.tobytes() == before
    assert codes.shape == X.shape[::-1]
    # Each column's distinct values, sorted, one per code.
    assert len(values) == X.shape[1]
    for column, code, distinct in zip(X.T, codes, values):
        assert (np.diff(distinct) > 0).all()
        assert (distinct[code] == column).all()
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
    codes, _ = rank_columns(X)
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
    # Replay the fit: every tree's bootstrap rows first, then the feature
    # draws of all trees, depth by depth, from the same rng.
    replay = np.random.default_rng(seed)
    samples = [replay.integers(0, n, size=n) for _ in range(6)]
    if max_features is None:
        # Without subsampling each tree is the one grown alone, node by node.
        references = [grow_tree_reference(X[rows], y[rows].astype(np.float64), 4, 2) for rows in samples]
    else:
        references = grow_forest_reference(
            X, y.astype(np.float64), samples, 4, 2, max_features, rng=replay
        )
    assert [node_lists(tree) for tree in model.trees] == references


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


@pytest.mark.parametrize("make_matrix", MATRICES)
@pytest.mark.parametrize("cap", [1, 1 << 9])
def test_block_cap_leaves_trees_unchanged(make_matrix, cap, monkeypatch):
    rng = np.random.default_rng(30)
    X = make_matrix(rng, 90, 5)
    y = np.resize([0, 1, 1], 90)
    rng.shuffle(y)
    models = (
        BaggedTrees(n_estimators=5, max_depth=6, min_samples_leaf=1, max_features=2, seed=3),
        BaggedTrees(n_estimators=4, max_depth=6, seed=3),
        GradientBoostedTrees(n_estimators=5, max_depth=3, seed=3),
    )
    expected = [model.fit(X, y).to_params() for model in models]
    # The default cap puts every node that fills half a block into it,
    # padded; a cap of 1 searches each node alone and 512 cells a few at a time.
    monkeypatch.setattr(trees_module, "_GROW_BLOCK", cap)
    assert [model.fit(X, y).to_params() for model in models] == expected


@pytest.fixture
def count_path(monkeypatch):
    """count_path(fits) makes every block of 0/1 targets count (True), none
    (False) or those _histogram_fits admits (None); it returns the list
    each counted block appends to, emptied."""
    counted: list[int] = []
    count_block, histogram_fits = trees_module._count_block, trees_module._histogram_fits
    monkeypatch.setattr(trees_module, "_count_block", lambda *args: counted.append(1) or count_block(*args))

    def force(fits: bool | None) -> list[int]:
        predicate = histogram_fits if fits is None else (lambda *args: fits)
        monkeypatch.setattr(trees_module, "_histogram_fits", predicate)
        counted.clear()
        return counted

    return force


def many_code_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Columns of 2, about 36 and (for n of a few hundred) over 256 distinct values."""
    return np.column_stack(
        [rng.integers(0, 2, n), rng.integers(0, 36, n), rng.normal(size=n).round(3), rng.integers(0, 37, n)]
    ).astype(np.float64)


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
@pytest.mark.parametrize("seed", range(2))
def test_counting_and_sorting_grow_the_same_ensembles(count_path, min_samples_leaf, seed):
    rng = np.random.default_rng(seed + 60)
    n = 400
    X = many_code_matrix(rng, n)
    assert rank_columns(X)[0].dtype == np.uint16
    y = (X[:, 1] + 12 * X[:, 0] + rng.normal(scale=10, size=n) > 30).astype(np.int64)
    models = [
        BaggedTrees(n_estimators=3, max_depth=5, min_samples_leaf=min_samples_leaf, max_features=features, seed=seed)
        for features in (None, 2)
    ]
    fits = []
    for fits_all in (True, False):
        counted = count_path(fits_all)
        fits.append([model.fit(X, y).to_params() for model in models])
        assert bool(counted) == fits_all
    assert fits[0] == fits[1]
    # Both match the one-node-at-a-time reference on the bootstrap rows,
    # duplicates included, replayed as in the bagging test above.
    replay = np.random.default_rng(seed)
    samples = [replay.integers(0, n, size=n) for _ in range(3)]
    y = y.astype(np.float64)
    references = (
        [grow_tree_reference(X[rows], y[rows], 5, min_samples_leaf) for rows in samples],
        grow_forest_reference(X, y, samples, 5, min_samples_leaf, 2, rng=replay),
    )
    for model, reference in zip(models, references):
        assert [node_lists(tree) for tree in model.trees] == reference


def test_targets_other_than_0_1_are_never_counted(count_path):
    rng = np.random.default_rng(70)
    X = many_code_matrix(rng, 300)
    y = np.resize([0, 1, 1], 300)
    counted = count_path(True)
    GradientBoostedTrees(n_estimators=4, max_depth=3).fit(X, y)
    RegressionTree(max_depth=4).fit(X, np.resize([0.0, 0.5, 1.0], 300))
    assert counted == []
    RegressionTree(max_depth=4).fit(X, y.astype(np.float64))
    assert counted


def test_quick_start_forest_counts_and_matches_the_sort(count_path):
    # The README quick start's corpus at 2,000 orgs, and a training split's worth of its rows.
    config = GeneratorConfig(
        n_orgs=2000, negative_ratio=4.0, signal={"technical": 2.0, "social": 1.5}, noise_fraction=0.2, seed=1
    )
    bundle = generate_corpus(config)
    profiles = featurize_corpus(bundle.organizations, bundle.observations, bundle.tweets, bundle.incidents)
    dataset = [profiles[i] for i in np.random.default_rng(1).permutation(len(profiles))[:1400]]
    spec = ModelSpec("random_forest", seed=1)
    counted = count_path(None)
    params = train(dataset, spec).impl.to_params()
    assert len(counted) > 20
    count_path(False)
    assert train(dataset, spec).impl.to_params() == params


def grown_with_the_count_path(count_path, X, y, min_samples_leaf=1, rows=None) -> RegressionTree:
    """A tree grown on X[rows] with every block counted, checked against the
    sorted search and the reference."""
    rows = np.arange(len(y)) if rows is None else np.asarray(rows)
    trees = []
    for fits in (True, False):
        counted = count_path(fits)
        trees.append(RegressionTree(max_depth=3, min_samples_leaf=min_samples_leaf))
        grow_trees(trees[-1:], X, y, rows[None], None)
        assert bool(counted) == fits
    counted_tree, sorted_tree = map(node_lists, trees)
    assert counted_tree == sorted_tree == grow_tree_reference(X[rows], y[rows], 3, min_samples_leaf)
    return trees[0]


def test_count_path_threshold_spans_the_codes_a_node_skips(count_path):
    # Ten values, but the node holds only 0-2 and 7-9: the cut lies
    # between 2 and 7, the next value present, not between 2 and 3.
    X = np.arange(10, dtype=np.float64)[:, None]
    y = (X[:, 0] > 4).astype(np.float64)
    tree = grown_with_the_count_path(count_path, X, y, rows=[0, 1, 2, 2, 7, 8, 9, 9])
    assert tree.threshold[0] == 4.5


def test_count_path_ties_go_to_the_earliest_column_and_lowest_cut(count_path):
    # Both columns order the rows alike, so they tie on every cut, and
    # within a column the cuts after the first and third rows tie too.
    X = np.array([[0.0, 10.0], [1.0, 20.0], [2.0, 30.0], [3.0, 40.0]])
    tree = grown_with_the_count_path(count_path, X, np.array([1.0, 0.0, 0.0, 1.0]))
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)


@pytest.mark.parametrize("min_samples_leaf, threshold", [(1, 0.5), (2, 1.5), (3, 1.5), (4, math.inf)])
def test_count_path_scores_only_cuts_with_min_samples_leaf_rows_each_side(count_path, min_samples_leaf, threshold):
    # The purest cut leaves one row on the left; codes whose cut leaves
    # fewer than min_samples_leaf rows on either side are not scored, and
    # with 4 no code leaves them, so the root stays a leaf.
    X = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0])[:, None]
    y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    tree = grown_with_the_count_path(count_path, X, y, min_samples_leaf)
    assert tree.threshold[0] == threshold


def test_count_path_pins_a_midpoint_that_rounds_onto_the_higher_value(count_path):
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    assert (low + high) / 2.0 == high
    X = np.array([[low], [low], [high], [high]])
    tree = grown_with_the_count_path(count_path, X, np.array([0.0, 0.0, 1.0, 1.0]))
    assert tree.threshold[0] == low
    assert tree.apply(X).tolist() == [tree.left[0]] * 2 + [tree.right[0]] * 2


def test_boosting_routes_the_training_rows_once_per_round(monkeypatch):
    rng = np.random.default_rng(4)
    X = rounded_matrix(rng, 120, 4)
    y = np.resize([0.0, 1.0, 1.0], 120)
    rng.shuffle(y)
    # Two passes per round: apply() for the leaf values, then predict() for the scores.
    scores = np.full(len(y), math.log(y.mean() / (1.0 - y.mean())))
    two_pass = []
    for _ in range(20):
        prob = sigmoid(scores)
        residual = y - prob
        tree = RegressionTree(max_depth=3, min_samples_leaf=2).fit(X, residual)
        assignments = tree.apply(X)
        leaves = tree.leaf_ids()
        tree.set_leaf_values(
            leaves,
            [
                residual[assignments == leaf].sum()
                / ((prob * (1.0 - prob))[assignments == leaf].sum() + 1.0)
                for leaf in leaves
            ],
        )
        scores += 0.1 * tree.predict(X)
        two_pass.append(tree.to_dict())
    calls = []
    apply = RegressionTree.apply
    monkeypatch.setattr(RegressionTree, "apply", lambda tree, X: calls.append(1) or apply(tree, X))
    model = GradientBoostedTrees(n_estimators=20, max_depth=3, min_samples_leaf=2).fit(X, y)
    assert len(calls) == 20
    assert [tree.to_dict() for tree in model.trees] == two_pass


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
    table = NodeTable([tree])
    assert table.apply(np.full((3, 2), np.nan), np.array([0]), np.array([2])).tolist() == [0]
    assert leaf_intervals(table, 0, tree, 2) == {0: [(-math.inf, math.inf)] * 2}


def test_apply_on_no_rows_is_empty():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = RegressionTree(max_depth=1, min_samples_leaf=1).fit(X, np.array([0.0, 0.0, 1.0, 1.0]))
    none = np.array([], dtype=np.int64)
    assert NodeTable([tree]).apply(X, none, none).tolist() == []


def test_boosted_predictions_follow_set_leaf_values():
    rng = np.random.default_rng(7)
    X = tied_matrix(rng, 80, 3)
    y = (X[:, 0] + rng.normal(size=80) > 1.5).astype(np.int64)
    model = GradientBoostedTrees(n_estimators=6, max_depth=3, min_samples_leaf=2).fit(X, y)
    expected = np.full(len(X), model.base_score)
    for tree in model.trees:
        values = tree.to_dict()["value"]
        expected += model.learning_rate * np.array(
            [values[leaf] for leaf in apply_tree_reference(tree.to_dict(), X)]
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


def load_tree(params: dict, width: int = 4) -> RegressionTree:
    """A saved tree read back as an ensemble reads each of its trees."""
    tree = RegressionTree.from_dict(params)
    check_features([tree], width)
    return tree


class TestFromParams:
    @pytest.fixture
    def params(self):
        rng = np.random.default_rng(11)
        X = rounded_matrix(rng, 60, 4)
        y = rng.integers(0, 2, size=60).astype(np.float64)
        tree = RegressionTree(max_depth=3, min_samples_leaf=2).fit(X, y)
        # Saved trees go through JSON, so edits below see plain lists.
        return json.loads(json.dumps(tree.to_dict()))

    def test_round_trip_is_identical(self, params):
        tree = load_tree(params)
        assert tree.to_dict() == params
        X = with_nan_rows(np.random.default_rng(1), rounded_matrix(np.random.default_rng(2), 30, 4))
        assert tree.apply(X).tolist() == apply_tree_reference(params, X)

    def test_leaf_values_stay_writable_after_load(self, params):
        tree = load_tree(params)
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
            (lambda p: p.update(max_depth=0), "field 'max_depth' must be >= 1, got 0"),
            (lambda p: p.update(min_samples_leaf=0), "field 'min_samples_leaf' must be >= 1, got 0"),
            (lambda p: p.update(min_samples_leaf="2"), "field 'min_samples_leaf' must be int"),
            (lambda p: p.update(max_features=1.0), "field 'max_features' must be int"),
            (lambda p: p["value"].__setitem__(0, True), "field 'value' must be a list of numbers"),
            (lambda p: p.update(junk=1), "unknown key 'junk' in tree"),
        ],
    )
    def test_malformed_tree_rejected(self, params, edit, message):
        edit(params)
        with pytest.raises(ValueError, match=message):
            load_tree(params)

    def test_shared_child_rejected(self, params):
        # Point the root's right edge at its left child's subtree too.
        params["right"][0] = params["left"][0]
        with pytest.raises(ValueError, match="exactly one parent"):
            load_tree(params)

    def test_leaf_with_child_rejected(self, params):
        leaf = params["feature"].index(-1)
        params["left"][leaf] = len(params["feature"]) - 1
        with pytest.raises(ValueError, match="leaf has a child"):
            load_tree(params)


@pytest.mark.parametrize("ensemble", [BaggedTrees, GradientBoostedTrees])
def test_ensemble_without_trees_rejected(ensemble):
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    params = ensemble(n_estimators=2, seed=0).fit(X, np.array([0, 0, 1, 1])).to_params()
    assert ensemble.from_params(params, width=1).to_params() == params
    params["trees"] = []
    with pytest.raises(ValueError, match="at least one tree"):
        ensemble.from_params(params, width=1)
