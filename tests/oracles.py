"""Independent reference implementations used only to cross-check results.

Everything here is written the slow, obvious way on purpose: nested
loops and explicit flag arrays instead of the optimizations the library
uses, so agreement actually means something.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def jaro_reference(a: str, b: str) -> float:
    """Window enumeration straight from the definition, no shortcuts."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    matched_a = [False] * len(a)
    matched_b = [False] * len(b)
    for i, char in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not matched_b[j] and b[j] == char:
                matched_a[i] = True
                matched_b[j] = True
                break
    m = sum(matched_a)
    if m == 0:
        return 0.0
    seq_a = [char for char, used in zip(a, matched_a) if used]
    seq_b = [char for char, used in zip(b, matched_b) if used]
    transpositions = sum(x != y for x, y in zip(seq_a, seq_b)) // 2
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def pairwise_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Quadratic pairwise counting: wins plus half credit for ties."""
    positives = [s for s, y in zip(scores, labels) if y == 1]
    negatives = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def midrank_auc_reference(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-sum AUC: sort, walk each run of tied scores, give it the midrank."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        midrank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    rank_sum = sum(rank for rank, label in zip(ranks, labels) if label == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def best_split_reference(
    X: np.ndarray,
    target: np.ndarray,
    idx: np.ndarray,
    candidates: Sequence[int],
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Squared-error split search, one column and one cut at a time.

    For each candidate column, rows are sorted by value (stably) and every
    cut between two distinct values that leaves min_samples_leaf rows per
    side is scored from running sums. The first strictly lowest score
    wins, scanning columns in order and cuts left to right.
    """
    n = len(idx)
    best_sse = math.inf
    best: tuple[int, float] | None = None
    for feature in candidates:
        rows = sorted(range(n), key=lambda r: X[idx[r], feature])
        xs = [float(X[idx[r], feature]) for r in rows]
        ys = [float(target[r]) for r in rows]
        prefix, prefix_sq = [], []
        running = running_sq = 0.0
        for value in ys:
            running += value
            running_sq += value * value
            prefix.append(running)
            prefix_sq.append(running_sq)
        total, total_sq = prefix[-1], prefix_sq[-1]
        for size in range(1, n):
            if not xs[size - 1] < xs[size]:
                continue
            if size < min_samples_leaf or n - size < min_samples_leaf:
                continue
            left_sum, left_sq = prefix[size - 1], prefix_sq[size - 1]
            sse_left = left_sq - left_sum * left_sum / size
            right_sum = total - left_sum
            sse_right = (total_sq - left_sq) - right_sum * right_sum / (n - size)
            sse = sse_left + sse_right
            if sse < best_sse:
                cut = (xs[size - 1] + xs[size]) / 2.0
                if cut >= xs[size]:
                    cut = xs[size - 1]
                best_sse = sse
                best = (int(feature), cut)
    return best


def grow_tree_reference(
    X: np.ndarray, y: np.ndarray, max_depth: int, min_samples_leaf: int
) -> dict[str, list]:
    """Pre-order recursive growth into the saved-tree layout.

    Leaves have feature -1, threshold 0.0 and children -1. Node means use
    numpy's mean, as the library does, since the summation order of a
    mean is not what is under test. Every node searches every column.
    """
    tree: dict[str, list] = {key: [] for key in ("feature", "threshold", "left", "right", "value")}

    def grow(idx: np.ndarray, depth: int) -> int:
        node = len(tree["feature"])
        for key, initial in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
            tree[key].append(initial)
        tree["value"].append(float(np.mean(y[idx])))
        target = y[idx]
        if depth >= max_depth or len(idx) < 2 * min_samples_leaf or target.max() == target.min():
            return node
        best = best_split_reference(X, target, idx, range(X.shape[1]), min_samples_leaf)
        if best is None:
            return node
        feature, cut = best
        goes_left = np.array([X[i, feature] <= cut for i in idx], dtype=bool)
        tree["feature"][node] = feature
        tree["threshold"][node] = cut
        tree["left"][node] = grow(idx[goes_left], depth + 1)
        tree["right"][node] = grow(idx[~goes_left], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    return tree


def grow_forest_reference(
    X: np.ndarray,
    y: np.ndarray,
    samples: Sequence[np.ndarray],
    max_depth: int,
    min_samples_leaf: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[dict[str, list]]:
    """Breadth-first growth of several trees together, one node at a time.

    Tree t grows on rows samples[t] of X and y. Depth by depth, the nodes
    that can split are listed tree by tree and left to right. With
    feature subsampling, one rng.random((listed nodes, width)) draw gives
    each listed node a key per column, and the node searches the
    max_features columns with the smallest keys, in column order. Each
    tree is then written out in pre-order, in the saved-tree layout.
    """
    width = X.shape[1]
    subsample = max_features is not None and max_features < width

    def new_node(rows: np.ndarray) -> dict:
        return {"rows": rows, "value": float(np.mean(y[rows])), "split": None}

    roots = [new_node(np.asarray(rows)) for rows in samples]
    level = list(roots)
    for _ in range(max_depth):
        splittable = []
        for node in level:
            target = y[node["rows"]]
            if len(target) >= 2 * min_samples_leaf and target.max() != target.min():
                splittable.append(node)
        keys = rng.random((len(splittable), width)) if subsample else None
        level = []
        for i, node in enumerate(splittable):
            candidates = range(width)
            if subsample:
                by_key = sorted(range(width), key=lambda column: keys[i][column])
                candidates = sorted(by_key[:max_features])
            rows = node["rows"]
            best = best_split_reference(X, y[rows], rows, candidates, min_samples_leaf)
            if best is None:
                continue
            feature, cut = best
            goes_left = np.array([X[row, feature] <= cut for row in rows], dtype=bool)
            children = (new_node(rows[goes_left]), new_node(rows[~goes_left]))
            node["split"] = (feature, cut, children)
            level.extend(children)

    def write(root: dict) -> dict[str, list]:
        tree: dict[str, list] = {key: [] for key in ("feature", "threshold", "left", "right", "value")}

        def visit(node: dict) -> int:
            at = len(tree["feature"])
            for key, initial in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
                tree[key].append(initial)
            tree["value"].append(node["value"])
            if node["split"] is not None:
                feature, cut, (left, right) = node["split"]
                tree["feature"][at] = feature
                tree["threshold"][at] = cut
                tree["left"][at] = visit(left)
                tree["right"][at] = visit(right)
            return at

        visit(root)
        return tree

    return [write(root) for root in roots]


def apply_tree_reference(tree: dict[str, list], X: np.ndarray) -> list[int]:
    """Walk each row from the root, one node at a time, to its leaf.

    A row goes left when its value is <= the threshold, so NaN goes right.
    """
    leaves = []
    for row in X:
        node = 0
        while tree["feature"][node] != -1:
            if row[tree["feature"][node]] <= tree["threshold"][node]:
                node = tree["left"][node]
            else:
                node = tree["right"][node]
        leaves.append(node)
    return leaves


def leaf_intervals_reference(tree: dict[str, list], width: int) -> dict[int, list[tuple[float, float]]]:
    """For each leaf, walk up its path and narrow each column's (lo, hi]:
    going left at a split caps hi at its threshold, going right raises lo."""
    parent = {}
    for node, feature in enumerate(tree["feature"]):
        if feature != -1:
            parent[tree["left"][node]] = (node, "left")
            parent[tree["right"][node]] = (node, "right")
    intervals = {}
    for leaf, feature in enumerate(tree["feature"]):
        if feature != -1:
            continue
        bounds = [[-math.inf, math.inf] for _ in range(width)]
        node = leaf
        while node in parent:
            node, side = parent[node]
            column, cut = tree["feature"][node], tree["threshold"][node]
            if side == "left":
                bounds[column][1] = min(bounds[column][1], cut)
            else:
                bounds[column][0] = max(bounds[column][0], cut)
        intervals[leaf] = [(lo, hi) for lo, hi in bounds]
    return intervals


def confident_joint_reference(
    probabilities: Sequence[float],
    labels: Sequence[int],
    t0: float,
    t1: float,
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Cell membership by literal case enumeration."""
    counts = [[0, 0], [0, 0]]
    for p1, given in zip(probabilities, labels):
        p0 = 1.0 - p1
        if p0 >= t0 and p1 >= t1:
            asserted = 1 if p1 >= p0 else 0
        elif p1 >= t1:
            asserted = 1
        elif p0 >= t0:
            asserted = 0
        else:
            continue
        counts[given][asserted] += 1
    return (counts[0][0], counts[0][1]), (counts[1][0], counts[1][1])


def permutation_importance_reference(model, dataset, repeats: int, seed: int) -> dict:
    """The full-rescore importance loop: every shuffle scores the whole
    matrix through the model, reusing one buffer whose columns are
    restored after each feature's repeats. When no feature's mean drop is
    above 0, the same generator goes on to shuffle each category's columns
    together and the shares divide those drops. Returns the report as a dict.
    """
    from strisk.evaluation import roc_auc
    from strisk.features import SOCIAL_FEATURES, TECHNICAL_FEATURES
    from strisk.models.api import encode_for
    from strisk.models.encode import NUMERIC_COLUMNS, SECTOR_COLUMNS, encode_labels

    X = encode_for(model, dataset)
    labels = encode_labels(dataset).tolist()
    baseline = roc_auc(model.predict_matrix(X), labels)
    rng = np.random.default_rng(seed)
    shuffled = X.copy()

    def columns_of(features) -> list[int]:
        columns = []
        for feature in features:
            if feature == "sector":
                start = len(NUMERIC_COLUMNS)
                columns += range(start, start + len(SECTOR_COLUMNS))
            else:
                columns.append(NUMERIC_COLUMNS.index(feature))
        return columns

    def mean_drop(columns) -> float:
        drops = []
        for _ in range(repeats):
            permutation = rng.permutation(len(dataset))
            shuffled[:, columns] = X[np.ix_(permutation, columns)]
            drops.append(baseline - roc_auc(model.predict_matrix(shuffled), labels))
        shuffled[:, columns] = X[:, columns]
        return max(0.0, float(np.mean(drops)))

    per_feature: dict[str, float] = {}
    for feature in TECHNICAL_FEATURES + SOCIAL_FEATURES + ("org_size", "sector"):
        per_feature[feature] = mean_drop(columns_of([feature]))
    categories = {
        "technical": TECHNICAL_FEATURES,
        "twitter": SOCIAL_FEATURES,
        "sector": ("sector",),
        "org_size": ("org_size",),
    }
    sums = {
        category: sum(per_feature[name] for name in features)
        for category, features in categories.items()
    }
    if sum(sums.values()) == 0:
        sums = {category: mean_drop(columns_of(features)) for category, features in categories.items()}
    total = sum(sums.values())
    return {
        "model": model.name,
        "baseline_auc": float(baseline),
        "repeats": repeats,
        "per_feature": per_feature,
        "category_shares": {
            category: (100.0 * value / total if total > 0 else 0.0)
            for category, value in sums.items()
        },
    }


def discover_noisy_negatives_reference(
    prob_sets: Sequence[Sequence[float]],
    labels: Sequence[int],
    method: str,
    ids: Sequence[str],
) -> list[str]:
    """Per-example flagging with a separate branch per method: the mean
    probability rounded at 0.5, or the case enumeration of the confident
    joint under self-confidence thresholds; sorted by (-mean, index)."""
    ensemble = [sum(column) / len(prob_sets) for column in zip(*prob_sets)]
    if method == "confident_joint":
        class1 = [p for p, label in zip(ensemble, labels) if label == 1]
        class0 = [1.0 - p for p, label in zip(ensemble, labels) if label == 0]
        t0, t1 = sum(class0) / len(class0), sum(class1) / len(class1)
        flagged = []
        for i, (p1, label) in enumerate(zip(ensemble, labels)):
            p0 = 1.0 - p1
            if label != 0:
                continue
            if p0 >= t0 and p1 >= t1:
                if p1 >= p0:
                    flagged.append(i)
            elif p1 >= t1:
                flagged.append(i)
    else:
        flagged = [
            i
            for i, (p1, label) in enumerate(zip(ensemble, labels))
            if label == 0 and p1 >= 0.5
        ]
    flagged.sort(key=lambda i: (-ensemble[i], i))
    return [ids[i] for i in flagged]


def noise_transition_matrix_reference(counts, label_counts=None):
    """The three transition views cell by cell: a loop per row or column,
    NaN written only where a row or column sums to zero."""
    from strisk.noise import TransitionEstimate

    Z = np.array(counts, dtype=np.float64)
    row_sums = Z.sum(axis=1)
    if label_counts is None:
        label_counts = (int(row_sums[0]), int(row_sums[1]))
    row_normalized = np.full((2, 2), np.nan)
    undefined_rows = []
    for i in range(2):
        if row_sums[i] > 0:
            row_normalized[i] = Z[i] / row_sums[i]
        else:
            undefined_rows.append(i)
    col_sums = Z.sum(axis=0)
    simple = np.full((2, 2), np.nan)
    undefined_columns = []
    for j in range(2):
        if col_sums[j] > 0:
            simple[:, j] = Z[:, j] / col_sums[j]
        else:
            undefined_columns.append(j)
    rescaled = np.full((2, 2), np.nan)
    for i in range(2):
        if row_sums[i] > 0:
            rescaled[i] = (Z[i] / row_sums[i]) * label_counts[i]
        else:
            rescaled[i] = 0.0
    composite = np.full((2, 2), np.nan)
    for j in range(2):
        total = rescaled[:, j].sum()
        if total > 0:
            composite[:, j] = rescaled[:, j] / total
    composite[:, undefined_columns] = np.nan

    def freeze(matrix):
        return tuple(tuple(float(v) for v in row) for row in matrix)

    return TransitionEstimate(
        conditional=freeze(composite),
        simple_conditional=freeze(simple),
        row_normalized=freeze(row_normalized),
        label_counts=label_counts,
        undefined_columns=tuple(undefined_columns),
        undefined_rows=tuple(undefined_rows),
    )


def encode_profiles_reference(profiles) -> np.ndarray:
    """The per-row encoder: each row gets its values and org_size, then
    its sector indicator (an unknown sector raises at that row); cells are
    checked for non-finite values once, after the last row."""
    from strisk.models.encode import NUMERIC_COLUMNS, SECTOR_COLUMNS
    from strisk.records import SECTORS

    sector_index = {name: i for i, name in enumerate(SECTORS)}
    n_numeric = len(NUMERIC_COLUMNS)
    matrix = np.zeros((len(profiles), n_numeric + len(SECTOR_COLUMNS)), dtype=np.float64)
    for row, profile in enumerate(profiles):
        matrix[row, :n_numeric] = profile.values + (float(profile.org_size),)
        if profile.sector not in sector_index:
            raise ValueError(f"unknown sector {profile.sector!r}")
        matrix[row, n_numeric + sector_index[profile.sector]] = 1.0
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite feature")
    return matrix


def match_names_reference(incident_names, registry_names, config=None):
    """The all-pairs matcher: every incident scored against every registry
    name."""
    from strisk.names import (
        _SCORE_TIE,
        ACCEPTED,
        NEEDS_REVIEW,
        REJECTED,
        MatchCandidate,
        MatchConfig,
        jaccard_similarity,
        jaro_winkler_similarity,
        normalize_name,
    )

    config = config or MatchConfig()
    if not registry_names:
        raise ValueError("empty registry")
    registry = [normalize_name(name, config) for name in registry_names]
    results = []
    for raw in incident_names:
        incident = normalize_name(raw, config)
        scored = [(jaccard_similarity(incident, entry), entry) for entry in registry]
        best_score = max(score for score, _ in scored)
        contenders = [
            entry for score, entry in scored if best_score - score <= _SCORE_TIE
        ]
        best = min(contenders, key=lambda entry: entry.normalized)
        distinct = {entry.normalized for entry in contenders}
        ambiguous = best_score > 0.0 and len(distinct) > 1
        jw = jaro_winkler_similarity(incident.normalized, best.normalized, config)
        jaccard_ok = best_score >= config.jaccard_threshold
        jw_ok = jw >= config.jw_threshold
        if ambiguous:
            verdict = NEEDS_REVIEW
        elif jaccard_ok and jw_ok:
            verdict = ACCEPTED
        elif jaccard_ok or jw_ok:
            verdict = NEEDS_REVIEW
        else:
            verdict = REJECTED
        results.append(
            MatchCandidate(
                incident_name=incident,
                registry_name=best,
                jaccard=best_score,
                jaro_winkler=jw,
                verdict=verdict,
            )
        )
    return results


def clean_tweet_text_reference(text: str) -> str:
    """The tweet cleaner with every step applied to every text."""
    from strisk.text import (
        _CONTRACTION_RE,
        _HASHTAG_RE,
        _MENTION_RE,
        _NON_ALNUM_RE,
        _URL_RE,
        _WHITESPACE_RE,
        CONTRACTIONS,
    )

    text = text.lower()
    text = _CONTRACTION_RE.sub(lambda m: CONTRACTIONS[m.group(1)], text)
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(r"\1", text)
    text = _NON_ALNUM_RE.sub(" ", text)
    return _WHITESPACE_RE.sub(" ", text).strip()
