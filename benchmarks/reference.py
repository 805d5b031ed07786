"""Reference computations the benchmark checks the program against.

Written from the definitions, in plain Python and without importing
``strisk``, so that agreement with the program means something: name
normalization, word-set Jaccard, Jaro-Winkler, best-candidate selection,
a pairwise-counting AUC, and plain readers for the program's files.
"""
from __future__ import annotations

import csv
import json
import unicodedata
from pathlib import Path
from typing import Iterable, Sequence

# Ties between candidate scores closer than this count as equal.
SCORE_TIE = 1e-9


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def normalize_tokens(raw: str, stoplist: Iterable[str]) -> tuple[str, ...]:
    """Lowercase ASCII words of ``raw`` without corporate suffix words."""
    text = unicodedata.normalize("NFKD", raw).encode("ascii", "ignore").decode("ascii")
    words: list[str] = []
    current = ""
    for char in text.lower():
        if ("a" <= char <= "z") or ("0" <= char <= "9"):
            current += char
        elif current:
            words.append(current)
            current = ""
    if current:
        words.append(current)
    stop = set(stoplist)
    return tuple(word for word in words if word not in stop)


def jaccard(a: Sequence[str], b: Sequence[str]) -> float:
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def jaro(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    used_b = [False] * len(b)
    kept_a: list[str] = []
    for i, char in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not used_b[j] and b[j] == char:
                used_b[j] = True
                kept_a.append(char)
                break
    m = len(kept_a)
    if m == 0:
        return 0.0
    kept_b = [char for char, used in zip(b, used_b) if used]
    half_transpositions = sum(x != y for x, y in zip(kept_a, kept_b)) // 2
    return (m / len(a) + m / len(b) + (m - half_transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float, max_prefix: int) -> float:
    score = jaro(a, b)
    prefix = 0
    while prefix < min(len(a), len(b), max_prefix) and a[prefix] == b[prefix]:
        prefix += 1
    return score + prefix * prefix_scale * (1.0 - score)


def best_match(
    incident: tuple[str, ...], registry: Sequence[tuple[str, ...]], config: dict
) -> dict:
    """Best registry candidate for one normalized incident name.

    The winner is the lexicographically smallest normalized name among
    the top Jaccard scores; distinct tied names make a positive score
    ambiguous, which sends it to review.
    """
    scores = [jaccard(incident, entry) for entry in registry]
    top = max(scores)
    tied = sorted({" ".join(e) for s, e in zip(scores, registry) if top - s <= SCORE_TIE})
    winner = tied[0]
    jw = jaro_winkler(
        " ".join(incident), winner, config["prefix_scale"], config["max_prefix"]
    )
    return {
        "jaccard": top,
        "registry_normalized": winner,
        "jaro_winkler": jw,
        "verdict": verdict_for(top, jw, config, ambiguous=top > 0.0 and len(tied) > 1),
    }


def verdict_for(jac: float, jw: float, config: dict, ambiguous: bool = False) -> str:
    jaccard_ok = jac >= config["jaccard_threshold"]
    jw_ok = jw >= config["jw_threshold"]
    if ambiguous:
        return "needs_review"
    if jaccard_ok and jw_ok:
        return "accepted"
    if jaccard_ok or jw_ok:
        return "needs_review"
    return "rejected"


def pairwise_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Share of (positive, negative) pairs ranked right, ties counting half.

    Counts pairs by walking both classes in ascending score order, so it
    is exact integer arithmetic until the final division.
    """
    positives = sorted(s for s, y in zip(scores, labels) if y == 1)
    negatives = sorted(s for s, y in zip(scores, labels) if y == 0)
    if not positives or not negatives:
        raise ValueError("AUC needs both classes")
    below = ties = 0
    half_units = 0
    j = 0
    for p in positives:
        while j < len(negatives) and negatives[j] < p:
            j += 1
        below = j
        k = j
        while k < len(negatives) and negatives[k] == p:
            k += 1
        ties = k - j
        half_units += 2 * below + ties
    return half_units / (2 * len(positives) * len(negatives))
