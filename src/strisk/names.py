"""Organization name normalization and two-stage fuzzy matching.

Names are resolved across datasets with word-set Jaccard similarity as a
first stage and character-level Jaro-Winkler as a second stage. Pairs that
satisfy only one stage, or that tie with another candidate, land in a
review queue instead of being silently accepted.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Annotated, Sequence

from .records import Bound, Count, Probability, check_bounds, json_fields, read_config

DEFAULT_SUFFIX_STOPLIST = frozenset({"llc", "dba", "inc", "corp", "co", "ltd"})

ACCEPTED = "accepted"
REJECTED = "rejected"
NEEDS_REVIEW = "needs_review"

_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_SCORE_TIE = 1e-9


@dataclass(frozen=True, slots=True)
class MatchConfig:
    """Thresholds and Jaro-Winkler parameters for the matching pipeline.

    prefix_scale is the Winkler prefix bonus per shared leading character,
    and max_prefix caps how many leading characters earn it; together they
    keep every score inside [0, 1].
    """

    jaccard_threshold: Probability = 0.5
    jw_threshold: Probability = 0.85
    prefix_scale: Annotated[float, Bound(0, 0.25, "(]")] = 0.1
    max_prefix: Count = 4
    suffix_stoplist: frozenset[str] = DEFAULT_SUFFIX_STOPLIST

    def __post_init__(self) -> None:
        check_bounds(self)
        object.__setattr__(self, "suffix_stoplist", frozenset(self.suffix_stoplist))

    to_dict = json_fields
    from_dict = classmethod(read_config)


@dataclass(frozen=True, slots=True)
class CanonicalName:
    """A name plus its normalized form and word tokens."""

    original: str
    normalized: str
    tokens: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class MatchCandidate:
    """Best registry match for one incident name, with both stage scores."""

    incident_name: CanonicalName
    registry_name: CanonicalName
    jaccard: float
    jaro_winkler: float
    verdict: str

    def to_dict(self) -> dict:
        """The row written to a matches file."""
        return {
            "incident_name": self.incident_name.original,
            "registry_name": self.registry_name.original,
            "jaccard": self.jaccard,
            "jaro_winkler": self.jaro_winkler,
            "verdict": self.verdict,
        }


def normalize_name(raw: str, config: MatchConfig | None = None) -> CanonicalName:
    """Lowercase, strip punctuation/accents, and drop corporate suffix tokens.

    Idempotent: normalizing an already-normalized name is a no-op. A name
    that normalizes to nothing keeps an empty token tuple and will match
    nothing downstream.
    """
    config = config or MatchConfig()
    text = unicodedata.normalize("NFKD", raw)
    text = text.encode("ascii", "ignore").decode("ascii").lower()
    text = _NON_ALNUM.sub(" ", text)
    tokens = tuple(
        token for token in text.split() if token not in config.suffix_stoplist
    )
    return CanonicalName(original=raw, normalized=" ".join(tokens), tokens=tokens)


def jaccard_similarity(a: CanonicalName, b: CanonicalName) -> float:
    """Word-set overlap |A intersect B| / |A union B| over unique tokens.

    Two empty token sets score 0.0: an empty name carries no identity
    evidence, so it is treated as unmatched rather than trivially equal.
    """
    set_a, set_b = set(a.tokens), set(b.tokens)
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def jaro_similarity(a: str, b: str) -> float:
    """Standard Jaro similarity over character sequences.

    Matching window is floor(max(|a|,|b|)/2) - 1; transpositions count the
    matched characters that disagree in order, halved. Two empty strings
    score 1.0 by convention; one empty string scores 0.0.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(max(len_a, len_b) // 2 - 1, 0)
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, char in enumerate(a):
        start = max(0, i - window)
        end = min(i + window + 1, len_b)
        for j in range(start, end):
            if matched_b[j] or b[j] != char:
                continue
            matched_a[i] = True
            matched_b[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transposed = 0
    j = 0
    for i in range(len_a):
        if not matched_a[i]:
            continue
        while not matched_b[j]:
            j += 1
        if a[i] != b[j]:
            transposed += 1
        j += 1
    half_transpositions = transposed // 2
    m = float(matches)
    return (m / len_a + m / len_b + (m - half_transpositions) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str, config: MatchConfig | None = None) -> float:
    """Jaro boosted by shared-prefix length: jaro + L * p * (1 - jaro)."""
    config = config or MatchConfig()
    jaro = jaro_similarity(a, b)
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix >= config.max_prefix:
            break
        prefix += 1
    return jaro + prefix * config.prefix_scale * (1.0 - jaro)


def match_names(
    incident_names: Sequence[str],
    registry_names: Sequence[str],
    config: MatchConfig | None = None,
) -> list[MatchCandidate]:
    """Match each incident name to its best registry candidate.

    Stage 1 ranks registry names by Jaccard over word sets; stage 2 scores
    the winner with Jaro-Winkler on the normalized strings. A candidate is
    accepted only when both thresholds pass; passing exactly one sends it
    to review, as does a tie between distinct top candidates (ties among
    zero-score candidates mean no evidence at all and stay rejected).
    Ties are broken lexicographically by normalized name for determinism.

    Only registry names that share a normalized token with the incident
    can score above 0, so an inverted token index picks those out and
    only they are scored. An incident that shares no token with any
    registry name scores 0 against all of them; its candidate is the
    lexicographically first normalized registry name, computed once.
    """
    config = config or MatchConfig()
    if not registry_names:
        raise ValueError("empty registry")
    registry = [normalize_name(name, config) for name in registry_names]
    sizes = [len(set(entry.tokens)) for entry in registry]
    index: dict[str, list[int]] = {}
    for position, entry in enumerate(registry):
        for token in set(entry.tokens):
            index.setdefault(token, []).append(position)
    no_overlap = (0.0, min(registry, key=lambda entry: entry.normalized), False)
    results: list[MatchCandidate] = []
    for raw in incident_names:
        incident = normalize_name(raw, config)
        tokens = set(incident.tokens)
        shared = Counter(
            position for token in tokens for position in index.get(token, ())
        )
        if not shared:
            best_score, best, ambiguous = no_overlap
        else:
            # A shared token gives Jaccard >= 1/(|A|+|B|), far above
            # _SCORE_TIE, so the unscored zero-score names never contend.
            scored = [
                (count / (len(tokens) + sizes[position] - count), registry[position])
                for position, count in sorted(shared.items())
            ]
            best_score = max(score for score, _ in scored)
            contenders = [
                entry for score, entry in scored if best_score - score <= _SCORE_TIE
            ]
            best = min(contenders, key=lambda entry: entry.normalized)
            ambiguous = len({entry.normalized for entry in contenders}) > 1
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
