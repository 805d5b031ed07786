"""Name normalization and the two-stage matcher."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jaro_reference, match_names_reference
from strisk.names import (
    ACCEPTED,
    NEEDS_REVIEW,
    REJECTED,
    MatchConfig,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    match_names,
    normalize_name,
)

names_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x024F), max_size=40
)
short_strings = st.text(alphabet="abc", max_size=8)


class TestNormalizeName:
    def test_lowercase_and_punctuation(self):
        assert normalize_name("Florida Bar Association").normalized == (
            "florida bar association"
        )
        assert normalize_name("ACME, Widgets!").normalized == "acme widgets"

    def test_suffix_tokens_removed(self):
        assert normalize_name("Acme Corp").normalized == "acme"
        assert normalize_name("Acme, Inc.").normalized == "acme"
        assert normalize_name("Acme LLC").tokens == ("acme",)

    def test_suffix_removed_only_as_whole_token(self):
        # "corporation" contains "corp" but is not a suffix token
        assert "corporation" in normalize_name("Acme Corporation").tokens

    def test_unicode_folded_to_ascii(self):
        assert normalize_name("Café São Paulo").normalized == "cafe sao paulo"

    def test_pure_suffix_name_collapses_to_empty(self):
        canonical = normalize_name("LLC")
        assert canonical.normalized == ""
        assert canonical.tokens == ()

    def test_original_preserved(self):
        assert normalize_name("Acme, Inc.").original == "Acme, Inc."

    @given(names_text)
    def test_idempotent(self, raw):
        once = normalize_name(raw).normalized
        assert normalize_name(once).normalized == once


class TestJaccard:
    def test_table_pair_scores_half(self):
        a = normalize_name("florida bar association")
        b = normalize_name("florida bankers association")
        assert jaccard_similarity(a, b) == 0.5

    def test_identical_sets(self):
        a = normalize_name("acme widgets")
        assert jaccard_similarity(a, a) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity(normalize_name("alpha"), normalize_name("beta")) == 0.0

    def test_both_empty_scores_zero(self):
        assert jaccard_similarity(normalize_name("llc"), normalize_name("inc")) == 0.0

    @given(names_text, names_text)
    def test_symmetric_and_bounded(self, raw_a, raw_b):
        a, b = normalize_name(raw_a), normalize_name(raw_b)
        score = jaccard_similarity(a, b)
        assert score == jaccard_similarity(b, a)
        assert 0.0 <= score <= 1.0


class TestJaro:
    def test_known_pairs(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(17 / 18, abs=1e-12)
        assert jaro_similarity("dixon", "dicksonx") == pytest.approx(23 / 30, abs=1e-12)
        assert jaro_similarity("dwayne", "duane") == pytest.approx(37 / 45, abs=1e-12)

    def test_empty_conventions(self):
        assert jaro_similarity("", "") == 1.0
        assert jaro_similarity("", "abc") == 0.0
        assert jaro_similarity("abc", "") == 0.0

    def test_no_common_characters(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_single_characters(self):
        assert jaro_similarity("a", "a") == 1.0
        assert jaro_similarity("a", "b") == 0.0

    @given(short_strings, short_strings)
    def test_matches_reference(self, a, b):
        assert jaro_similarity(a, b) == pytest.approx(jaro_reference(a, b), abs=1e-12)

    @given(short_strings, short_strings)
    def test_symmetric_and_bounded(self, a, b):
        score = jaro_similarity(a, b)
        assert score == jaro_similarity(b, a)
        assert 0.0 <= score <= 1.0

    @given(st.text(max_size=20))
    def test_identity(self, a):
        assert jaro_similarity(a, a) == 1.0


class TestJaroWinkler:
    def test_martha_fixture(self):
        jaro = 17 / 18
        expected = jaro + 3 * 0.1 * (1 - jaro)
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
            expected, abs=1e-12
        )

    def test_prefix_capped_at_four(self):
        jaro = jaro_similarity("abcdefgh", "abcdefxy")
        expected = jaro + 4 * 0.1 * (1 - jaro)
        assert jaro_winkler_similarity("abcdefgh", "abcdefxy") == pytest.approx(
            expected, abs=1e-12
        )

    def test_no_shared_prefix_equals_jaro(self):
        assert jaro_winkler_similarity("xabc", "yabc") == jaro_similarity("xabc", "yabc")

    @given(short_strings, short_strings)
    def test_never_below_jaro(self, a, b):
        assert jaro_winkler_similarity(a, b) >= jaro_similarity(a, b) - 1e-15

    @given(short_strings, short_strings)
    def test_bounded(self, a, b):
        assert 0.0 <= jaro_winkler_similarity(a, b) <= 1.0


class TestMatchConfig:
    def test_defaults(self):
        config = MatchConfig()
        assert config.jaccard_threshold == 0.5
        assert config.jw_threshold == 0.85
        assert config.prefix_scale == 0.1
        assert config.max_prefix == 4

    @pytest.mark.parametrize("scale", [0.0, -0.1, 0.26, 1.0])
    def test_prefix_scale_must_be_validated(self, scale):
        with pytest.raises(ValueError):
            MatchConfig(prefix_scale=scale)

    @pytest.mark.parametrize("threshold", [-0.01, 1.01])
    def test_thresholds_must_be_probabilities(self, threshold):
        with pytest.raises(ValueError):
            MatchConfig(jaccard_threshold=threshold)
        with pytest.raises(ValueError):
            MatchConfig(jw_threshold=threshold)

    def test_max_prefix_positive(self):
        with pytest.raises(ValueError):
            MatchConfig(max_prefix=0)

    def test_round_trip(self):
        config = MatchConfig(jaccard_threshold=0.4, jw_threshold=0.9)
        assert MatchConfig.from_dict(config.to_dict()) == config


class TestMatchNames:
    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError, match="empty registry"):
            match_names(["acme"], [])

    def test_exact_match_accepted(self):
        [result] = match_names(["Acme, Inc."], ["Acme"])
        assert result.verdict == ACCEPTED
        assert result.registry_name.normalized == "acme"
        assert result.jaccard == 1.0
        assert result.jaro_winkler == 1.0

    def test_unrelated_name_rejected(self):
        [result] = match_names(["zzz unrelated"], ["acme widgets"])
        assert result.verdict == REJECTED

    def test_jaccard_only_goes_to_review(self):
        # Identical word sets, scrambled order: stage 1 passes, stage 2 fails.
        [result] = match_names(["alpha omega"], ["omega alpha"])
        assert result.jaccard == 1.0
        assert result.jaro_winkler < 0.85
        assert result.verdict == NEEDS_REVIEW

    def test_jaro_winkler_only_goes_to_review(self):
        # One misspelled token: stage 2 passes, stage 1 fails.
        [result] = match_names(["consolidated"], ["consolidted"])
        assert result.jaccard == 0.0
        assert result.jaro_winkler >= 0.85
        assert result.verdict == NEEDS_REVIEW

    def test_tied_candidates_go_to_review(self):
        [result] = match_names(["acme"], ["acme east", "acme west"])
        assert result.verdict == NEEDS_REVIEW

    def test_tie_breaks_lexicographically(self):
        [result] = match_names(["acme"], ["acme west", "acme east"])
        assert result.registry_name.normalized == "acme east"

    def test_all_zero_tie_is_rejected(self):
        [result] = match_names(["zulu"], ["acme east", "acme west"])
        assert result.jaccard == 0.0
        assert result.verdict == REJECTED

    def test_ambiguity_outranks_passing_thresholds(self):
        results = match_names(["acme corp"], ["acme corp east", "acme corp west"])
        assert results[0].verdict == NEEDS_REVIEW

    def test_one_result_per_incident_in_order(self):
        results = match_names(["Acme", "Bravo"], ["acme", "bravo"])
        assert [r.incident_name.original for r in results] == ["Acme", "Bravo"]
        assert all(r.verdict == ACCEPTED for r in results)

    def test_custom_thresholds_change_verdicts(self):
        relaxed = MatchConfig(jaccard_threshold=0.3, jw_threshold=0.3)
        [result] = match_names(["alpha omega"], ["omega alpha"], relaxed)
        assert result.verdict == ACCEPTED


# Few tokens, so drawn names share words, tie exactly and repeat a
# normalized name under another spelling; suffixes and punctuation alone
# normalize to nothing, and "zulu"/"yankee" appear only in incidents.
registry_token = st.sampled_from(
    ["acme", "Acme", "ACME,", "east", "East.", "west", "bolt", "freight", "Inc", "co", "&"]
)
incident_token = st.one_of(registry_token, st.sampled_from(["zulu", "yankee"]))
registry_names = st.lists(
    st.lists(registry_token, max_size=4).map(" ".join), min_size=1, max_size=8
)
incident_names = st.lists(st.lists(incident_token, max_size=4).map(" ".join), max_size=6)


class TestMatchNamesAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(incident_names, registry_names)
    def test_rows_equal_all_pairs_reference(self, incidents, registry):
        assert [c.to_dict() for c in match_names(incidents, registry)] == [
            c.to_dict() for c in match_names_reference(incidents, registry)
        ]

    def test_duplicate_normalized_names_keep_the_first_original(self):
        [result] = match_names(["acme"], ["ACME, Inc.", "Acme", "acme co"])
        assert result.registry_name.original == "ACME, Inc."
        assert result.verdict == ACCEPTED

    def test_no_overlap_takes_the_first_normalized_name(self):
        [result] = match_names(["zulu"], ["bolt", "Acme West", "acme east", "ACME EAST"])
        assert result.registry_name.original == "acme east"
        assert (result.jaccard, result.verdict) == (0.0, REJECTED)
