"""Tweet cleaning, sentiment buckets, and the lexicon scorer."""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import clean_tweet_text_reference
from strisk.text import (
    CONTRACTIONS,
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    SentimentBucket,
    bucket_sentiment,
    clean_tweet_text,
    default_polarity,
)

tweet_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x024F), max_size=80
)


class TestCleanTweetText:
    def test_lowercases(self):
        assert clean_tweet_text("ACME Breached") == "acme breached"

    def test_urls_removed(self):
        assert clean_tweet_text("read http://phish.example/now please") == "read please"
        assert clean_tweet_text("see HTTPS://X.CO/a?b=1") == "see"

    def test_mentions_dropped_entirely(self):
        assert clean_tweet_text("hey @acme_support fix it") == "hey fix it"

    def test_hashtags_keep_their_word(self):
        assert clean_tweet_text("#Breach hits acme") == "breach hits acme"

    def test_contractions_expanded(self):
        assert clean_tweet_text("don't panic") == CONTRACTIONS["don't"] + " panic"
        assert clean_tweet_text("They'll regret it") == (
            CONTRACTIONS["they'll"] + " regret it"
        )

    def test_punctuation_stripped(self):
        assert clean_tweet_text("down!!! again...") == "down again"

    def test_whitespace_collapsed(self):
        assert clean_tweet_text("  a \t b \n c  ") == "a b c"

    def test_empty_input(self):
        assert clean_tweet_text("") == ""
        assert clean_tweet_text("@gone #") == ""

    @given(tweet_text)
    def test_idempotent(self, raw):
        once = clean_tweet_text(raw)
        assert clean_tweet_text(once) == once

    # Near-clean words: a stray capital, apostrophe, "www." or "://", a
    # mention or hashtag marker, a non-ASCII digit or a double space must
    # each send the text through the full pipeline.
    @given(
        st.lists(
            st.sampled_from(
                ["acme", "down", "it", "s", "don't", "www", "www.x", "http", "://",
                 "@a", "#b", "A", "7", "\u0663", "é", "", " ", "\n", "!"]
            ),
            max_size=6,
        ).map(" ".join)
    )
    @example("acme down")
    @example("Acme")
    @example("acme  down")
    @example("acme down ")
    @example("acme\n")
    @example("www.x")
    @example("http ://")
    @example("don't")
    @example("@a #b")
    @example("\u0663")
    def test_already_clean_shortcut_matches_full_pipeline(self, raw):
        assert clean_tweet_text(raw) == clean_tweet_text_reference(raw)

    @given(tweet_text)
    def test_output_is_single_spaced_alnum(self, raw):
        cleaned = clean_tweet_text(raw)
        assert cleaned == " ".join(cleaned.split())
        assert all(token.isalnum() for token in cleaned.split())


class TestBucketSentiment:
    @pytest.mark.parametrize(
        "polarity,bucket",
        [
            (-1.0, SentimentBucket.STRONG_NEGATIVE),
            (-0.75, SentimentBucket.STRONG_NEGATIVE),
            (-0.5, SentimentBucket.WEAK_NEGATIVE),
            (-0.3, SentimentBucket.WEAK_NEGATIVE),
            (-0.1, SentimentBucket.NEUTRAL),
            (0.0, SentimentBucket.NEUTRAL),
            (0.1, SentimentBucket.NEUTRAL),
            (0.3, SentimentBucket.WEAK_POSITIVE),
            (0.5, SentimentBucket.WEAK_POSITIVE),
            (0.75, SentimentBucket.STRONG_POSITIVE),
            (1.0, SentimentBucket.STRONG_POSITIVE),
        ],
    )
    def test_boundaries(self, polarity, bucket):
        assert bucket_sentiment(polarity) is bucket

    @pytest.mark.parametrize("polarity", [-1.0000001, 1.0000001, 2.0, -5.0, math.nan])
    def test_out_of_range_rejected(self, polarity):
        with pytest.raises(ValueError, match="polarity out of range"):
            bucket_sentiment(polarity)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_every_polarity_gets_exactly_one_bucket(self, polarity):
        bucket = bucket_sentiment(polarity)
        memberships = [
            -1.0 <= polarity < -0.5,
            -0.5 <= polarity < -0.1,
            -0.1 <= polarity <= 0.1,
            0.1 < polarity <= 0.5,
            0.5 < polarity <= 1.0,
        ]
        assert sum(memberships) == 1
        expected = [
            SentimentBucket.STRONG_NEGATIVE,
            SentimentBucket.WEAK_NEGATIVE,
            SentimentBucket.NEUTRAL,
            SentimentBucket.WEAK_POSITIVE,
            SentimentBucket.STRONG_POSITIVE,
        ][memberships.index(True)]
        assert bucket is expected


class TestDefaultPolarity:
    def test_balanced_counts(self):
        pos = sorted(POSITIVE_WORDS)[0]
        neg = sorted(NEGATIVE_WORDS)[0]
        assert "filler" not in POSITIVE_WORDS and "filler" not in NEGATIVE_WORDS
        text = f"{pos} {pos} {neg} filler filler"
        assert default_polarity(text) == pytest.approx((2 - 1) / 5)

    def test_empty_text_scores_zero(self):
        assert default_polarity("") == 0.0
        assert default_polarity("!!!") == 0.0

    def test_lexicon_free_text_scores_zero(self):
        assert default_polarity("the quarterly filing was submitted") == 0.0

    def test_cleaning_applied_before_scoring(self):
        pos = sorted(POSITIVE_WORDS)[0]
        assert default_polarity(f"#{pos.upper()}!!") == 1.0

    @given(tweet_text)
    def test_bounded(self, raw):
        assert -1.0 <= default_polarity(raw) <= 1.0
