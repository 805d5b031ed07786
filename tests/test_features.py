"""Feature extraction, profile assembly, and the CSV format."""
from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_profile
from strisk.features import (
    CSV_COLUMNS,
    FEATURES,
    SOCIAL_FEATURES,
    TECHNICAL_FEATURES,
    FeatureVector,
    TimeWindow,
    compute_social_features,
    compute_technical_features,
    featurize_corpus,
    parse_window,
    read_features_csv,
    write_features_csv,
)
from strisk.records import (
    SECTORS,
    IncidentRecord,
    ObservationRecord,
    OrganizationRecord,
    RecordError,
    TweetRecord,
)

TS = "2019-03-01T00:00:00+00:00"


def org(org_id="o1", ip_ranges=("10.0.0.0/30",), domains=("a.example.com", "b.example.com")):
    return OrganizationRecord(
        org_id=org_id,
        name="Acme",
        sector="finance",
        org_size=25,
        ip_ranges=ip_ranges,
        domains=domains,
    )


def obs(kind, subject, org_id="o1", ts=TS):
    return ObservationRecord(org_id=org_id, kind=kind, subject=subject, timestamp=ts)


def tweet(org_id="o1", text="acme is down", likes=0, retweets=0, replies=0,
          account="u1", is_reply_to=False, is_replied_to=False, ts=TS):
    return TweetRecord(
        org_id=org_id,
        text=text,
        likes=likes,
        retweets=retweets,
        replies=replies,
        account=account,
        is_reply_to=is_reply_to,
        is_replied_to=is_replied_to,
        timestamp=ts,
    )


class TestTechnicalFeatures:
    def test_distinct_subjects_counted_once(self):
        block = compute_technical_features(
            org(),
            [
                obs("blacklist_ip", "10.0.0.1"),
                obs("blacklist_ip", "10.0.0.1"),
                obs("blacklist_ip", "10.0.0.2"),
            ],
        )
        assert block["blacklist_count"] == 2.0
        assert block["blacklist_ratio"] == 2 / 4

    def test_ip_ratio_uses_address_count(self):
        block = compute_technical_features(org(), [obs("open_port", "10.0.0.3")])
        assert block["open_port_count"] == 1.0
        assert block["open_port_ratio"] == 1 / 4

    def test_spam_ratio_uses_domain_count(self):
        block = compute_technical_features(org(), [obs("spam_domain", "x.example.com")])
        assert block["spam_domain_count"] == 1.0
        assert block["spam_domain_ratio"] == 1 / 2

    def test_unobserved_kinds_are_zero(self):
        block = compute_technical_features(org(), [])
        assert block == dict.fromkeys(TECHNICAL_FEATURES, 0.0)

    def test_spam_with_no_domains_has_zero_ratio(self):
        block = compute_technical_features(
            org(domains=()), [obs("spam_domain", "x.example.com")]
        )
        assert block["spam_domain_count"] == 1.0
        assert block["spam_domain_ratio"] == 0.0

    def test_ip_observation_without_addresses_is_an_error(self):
        with pytest.raises(RecordError, match="no addresses"):
            compute_technical_features(
                org(ip_ranges=()), [obs("blacklist_ip", "10.0.0.1")]
            )

    def test_foreign_observation_rejected(self):
        with pytest.raises(RecordError, match="foreign observation"):
            compute_technical_features(org(), [obs("open_port", "10.0.0.1", org_id="o2")])


class TestSocialFeatures:
    def fixture_tweets(self):
        return [
            tweet(likes=3, retweets=2, replies=1, account="u1", is_replied_to=True),
            tweet(likes=2, retweets=2, replies=1, account="u2", is_reply_to=True),
            tweet(likes=2, retweets=1, account="u1"),
            tweet(likes=1, retweets=1, account="u3", is_reply_to=True),
        ]

    def test_engagement_ratios(self):
        block = compute_social_features(org(), self.fixture_tweets(), lambda t: 0.0)
        assert block["mentions"] == 4.0
        assert block["unique_accounts"] == 3.0
        assert block["retweets"] == 6.0
        assert block["replies"] == 2.0
        assert block["spreadability"] == 1.5
        assert block["debatability"] == 3.0
        assert block["likes_ratio"] == 2.0
        assert block["reply_ratio"] == 0.5
        assert block["is_reply_to_ratio"] == 0.5
        assert block["replied_to_ratio"] == 0.25

    def test_sentiment_buckets_and_average(self):
        polarities = iter([-0.8, -0.2, 0.0, 0.6])
        block = compute_social_features(
            org(), self.fixture_tweets(), lambda t: next(polarities)
        )
        assert block["strong_negative"] == 1.0
        assert block["weak_negative"] == 1.0
        assert block["neutral"] == 1.0
        assert block["weak_positive"] == 0.0
        assert block["strong_positive"] == 1.0
        assert block["avg_polarity"] == pytest.approx((-0.8 - 0.2 + 0.0 + 0.6) / 4)

    def test_no_tweets_is_all_zero(self):
        block = compute_social_features(org(), [])
        assert block == dict.fromkeys(SOCIAL_FEATURES, 0.0)

    def test_zero_replies_collapses_debatability(self):
        block = compute_social_features(
            org(), [tweet(retweets=3), tweet(retweets=1)], lambda t: 0.0
        )
        assert block["debatability"] == 0.0

    def test_foreign_tweet_rejected(self):
        with pytest.raises(RecordError, match="foreign tweet"):
            compute_social_features(org(), [tweet(org_id="o2")])


class TestTimeWindow:
    def test_parse_and_contains(self):
        window = parse_window("2019-01-01:2019-12-31")
        assert window.contains(_ts("2019-01-01T00:00:00+00:00"))
        assert window.contains(_ts("2019-12-31T23:59:59+00:00"))
        assert not window.contains(_ts("2020-01-01T00:00:00+00:00"))
        assert not window.contains(_ts("2018-12-31T23:59:59+00:00"))

    def test_bad_specs_rejected(self):
        for spec in ("2019-01-01", "2019-13-01:2019-12-31", "maybe:never", ""):
            with pytest.raises(ValueError):
                parse_window(spec)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            parse_window("2019-12-31:2019-01-01")


def _ts(value):
    from datetime import datetime

    return datetime.fromisoformat(value)


class TestFeaturizeCorpus:
    def corpus(self):
        orgs = [org("o1"), org("o2")]
        observations = [obs("blacklist_ip", "10.0.0.1", org_id="o1")]
        tweets = [tweet(org_id="o2", likes=1)]
        incidents = [
            IncidentRecord(org_id="o1", name="Acme", date="2019-05-01", source="PRC")
        ]
        return orgs, observations, tweets, incidents

    def test_labels_follow_incidents(self):
        profiles = featurize_corpus(*self.corpus())
        assert [p.org_id for p in profiles] == ["o1", "o2"]
        assert [p.label for p in profiles] == [1, 0]

    def test_latent_labels_attached(self):
        orgs, observations, tweets, incidents = self.corpus()
        profiles = featurize_corpus(
            orgs, observations, tweets, incidents, latent_labels={"o1": 1, "o2": 1}
        )
        assert [p.latent_label for p in profiles] == [1, 1]

    def test_window_filters_records(self):
        orgs, _, _, incidents = self.corpus()
        observations = [
            obs("blacklist_ip", "10.0.0.1", org_id="o1", ts="2018-06-01T00:00:00+00:00"),
            obs("blacklist_ip", "10.0.0.2", org_id="o1", ts="2019-06-01T00:00:00+00:00"),
        ]
        profiles = featurize_corpus(
            orgs, observations, [], incidents, window=parse_window("2019-01-01:2019-12-31")
        )
        assert profiles[0].values[FEATURES.index("blacklist_count")] == 1.0

    def test_duplicate_tweets_collapse(self):
        orgs, observations, _, incidents = self.corpus()
        twice = [tweet(org_id="o2", likes=5), tweet(org_id="o2", likes=5)]
        profiles = featurize_corpus(orgs, observations, twice, incidents)
        assert profiles[1].values[FEATURES.index("mentions")] == 1.0

    def test_same_text_different_account_kept(self):
        orgs, observations, _, incidents = self.corpus()
        pair = [tweet(org_id="o2", account="u1"), tweet(org_id="o2", account="u2")]
        profiles = featurize_corpus(orgs, observations, pair, incidents)
        assert profiles[1].values[FEATURES.index("mentions")] == 2.0

    def test_unknown_references_rejected(self):
        orgs, observations, tweets, incidents = self.corpus()
        with pytest.raises(RecordError, match="unknown org"):
            featurize_corpus(orgs, [obs("open_port", "10.0.0.9", org_id="ghost")], tweets, incidents)
        with pytest.raises(RecordError, match="unknown org"):
            featurize_corpus(orgs, observations, [tweet(org_id="ghost")], incidents)
        with pytest.raises(RecordError, match="unknown org"):
            featurize_corpus(
                orgs,
                observations,
                tweets,
                [IncidentRecord(org_id="ghost", name="?", date="2019-01-01", source="PRC")],
            )

    def test_duplicate_org_ids_rejected(self):
        with pytest.raises(RecordError, match="duplicate org_id"):
            featurize_corpus([org("o1"), org("o1")], [], [], [])


class TestFeatureVector:
    def test_values_follow_features_order(self):
        orgs, observations, tweets, incidents = TestFeaturizeCorpus().corpus()
        profiles = featurize_corpus(orgs, observations, tweets, incidents)
        assert FEATURES == TECHNICAL_FEATURES + SOCIAL_FEATURES
        for record, profile in zip(orgs, profiles):
            technical = compute_technical_features(
                record, [o for o in observations if o.org_id == record.org_id]
            )
            social = compute_social_features(
                record, [t for t in tweets if t.org_id == record.org_id]
            )
            assert len(profile.values) == len(TECHNICAL_FEATURES) + len(SOCIAL_FEATURES)
            assert profile.values == tuple(technical[n] for n in TECHNICAL_FEATURES) + tuple(
                social[n] for n in SOCIAL_FEATURES
            )

    def test_label_validated(self):
        with pytest.raises(ValueError):
            make_profile("o1", label=2)

    def test_values_of_wrong_length_rejected(self):
        for width in (0, len(FEATURES) - 1, len(FEATURES) + 1):
            with pytest.raises(ValueError, match=f"values must hold {len(FEATURES)} features"):
                FeatureVector(
                    org_id="o1", values=(0.0,) * width, sector="finance", org_size=5, label=0
                )

    def test_with_label_keeps_everything_else(self):
        profile = make_profile("o1", label=0, latent_label=1)
        flipped = profile.with_label(1)
        assert flipped.label == 1
        assert flipped.org_id == profile.org_id
        assert flipped.latent_label == profile.latent_label
        assert flipped.values == profile.values


# Signed zeros, subnormals, the largest finite magnitudes and neighbouring floats.
csv_value = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
         1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.1, math.nextafter(0.1, 1.0)]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)

csv_profile = st.builds(
    FeatureVector,
    org_id=st.text("abcxyz-_019", min_size=1, max_size=8),
    values=st.lists(csv_value, min_size=len(FEATURES), max_size=len(FEATURES)).map(tuple),
    sector=st.sampled_from(SECTORS),
    org_size=st.integers(1, 10**12),
    label=st.integers(0, 1),
    latent_label=st.sampled_from([None, 0, 1]),
)


class TestCsvRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(csv_profile, min_size=1, max_size=5))
    def test_drawn_values_survive_bit_for_bit(self, profiles):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_features_csv(path, profiles)
            loaded = read_features_csv(path)
            assert loaded == profiles
            for before, after in zip(profiles, loaded):
                assert [v.hex() for v in after.values] == [v.hex() for v in before.values]
            again = Path(tmp) / "again.csv"
            write_features_csv(again, loaded)
            assert again.read_bytes() == path.read_bytes()

    def test_floats_survive_exactly(self, tmp_path):
        profiles = make_dataset(6, 6, seed=3)
        path = tmp_path / "features.csv"
        write_features_csv(path, profiles)
        loaded = read_features_csv(path)
        assert len(loaded) == len(profiles)
        for before, after in zip(profiles, loaded):
            assert after.org_id == before.org_id
            assert after.label == before.label
            assert after.sector == before.sector
            assert after.org_size == before.org_size
            assert after.values == before.values

    def test_latent_column_only_when_present(self, tmp_path):
        plain = tmp_path / "plain.csv"
        write_features_csv(plain, [make_profile("o1")])
        assert "latent_label" not in plain.read_text().splitlines()[0]

        latent = tmp_path / "latent.csv"
        write_features_csv(latent, [make_profile("o1", latent_label=1)])
        header = latent.read_text().splitlines()[0]
        assert header.split(",") == list(CSV_COLUMNS) + ["latent_label"]
        assert read_features_csv(latent)[0].latent_label == 1

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("org_id,nope\no1,1\n")
        with pytest.raises(RecordError, match="bad.csv"):
            read_features_csv(path)

    def test_short_row_rejected(self, tmp_path):
        good = tmp_path / "good.csv"
        write_features_csv(good, [make_profile("o1")])
        lines = good.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text(lines[0] + "\n" + "o1,1,2\n")
        with pytest.raises(RecordError, match=r"bad\.csv:2"):
            read_features_csv(bad)
