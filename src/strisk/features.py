"""Socio-technical feature extraction for organizations.

Each organization is summarized as a fixed-width vector: five
misconfiguration kinds as distinct-subject counts plus exposure ratios,
sixteen social signals derived from tweet engagement and sentiment, the
sector, the organization size, and the (possibly noisy) breach label.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .records import (
    OBSERVATION_KINDS,
    SECTORS,
    IncidentRecord,
    ObservationRecord,
    OrganizationRecord,
    RecordError,
    TweetRecord,
    check_org_id,
    check_org_size,
)
from .text import SentimentBucket, bucket_sentiment, clean_tweet_text, default_polarity

TECHNICAL_FEATURES: tuple[str, ...] = (
    "blacklist_count",
    "blacklist_ratio",
    "darknet_count",
    "darknet_ratio",
    "open_port_count",
    "open_port_ratio",
    "expired_cert_count",
    "expired_cert_ratio",
    "spam_domain_count",
    "spam_domain_ratio",
)

SOCIAL_FEATURES: tuple[str, ...] = (
    "mentions",
    "unique_accounts",
    "retweets",
    "replies",
    "spreadability",
    "debatability",
    "reply_ratio",
    "is_reply_to_ratio",
    "replied_to_ratio",
    "likes_ratio",
    "strong_negative",
    "weak_negative",
    "neutral",
    "weak_positive",
    "strong_positive",
    "avg_polarity",
)

# The one feature order: FeatureVector.values, the features.csv columns
# and the encoded matrix all follow it.
FEATURES: tuple[str, ...] = TECHNICAL_FEATURES + SOCIAL_FEATURES

_KIND_TO_PREFIX = {
    "blacklist_ip": "blacklist",
    "darknet_ip": "darknet",
    "open_port": "open_port",
    "expired_cert": "expired_cert",
    "spam_domain": "spam_domain",
}


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """One organization's full profile: features, sector, size, label.

    ``values`` holds one number per name in FEATURES, in that order.
    latent_label is carried only by synthetic corpora where the true
    pre-noise outcome is known; observed corpora leave it None.
    """

    org_id: str
    values: tuple[float, ...]
    sector: str
    org_size: int
    label: int
    latent_label: int | None = None

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1: {self.label!r}")
        if self.latent_label not in (None, 0, 1):
            raise ValueError(f"latent_label must be 0, 1 or None: {self.latent_label!r}")
        if len(self.values) != len(FEATURES):
            raise ValueError(
                f"values must hold {len(FEATURES)} features, got {len(self.values)}"
            )

    def with_label(self, label: int) -> FeatureVector:
        return replace(self, label=label)


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Inclusive date window; records outside it are dropped before featurizing."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("window start is after its end")

    def contains(self, instant: datetime) -> bool:
        day = instant.astimezone(timezone.utc).date()
        return self.start <= day <= self.end


def parse_window(spec: str) -> TimeWindow:
    """Parse "YYYY-MM-DD:YYYY-MM-DD" into an inclusive TimeWindow."""
    head, sep, tail = spec.partition(":")
    if not sep:
        raise ValueError(f"window must look like YYYY-MM-DD:YYYY-MM-DD, got {spec!r}")
    try:
        return TimeWindow(start=date.fromisoformat(head), end=date.fromisoformat(tail))
    except ValueError as exc:
        raise ValueError(f"bad window {spec!r}: {exc}") from exc


def compute_technical_features(
    org: OrganizationRecord, obs: Sequence[ObservationRecord]
) -> dict[str, float]:
    """Count distinct observed subjects per kind and divide by exposure.

    IP-backed kinds use the address count of the organization's CIDR
    blocks as denominator; spam domains use the number of registered
    domains. A kind with no observations contributes zeros, and a missing
    denominator only matters once there is something to divide.
    """
    subjects: dict[str, set[str]] = {kind: set() for kind in OBSERVATION_KINDS}
    for record in obs:
        if record.org_id != org.org_id:
            raise RecordError(
                f"foreign observation: {record.org_id!r} does not belong to {org.org_id!r}"
            )
        subjects[record.kind].add(record.subject)
    host_count = org.host_count
    domain_count = len(org.domains)
    values: dict[str, float] = {}
    for kind in OBSERVATION_KINDS:
        count = len(subjects[kind])
        denominator = domain_count if kind == "spam_domain" else host_count
        if count and denominator == 0 and kind != "spam_domain":
            raise RecordError(
                f"org {org.org_id!r} has {kind} observations but no addresses"
            )
        prefix = _KIND_TO_PREFIX[kind]
        values[f"{prefix}_count"] = float(count)
        values[f"{prefix}_ratio"] = count / denominator if denominator else 0.0
    return values


def compute_social_features(
    org: OrganizationRecord,
    tweets: Sequence[TweetRecord],
    polarity_fn: Callable[[str], float] = default_polarity,
) -> dict[str, float]:
    """Aggregate tweet engagement and sentiment for one organization.

    spreadability is retweets per mention, debatability retweets per
    reply, and the likes ratio likes per mention; every ratio collapses
    to 0 when its denominator is empty.
    """
    for record in tweets:
        if record.org_id != org.org_id:
            raise RecordError(
                f"foreign tweet: {record.org_id!r} does not belong to {org.org_id!r}"
            )
    mentions = len(tweets)
    if mentions == 0:
        return dict.fromkeys(SOCIAL_FEATURES, 0.0)
    total_retweets = sum(t.retweets for t in tweets)
    total_replies = sum(t.replies for t in tweets)
    total_likes = sum(t.likes for t in tweets)
    buckets = {bucket: 0 for bucket in SentimentBucket}
    polarity_sum = 0.0
    for record in tweets:
        polarity = polarity_fn(clean_tweet_text(record.text))
        buckets[bucket_sentiment(polarity)] += 1
        polarity_sum += polarity
    return {
        "mentions": float(mentions),
        "unique_accounts": float(len({t.account for t in tweets})),
        "retweets": float(total_retweets),
        "replies": float(total_replies),
        "spreadability": total_retweets / mentions,
        "debatability": total_retweets / total_replies if total_replies else 0.0,
        "reply_ratio": total_replies / mentions,
        "is_reply_to_ratio": sum(t.is_reply_to for t in tweets) / mentions,
        "replied_to_ratio": sum(t.is_replied_to for t in tweets) / mentions,
        "likes_ratio": total_likes / mentions,
        "strong_negative": float(buckets[SentimentBucket.STRONG_NEGATIVE]),
        "weak_negative": float(buckets[SentimentBucket.WEAK_NEGATIVE]),
        "neutral": float(buckets[SentimentBucket.NEUTRAL]),
        "weak_positive": float(buckets[SentimentBucket.WEAK_POSITIVE]),
        "strong_positive": float(buckets[SentimentBucket.STRONG_POSITIVE]),
        "avg_polarity": polarity_sum / mentions,
    }


def _dedupe_tweets(tweets: Iterable[TweetRecord]) -> list[TweetRecord]:
    seen: set[tuple] = set()
    unique: list[TweetRecord] = []
    for record in tweets:
        key = (record.org_id, record.account, record.timestamp, record.text)
        if key in seen:
            continue
        seen.add(key)
        unique.append(record)
    return unique


def featurize_corpus(
    organizations: Sequence[OrganizationRecord],
    observations: Sequence[ObservationRecord],
    tweets: Sequence[TweetRecord],
    incidents: Sequence[IncidentRecord],
    window: TimeWindow | None = None,
    polarity_fn: Callable[[str], float] = default_polarity,
    latent_labels: Mapping[str, int] | None = None,
) -> list[FeatureVector]:
    """Build one FeatureVector per organization, in input order.

    Labels come from incident presence: any incident for an org marks it
    a victim. Records referencing unknown organizations are an input
    error, not something to skip silently. Tweets are de-duplicated on
    (org, account, timestamp, text) because the same post can surface in
    several collection queries. Latent labels, when given, must cover
    every organization and name no other.
    """
    by_id = {org.org_id: org for org in organizations}
    if len(by_id) != len(organizations):
        raise RecordError("duplicate org_id in organizations")
    obs_by_org: dict[str, list[ObservationRecord]] = {oid: [] for oid in by_id}
    for record in observations:
        if record.org_id not in by_id:
            raise RecordError(f"observation references unknown org {record.org_id!r}")
        if window is None or window.contains(record.timestamp):
            obs_by_org[record.org_id].append(record)
    tweets_by_org: dict[str, list[TweetRecord]] = {oid: [] for oid in by_id}
    for record in _dedupe_tweets(tweets):
        if record.org_id not in by_id:
            raise RecordError(f"tweet references unknown org {record.org_id!r}")
        if window is None or window.contains(record.timestamp):
            tweets_by_org[record.org_id].append(record)
    victims: set[str] = set()
    for incident in incidents:
        if incident.org_id not in by_id:
            raise RecordError(f"incident references unknown org {incident.org_id!r}")
        victims.add(incident.org_id)
    if latent_labels is not None:
        for org_id in by_id:
            if org_id not in latent_labels:
                raise RecordError(f"ground truth lacks org {org_id!r}")
        for org_id in latent_labels:
            if org_id not in by_id:
                raise RecordError(f"ground truth references unknown org {org_id!r}")
    profiles: list[FeatureVector] = []
    for org in organizations:
        features = compute_technical_features(org, obs_by_org[org.org_id])
        features.update(
            compute_social_features(org, tweets_by_org[org.org_id], polarity_fn)
        )
        profiles.append(
            FeatureVector(
                org_id=org.org_id,
                values=tuple(features[name] for name in FEATURES),
                sector=org.sector,
                org_size=org.org_size,
                label=int(org.org_id in victims),
                latent_label=None if latent_labels is None else latent_labels[org.org_id],
            )
        )
    return profiles


CSV_COLUMNS: tuple[str, ...] = ("org_id",) + FEATURES + ("sector", "org_size", "label")


def write_features_csv(path: str | Path, profiles: Sequence[FeatureVector]) -> None:
    """Write profiles in the documented fixed column order.

    Floats are rendered with repr so a rewrite of identical profiles is
    byte-identical; a latent-label column is appended only when at least
    one profile carries one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with_latent = any(p.latent_label is not None for p in profiles)
    columns = CSV_COLUMNS + (("latent_label",) if with_latent else ())
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for profile in profiles:
            row = [profile.org_id]
            row.extend(map(repr, profile.values))
            row.extend([profile.sector, str(profile.org_size), str(profile.label)])
            if with_latent:
                row.append("" if profile.latent_label is None else str(profile.latent_label))
            writer.writerow(row)


# Characters of a number cell: signs, ASCII digits, points and letters
# (exponents, nan, inf). int() and float() also read underscores,
# surrounding whitespace and non-ASCII digits, which no written cell holds.
_NUMERAL = re.compile(r"[-+.0-9A-Za-z]*")
_NUMBER_COLUMNS: tuple[str, ...] = FEATURES + ("org_size", "label", "latent_label")


def _profile_from_row(row: list[str]) -> FeatureVector:
    """One profile from a row of CSV_COLUMNS, then an optional latent label."""
    end = 1 + len(FEATURES)
    numbers = row[1:end]
    sector, org_size, label, *latent = row[end:]
    # One match of the joined cells per row; a failure names the first bad cell.
    numerals = (*numbers, org_size, label, *latent)
    if not _NUMERAL.fullmatch("".join(numerals)):
        cell = next(i for i, text in enumerate(numerals) if not _NUMERAL.fullmatch(text))
        raise ValueError(f"{_NUMBER_COLUMNS[cell]} is not a plain number: {numerals[cell]!r}")
    values = tuple(map(float, numbers))
    # A sum of finite values is finite unless it overflows, so the values
    # are tested one by one only when the sum is not.
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        cell = 1 + list(map(math.isfinite, values)).index(False)
        raise ValueError(f"non-finite {CSV_COLUMNS[cell]}: {row[cell]!r}")
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    return FeatureVector(
        org_id=check_org_id(row[0]),
        values=values,
        sector=sector,
        org_size=check_org_size(int(org_size)),
        label=int(label),
        latent_label=int(latent[0]) if latent and latent[0] != "" else None,
    )


def read_features_csv(path: str | Path) -> list[FeatureVector]:
    path = Path(path)
    profiles: list[FeatureVector] = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise RecordError(f"{path}: empty features file")
            with_latent = header == list(CSV_COLUMNS + ("latent_label",))
            if not with_latent and header != list(CSV_COLUMNS):
                raise RecordError(f"{path}: unexpected feature columns {header!r}")
            expected = len(CSV_COLUMNS) + (1 if with_latent else 0)
            # A row's first line is one past the lines read before it; quoted line feeds span lines.
            for line_number, row in zip(iter(lambda: reader.line_num + 1, None), reader):
                if len(row) != expected:
                    raise RecordError(f"{path}:{line_number}: expected {expected} fields")
                try:
                    profiles.append(_profile_from_row(row))
                except ValueError as exc:
                    raise RecordError(f"{path}:{line_number}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded in chunks, so no line is named
            raise RecordError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return profiles
