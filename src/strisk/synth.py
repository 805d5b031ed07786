"""Synthetic corpus generation with controllable class signal.

The generator produces organizations, observations, tweets, and incident
records that parse through the normal featurization path, plus the
latent outcome for every organization. Signal strengths scale how far
victim distributions drift from the shared baseline per feature group;
at strength 0 the groups are statistically identical, which is what the
null-signal checks rely on. A noise fraction hides that many true
victims by withholding their incident records, so their observed label
comes out 0 while the ground truth remembers 1.

Distribution constants below are the documented shape of the corpus;
they are deliberately module-level so a config change cannot silently
alter what "baseline" means.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .features import FeatureVector
from .records import (
    SECTORS,
    IncidentRecord,
    ObservationRecord,
    OrganizationRecord,
    RecordError,
    TweetRecord,
    _field,
    _load,
    read_config,
    write_jsonl,
)

SIGNAL_GROUPS = ("technical", "social", "sector", "org_size")

# Unnamed groups in a partial signal dict keep these strengths.
DEFAULT_SIGNAL = {"technical": 1.0, "social": 1.0, "sector": 0.5, "org_size": 0.5}

# Table-shaped corpus constants: share of each sector, its victim rate,
# and its median organization size, in SECTORS order.
SECTOR_PERCENTS = (33.5, 14.5, 11.5, 9.5, 9.0, 8.0, 6.5, 4.5, 1.5, 0.5)
SECTOR_VICTIM_RATES = (0.10, 0.50, 0.23, 0.21, 0.48, 0.12, 0.48, 0.35, 0.275, 0.03)
SECTOR_MEDIAN_SIZE = (32, 16, 32, 32, 96, 32, 32, 40, 32, 32)

DEFAULT_SECTOR_MIX = tuple(p / sum(SECTOR_PERCENTS) for p in SECTOR_PERCENTS)

# Per-host daily-style rates for IP-backed observation kinds and the
# per-domain rate for spam listings; victims multiply the rate by
# (1 + TECHNICAL_BOOST * strength).
OBSERVATION_RATES = {
    "blacklist_ip": 0.04,
    "darknet_ip": 0.025,
    "open_port": 0.06,
    "expired_cert": 0.03,
}
SPAM_DOMAIN_RATE = 0.25
TECHNICAL_BOOST = 2.0

MEAN_TWEETS = 8.0
MEAN_RETWEETS = 1.5
MEAN_REPLIES = 0.8
MEAN_LIKES = 3.0
PHRASE_WEIGHTS = (0.45, 0.35, 0.20)

YEAR_START = datetime(2019, 1, 1, tzinfo=timezone.utc)
YEAR_SECONDS = 365 * 24 * 3600
_YEAR_START_S = int(YEAR_START.timestamp())

_ADJECTIVES = (
    "apex", "atlas", "beacon", "blue", "bright", "cedar", "crest", "delta",
    "ember", "falcon", "granite", "harbor", "iron", "keystone", "lumen",
    "meridian", "north", "orchid", "pioneer", "quartz", "summit", "tidal",
    "vertex", "willow", "zenith",
)
_NOUNS = (
    "analytics", "capital", "dynamics", "energy", "foods", "health",
    "industries", "labs", "logistics", "media", "mutual", "networks",
    "partners", "retail", "robotics", "security", "software", "solutions",
    "systems", "technologies", "therapeutics", "trading", "transit",
    "ventures", "works",
)
_SUFFIXES = ("Inc", "LLC", "Corp", "Ltd", "Co", "Group", "Holdings", "")

_NEUTRAL_PHRASES = (
    "quarterly report released today",
    "new office opening announced this week",
    "team attends the annual industry conference",
    "product update rolling out to customers",
    "weekly newsletter is out now",
)
_POSITIVE_PHRASES = (
    "great service and amazing support",
    "love the new product excellent work",
    "fantastic team wonderful experience overall",
    "impressive results and strong growth this year",
    "excellent upgrade very reliable platform",
)
_NEGATIVE_PHRASES = (
    "data breach exposed customer accounts",
    "hacked systems leaked internal records",
    "terrible outage and awful response times",
    "security incident compromised user passwords",
    "fraud warning over suspicious activity",
)


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Knobs for one synthetic corpus."""

    n_orgs: int
    negative_ratio: float = 4.0
    signal: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SIGNAL))
    noise_fraction: float = 0.0
    sector_mix: tuple[float, ...] = DEFAULT_SECTOR_MIX
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_orgs < 20:
            raise ValueError("n_orgs must be >= 20")
        if self.negative_ratio <= 0:
            raise ValueError("negative_ratio must be positive")
        if not 0.0 <= self.noise_fraction <= 0.5:
            raise ValueError("noise_fraction must be in [0, 0.5]")
        merged = dict(DEFAULT_SIGNAL)
        for group, strength in self.signal.items():
            if group not in merged:
                raise ValueError(f"unknown signal group {group!r}")
            if strength < 0:
                raise ValueError(f"signal strength for {group} must be >= 0")
            merged[group] = float(strength)
        object.__setattr__(self, "signal", merged)
        mix = tuple(float(p) for p in self.sector_mix)
        if len(mix) != len(SECTORS) or any(p < 0 for p in mix):
            raise ValueError("invalid probability vector")
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError("invalid probability vector")
        object.__setattr__(self, "sector_mix", mix)

    @property
    def n_positive(self) -> int:
        return round(self.n_orgs / (1.0 + self.negative_ratio))

    from_dict = classmethod(read_config)


@dataclass(frozen=True, slots=True)
class CorpusBundle:
    organizations: tuple[OrganizationRecord, ...]
    observations: tuple[ObservationRecord, ...]
    tweets: tuple[TweetRecord, ...]
    incidents: tuple[IncidentRecord, ...]
    ground_truth: dict[str, int]


def _block_prefix(index: int) -> str:
    """The "10.x.y." prefix of the index-th synthetic /27 block, the first
    of 10.x.y.0/24.

    There are 65,536 such blocks; past them ValueError, because wrapping
    around would give two organizations the same addresses.
    """
    high, low = divmod(index, 256)
    if not 0 <= high < 256:
        raise ValueError(f"synthetic address block {index} is past the 65,536 in 10.0.0.0/8")
    return f"10.{high}.{low}."


def _address_block(index: int) -> str:
    """The index-th synthetic /27 block in CIDR notation."""
    return f"{_block_prefix(index)}0/27"


def _block_hosts(index: int) -> list[str]:
    """The 30 host addresses of the index-th block, .1 to .30 (a /27 less
    its network and broadcast addresses), in ascending order."""
    prefix = _block_prefix(index)
    return [f"{prefix}{host}" for host in range(1, 31)]


def _timestamp(rng: np.random.Generator) -> datetime:
    offset = int(rng.integers(0, YEAR_SECONDS))
    return datetime.fromtimestamp(_YEAR_START_S + offset, tz=timezone.utc)


def _org_name(rng: np.random.Generator) -> str:
    adjective = _ADJECTIVES[int(rng.integers(0, len(_ADJECTIVES)))]
    noun = _NOUNS[int(rng.integers(0, len(_NOUNS)))]
    suffix = _SUFFIXES[int(rng.integers(0, len(_SUFFIXES)))]
    name = f"{adjective.title()} {noun.title()}"
    return f"{name} {suffix}".strip()


def _sector_for(rng: np.random.Generator, mix: Sequence[float], tilt: float) -> int:
    if tilt <= 0:
        weights = np.asarray(mix, dtype=np.float64)
    else:
        weights = np.asarray(mix) * (1.0 + 2.0 * tilt * np.asarray(SECTOR_VICTIM_RATES))
    weights = weights / weights.sum()
    return int(rng.choice(len(mix), p=weights))


def _choose_phrase(rng: np.random.Generator, negative_boost: float) -> str:
    neutral, positive, negative = PHRASE_WEIGHTS
    negative += negative_boost
    total = neutral + positive + negative
    draw = rng.random() * total
    if draw < neutral:
        pool = _NEUTRAL_PHRASES
    elif draw < neutral + positive:
        pool = _POSITIVE_PHRASES
    else:
        pool = _NEGATIVE_PHRASES
    return pool[int(rng.integers(0, len(pool)))]


def generate_corpus(config: GeneratorConfig) -> CorpusBundle:
    """Build a full record corpus with known latent labels.

    Exactly n_positive organizations are latent victims; a further
    floor(noise_fraction * n_positive) of them lose their incident
    record, so featurization will label them 0.
    """
    rng = np.random.default_rng(config.seed)
    n_orgs = config.n_orgs
    n_pos = config.n_positive
    latent = np.zeros(n_orgs, dtype=np.int64)
    latent[rng.permutation(n_orgs)[:n_pos]] = 1
    s_tech = config.signal["technical"]
    s_social = config.signal["social"]
    s_sector = config.signal["sector"]
    s_size = config.signal["org_size"]

    organizations: list[OrganizationRecord] = []
    observations: list[ObservationRecord] = []
    tweets: list[TweetRecord] = []
    incidents: list[IncidentRecord] = []
    ground_truth: dict[str, int] = {}

    block_cursor = 0
    for index in range(n_orgs):
        org_id = f"org-{index:05d}"
        is_victim = bool(latent[index])
        name = _org_name(rng)
        sector_id = _sector_for(
            rng, config.sector_mix, s_sector if is_victim else 0.0
        )
        median = SECTOR_MEDIAN_SIZE[sector_id]
        size_shift = 0.8 * s_size if is_victim else 0.0
        org_size = max(1, round(median * math.exp(rng.normal(size_shift, 0.75))))
        n_blocks = int(rng.integers(1, 3))
        block_ids = range(block_cursor, block_cursor + n_blocks)
        block_cursor += n_blocks
        n_domains = int(rng.integers(1, 4))
        slug = name.lower().replace(" ", "-")
        domains = tuple(f"{slug}-{d}.example.com" for d in range(n_domains))
        org = OrganizationRecord(
            org_id=org_id,
            name=name,
            sector=SECTORS[sector_id],
            org_size=org_size,
            ip_ranges=tuple(_address_block(b) for b in block_ids),
            domains=domains,
        )
        organizations.append(org)
        ground_truth[org_id] = int(is_victim)

        tech_multiplier = 1.0 + (TECHNICAL_BOOST * s_tech if is_victim else 0.0)
        address_pool = [host for b in block_ids for host in _block_hosts(b)]
        host_count = org.host_count
        for kind, rate in OBSERVATION_RATES.items():
            count = int(rng.poisson(host_count * rate * tech_multiplier))
            count = min(count, len(address_pool))
            if count == 0:
                continue
            picks = rng.choice(len(address_pool), size=count, replace=False)
            for pick in picks:
                observations.append(
                    ObservationRecord(
                        org_id=org_id,
                        kind=kind,
                        subject=address_pool[int(pick)],
                        timestamp=_timestamp(rng),
                        detail=f"synthetic {kind} sighting",
                    )
                )
        spam_count = min(
            int(rng.poisson(n_domains * SPAM_DOMAIN_RATE * tech_multiplier)),
            n_domains,
        )
        if spam_count:
            picks = rng.choice(n_domains, size=spam_count, replace=False)
            for pick in picks:
                observations.append(
                    ObservationRecord(
                        org_id=org_id,
                        kind="spam_domain",
                        subject=domains[int(pick)],
                        timestamp=_timestamp(rng),
                        detail="synthetic spam listing",
                    )
                )

        social_boost = s_social if is_victim else 0.0
        n_tweets = int(rng.poisson(MEAN_TWEETS * (1.0 + 0.5 * social_boost)))
        for _ in range(n_tweets):
            tweets.append(
                TweetRecord(
                    org_id=org_id,
                    text=_choose_phrase(rng, 0.6 * social_boost),
                    likes=int(rng.poisson(MEAN_LIKES * (1.0 + 0.3 * social_boost))),
                    retweets=int(rng.poisson(MEAN_RETWEETS * (1.0 + social_boost))),
                    replies=int(rng.poisson(MEAN_REPLIES * (1.0 + 1.5 * social_boost))),
                    account=f"user{int(rng.integers(0, 5000))}",
                    is_reply_to=bool(
                        rng.random() < min(0.95, 0.2 + 0.15 * social_boost)
                    ),
                    is_replied_to=bool(
                        rng.random() < min(0.95, 0.25 + 0.15 * social_boost)
                    ),
                    timestamp=_timestamp(rng),
                )
            )

    victim_ids = [organizations[i].org_id for i in range(n_orgs) if latent[i]]
    n_hidden = math.floor(config.noise_fraction * n_pos)
    hidden = set(
        victim_ids[int(i)]
        for i in rng.choice(len(victim_ids), size=n_hidden, replace=False)
    ) if n_hidden else set()
    by_id = {org.org_id: org for org in organizations}
    for org_id in victim_ids:
        if org_id in hidden:
            continue
        incident_day = date(2019, 1, 1).toordinal() + int(rng.integers(0, 365))
        incidents.append(
            IncidentRecord(
                org_id=org_id,
                name=by_id[org_id].name,
                date=date.fromordinal(incident_day).isoformat(),
                source="PRC" if rng.random() < 0.5 else "VCDB",
                breach_type="HACK",
            )
        )
    return CorpusBundle(
        organizations=tuple(organizations),
        observations=tuple(observations),
        tweets=tuple(tweets),
        incidents=tuple(incidents),
        ground_truth=ground_truth,
    )


def write_corpus(bundle: CorpusBundle, out_dir: str | Path) -> dict[str, Path]:
    """Write the four record files plus ground_truth.jsonl; returns paths."""
    out_dir = Path(out_dir)
    paths = {
        "organizations": out_dir / "organizations.jsonl",
        "observations": out_dir / "observations.jsonl",
        "tweets": out_dir / "tweets.jsonl",
        "incidents": out_dir / "incidents.jsonl",
        "ground_truth": out_dir / "ground_truth.jsonl",
    }
    write_jsonl(paths["organizations"], (r.to_dict() for r in bundle.organizations))
    write_jsonl(paths["observations"], (r.to_dict() for r in bundle.observations))
    write_jsonl(paths["tweets"], (r.to_dict() for r in bundle.tweets))
    write_jsonl(paths["incidents"], (r.to_dict() for r in bundle.incidents))
    write_jsonl(
        paths["ground_truth"],
        (
            {"org_id": org_id, "latent_label": label}
            for org_id, label in sorted(bundle.ground_truth.items())
        ),
    )
    return paths


def _ground_truth_entry(data: dict) -> tuple[str, int]:
    label = _field(data, "latent_label", int)
    if label not in (0, 1):
        raise RecordError(f"field 'latent_label' must be 0 or 1, got {label!r}")
    return _field(data, "org_id", str), label


def load_ground_truth(path: str | Path) -> dict[str, int]:
    """org_id -> latent label; any invalid record is a RecordError naming path:line."""
    return dict(_load(path, _ground_truth_entry))


def inject_label_noise(
    dataset: Sequence[FeatureVector],
    fraction: float,
    seed: int = 0,
    partition: tuple[int, int] | None = None,
) -> tuple[list[FeatureVector], tuple[str, ...]]:
    """Relabel floor(fraction * N_pos) positives as negatives.

    partition=(r, R) selects the r-th of R disjoint slices of a single
    seed-determined shuffle of the positives, so R successive calls
    relabel non-overlapping sets; without it the first slice is used.
    """
    positives = [i for i, p in enumerate(dataset) if p.label == 1]
    k = math.floor(fraction * len(positives))
    if k < 1:
        raise ValueError(
            f"fraction too small: {fraction} of {len(positives)} positives rounds to 0"
        )
    order = list(np.random.default_rng(seed).permutation(len(positives)))
    if partition is None:
        start = 0
    else:
        r, total = partition
        if not 0 <= r < total:
            raise ValueError(f"partition index {r} outside [0, {total})")
        start = r * k
        if start + k > len(positives):
            raise ValueError(
                f"partition {r}/{total} needs {start + k} positives, have {len(positives)}"
            )
    chosen = {positives[int(order[i])] for i in range(start, start + k)}
    relabeled = [
        profile.with_label(0) if i in chosen else profile
        for i, profile in enumerate(dataset)
    ]
    ids = tuple(dataset[i].org_id for i in sorted(chosen))
    return relabeled, ids
