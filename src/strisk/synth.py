"""Synthetic corpus generation with controllable class signal.

The generator produces organizations, observations, tweets, and incident
records that parse through the normal featurization path, plus the
latent outcome for every organization. Signal strengths scale how far
victim distributions drift from the shared baseline per feature group;
at strength 0 the groups are statistically identical, which is what the
null-signal checks rely on. A noise fraction hides that many true
victims by withholding their incident records, so their observed label
comes out 0 while the ground truth remembers 1.

Each quantity is drawn once for its whole population from one seeded
numpy generator: a field of every organization, the observation count
of every (organization, kind) cell, a field of every tweet, every
timestamp. Records are then built from those values, unchecked: the
record rules apply when the written files are read back. Observations
and tweets fall in the 2019 observation year and incidents in 2020, so
every feature predates the breach it predicts.

Distribution constants below are the documented shape of the corpus;
they are deliberately module-level so a config change cannot silently
alter what "baseline" means.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Annotated, Literal, Sequence

import numpy as np

from .features import FeatureVector
from .records import (
    SECTORS,
    Bound,
    IncidentRecord,
    ObservationRecord,
    OrganizationRecord,
    Positive,
    Seed,
    TweetRecord,
    _load,
    check_bounds,
    read_config,
    read_fields,
    write_jsonl,
)

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

# Observations and tweets fall in the observation year; incidents in the
# year after it.
YEAR_START = datetime(2019, 1, 1, tzinfo=timezone.utc)
YEAR_SECONDS = 365 * 24 * 3600
_YEAR_START_S = int(YEAR_START.timestamp())
INCIDENT_YEAR_START = date(2020, 1, 1)
INCIDENT_YEAR_DAYS = 366

# A synthetic /27 block holds 32 addresses; its usable hosts are those
# less the network and broadcast addresses.
ADDRESSES_PER_BLOCK = 32
HOSTS_PER_BLOCK = 30

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
# Tweet tones in PHRASE_WEIGHTS order.
_PHRASES = (_NEUTRAL_PHRASES, _POSITIVE_PHRASES, _NEGATIVE_PHRASES)


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Knobs for one synthetic corpus."""

    n_orgs: Annotated[int, Bound(20)]
    negative_ratio: Positive = 4.0
    signal: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SIGNAL))
    noise_fraction: Annotated[float, Bound(0, 0.5)] = 0.0
    sector_mix: tuple[float, ...] = DEFAULT_SECTOR_MIX
    seed: Seed = 0

    def __post_init__(self) -> None:
        check_bounds(self)
        merged = dict(DEFAULT_SIGNAL)
        for group, strength in self.signal.items():
            if group not in merged:
                raise ValueError(f"unknown signal group {group!r}")
            if strength < 0:
                raise ValueError(f"signal strength for {group} must be >= 0")
            merged[group] = float(strength)
        object.__setattr__(self, "signal", merged)
        mix = tuple(float(p) for p in self.sector_mix)
        if len(mix) != len(SECTORS) or any(p < 0 for p in mix) or abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError("invalid probability vector")
        object.__setattr__(self, "sector_mix", mix)

    @property
    def n_positive(self) -> int:
        return round(self.n_orgs / (1.0 + self.negative_ratio))

    from_dict = classmethod(read_config)


@dataclass(frozen=True, slots=True)
class CorpusBundle:
    organizations: Sequence[OrganizationRecord]
    observations: Sequence[ObservationRecord]
    tweets: Sequence[TweetRecord]
    incidents: Sequence[IncidentRecord]
    ground_truth: dict[str, int] | None


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


def _block_host(index: int, offset: int) -> str:
    """Host address ``offset`` of the index-th block: offsets 0 to
    HOSTS_PER_BLOCK - 1 are .1 to .30, in ascending order."""
    return f"{_block_prefix(index)}{offset + 1}"


def _inverse_cdf(weights: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The index each uniform draw in [0, 1) selects when index i has
    probability weights[i] / sum(weights); a zero weight is never selected."""
    cdf = np.cumsum(weights)
    return np.searchsorted(cdf / cdf[-1], draws, side="right")


def _distinct_picks(
    rng: np.random.Generator, counts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """counts[i] distinct integers below sizes[i] for every cell i, each
    count at most its size: (cell, pick) arrays with one entry per pick,
    ordered by cell.

    Every pick is drawn uniformly, and a pick that repeats an earlier one
    of its cell is drawn again until none does. Relabelling a cell's
    integers leaves that process unchanged, so each cell gets a uniform
    random subset, as rng.choice(size, count, replace=False) would, while
    every array holds at most one entry per pick.
    """
    cells = np.repeat(np.arange(len(counts)), counts)
    picks = rng.integers(0, sizes[cells])
    starts = np.cumsum(counts) - counts
    dirty = np.flatnonzero(counts > 1)
    while dirty.size:
        # The positions of the dirty cells' picks, then those sorted by (cell, pick).
        n = counts[dirty]
        at = np.repeat(starts[dirty] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        at = at[np.lexsort((picks[at], cells[at]))]
        repeated = at[1:][(cells[at[1:]] == cells[at[:-1]]) & (picks[at[1:]] == picks[at[:-1]])]
        picks[repeated] = rng.integers(0, sizes[cells[repeated]])
        dirty = np.unique(cells[repeated])
    return cells, picks


def generate_corpus(config: GeneratorConfig) -> CorpusBundle:
    """Build a full record corpus with known latent labels.

    Exactly n_positive organizations are latent victims; a further
    floor(noise_fraction * n_positive) of them lose their incident
    record, so featurization will label them 0. Each quantity is drawn
    once for its whole population, in the order below, and the records
    are built from the drawn values.
    """
    rng = np.random.default_rng(config.seed)
    n_orgs = config.n_orgs
    n_pos = config.n_positive
    victim = np.zeros(n_orgs, dtype=bool)
    victim[rng.permutation(n_orgs)[:n_pos]] = True
    signal = config.signal

    # Organizations: name parts, sector, size, address blocks, domains.
    adjectives = rng.integers(0, len(_ADJECTIVES), n_orgs).tolist()
    nouns = rng.integers(0, len(_NOUNS), n_orgs).tolist()
    suffixes = rng.integers(0, len(_SUFFIXES), n_orgs).tolist()
    mix = np.asarray(config.sector_mix)
    tilted = mix * (1.0 + 2.0 * signal["sector"] * np.asarray(SECTOR_VICTIM_RATES))
    sector_draws = rng.random(n_orgs)
    sectors = np.where(victim, _inverse_cdf(tilted, sector_draws), _inverse_cdf(mix, sector_draws))
    size_shift = np.where(victim, 0.8 * signal["org_size"], 0.0)
    scale = np.exp(rng.normal(size_shift, 0.75))
    org_sizes = np.maximum(1, np.rint(np.asarray(SECTOR_MEDIAN_SIZE)[sectors] * scale))
    n_blocks = rng.integers(1, 3, n_orgs)
    n_domains = rng.integers(1, 4, n_orgs)

    org_ids = [f"org-{index:05d}" for index in range(n_orgs)]
    first_blocks = np.cumsum(n_blocks) - n_blocks
    organizations = []
    for org_id, a, b, c, sector, size, first, blocks, domains in zip(
        org_ids, adjectives, nouns, suffixes, sectors.tolist(), org_sizes.astype(np.int64).tolist(),
        first_blocks.tolist(), n_blocks.tolist(), n_domains.tolist(),
    ):
        name = f"{_ADJECTIVES[a].title()} {_NOUNS[b].title()} {_SUFFIXES[c]}".strip()
        slug = name.lower().replace(" ", "-")
        organizations.append(
            OrganizationRecord(
                org_id=org_id,
                name=name,
                sector=SECTORS[sector],
                org_size=size,
                ip_ranges=tuple(_address_block(block) for block in range(first, first + blocks)),
                domains=tuple(f"{slug}-{d}.example.com" for d in range(domains)),
            )
        )

    # Observations: a count per (org, kind) cell, then distinct subjects
    # from the org's hosts (IP kinds) or domains (spam listings).
    kinds = (*OBSERVATION_RATES, "spam_domain")
    exposure = np.column_stack([ADDRESSES_PER_BLOCK * n_blocks] * len(OBSERVATION_RATES) + [n_domains])
    rates = np.array([*OBSERVATION_RATES.values(), SPAM_DOMAIN_RATE])
    tech_multiplier = np.where(victim, 1.0 + TECHNICAL_BOOST * signal["technical"], 1.0)
    pools = np.column_stack([HOSTS_PER_BLOCK * n_blocks] * len(OBSERVATION_RATES) + [n_domains])
    counts = np.minimum(rng.poisson(exposure * rates * tech_multiplier[:, None]), pools)
    cells, picks = _distinct_picks(rng, counts.ravel(), pools.ravel())
    obs_orgs, obs_kinds = np.divmod(cells, len(kinds))
    blocks = first_blocks[obs_orgs] + picks // HOSTS_PER_BLOCK

    # Tweets: a count per org, then one array per field over all tweets.
    social = np.where(victim, signal["social"], 0.0)
    tweet_orgs = np.repeat(np.arange(n_orgs), rng.poisson(MEAN_TWEETS * (1.0 + 0.5 * social)))
    boost = social[tweet_orgs]
    n_tweets = len(tweet_orgs)
    neutral, positive, negative = PHRASE_WEIGHTS
    tone_draws = rng.random(n_tweets) * (neutral + positive + negative + 0.6 * boost)
    tones = np.searchsorted([neutral, neutral + positive], tone_draws, side="right")
    phrases = rng.integers(0, np.array([len(pool) for pool in _PHRASES])[tones])
    likes = rng.poisson(MEAN_LIKES * (1.0 + 0.3 * boost))
    retweets = rng.poisson(MEAN_RETWEETS * (1.0 + boost))
    replies = rng.poisson(MEAN_REPLIES * (1.0 + 1.5 * boost))
    accounts = rng.integers(0, 5000, n_tweets)
    is_reply_to = rng.random(n_tweets) < np.minimum(0.95, 0.2 + 0.15 * boost)
    is_replied_to = rng.random(n_tweets) < np.minimum(0.95, 0.25 + 0.15 * boost)

    # Every observation and tweet time, in the observation year.
    stamps = [
        datetime.fromtimestamp(_YEAR_START_S + offset, tz=timezone.utc)
        for offset in rng.integers(0, YEAR_SECONDS, len(cells) + n_tweets).tolist()
    ]

    details = [f"synthetic {kind} sighting" for kind in OBSERVATION_RATES] + ["synthetic spam listing"]
    observations = [
        ObservationRecord(
            org_id=org_ids[org],
            kind=kinds[kind],
            subject=(
                _block_host(block, pick % HOSTS_PER_BLOCK)
                if kind < len(OBSERVATION_RATES)
                else organizations[org].domains[pick]
            ),
            timestamp=stamp,
            detail=details[kind],
        )
        for org, kind, block, pick, stamp in zip(
            obs_orgs.tolist(), obs_kinds.tolist(), blocks.tolist(), picks.tolist(), stamps
        )
    ]
    tweets = [
        TweetRecord(
            org_id=org_ids[org],
            text=_PHRASES[tone][phrase],
            likes=n_likes,
            retweets=n_retweets,
            replies=n_replies,
            account=f"user{account}",
            is_reply_to=reply_to,
            is_replied_to=replied_to,
            timestamp=stamp,
        )
        for org, tone, phrase, n_likes, n_retweets, n_replies, account, reply_to, replied_to, stamp in zip(
            tweet_orgs.tolist(), tones.tolist(), phrases.tolist(), likes.tolist(), retweets.tolist(),
            replies.tolist(), accounts.tolist(), is_reply_to.tolist(), is_replied_to.tolist(),
            stamps[len(cells):],
        )
    ]

    # Incidents: every victim but the hidden ones, dated in the year after
    # the observation year.
    victims = np.flatnonzero(victim)
    n_hidden = math.floor(config.noise_fraction * n_pos)
    reported = np.delete(victims, rng.choice(len(victims), size=n_hidden, replace=False))
    days = rng.integers(0, INCIDENT_YEAR_DAYS, len(reported))
    dates = np.datetime_as_string(np.datetime64(INCIDENT_YEAR_START, "D") + days).tolist()
    from_prc = (rng.random(len(reported)) < 0.5).tolist()
    incidents = [
        IncidentRecord(
            org_id=org_ids[org],
            name=organizations[org].name,
            date=day,
            source="PRC" if prc else "VCDB",
            breach_type="HACK",
        )
        for org, day, prc in zip(reported.tolist(), dates, from_prc)
    ]
    return CorpusBundle(
        organizations=tuple(organizations),
        observations=tuple(observations),
        tweets=tuple(tweets),
        incidents=tuple(incidents),
        ground_truth=dict(zip(org_ids, victim.astype(np.int64).tolist())),
    )


def write_corpus(bundle: CorpusBundle, out_dir: str | Path) -> dict[str, Path]:
    """Write the four record files plus ground_truth.jsonl; returns paths."""
    roles = ("organizations", "observations", "tweets", "incidents")
    paths = {role: Path(out_dir) / f"{role}.jsonl" for role in (*roles, "ground_truth")}
    for role in roles:
        write_jsonl(paths[role], (record.to_dict() for record in getattr(bundle, role)))
    write_jsonl(
        paths["ground_truth"],
        (
            {"org_id": org_id, "latent_label": label}
            for org_id, label in sorted(bundle.ground_truth.items())
        ),
    )
    return paths


@dataclass(frozen=True, slots=True)
class _GroundTruthEntry:
    """One line of ground_truth.jsonl."""

    org_id: str
    latent_label: Literal[0, 1]


def load_ground_truth(path: str | Path) -> dict[str, int]:
    """org_id -> latent label; any invalid record is a RecordError naming path:line."""
    entries = _load(path, lambda data: read_fields(_GroundTruthEntry, data))
    return {entry.org_id: entry.latent_label for entry in entries}


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
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
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
