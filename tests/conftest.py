"""Builders shared across the suite."""
from __future__ import annotations

import numpy as np
import pytest

from strisk.features import FEATURES, FeatureVector, featurize_corpus
from strisk.records import SECTORS
from strisk.synth import GeneratorConfig, generate_corpus

# Fields nudged upward for positives so hand-built datasets are learnable.
TECH_SHIFT_FIELDS = ("blacklist_count", "darknet_count", "open_port_count")
SOCIAL_SHIFT_FIELDS = ("mentions", "retweets", "strong_negative")


def make_profile(
    org_id: str,
    label: int = 0,
    *,
    latent_label: int | None = None,
    rng: np.random.Generator | None = None,
    shift: float = 0.0,
    shift_fields: tuple[str, ...] = TECH_SHIFT_FIELDS + SOCIAL_SHIFT_FIELDS,
    sector: str = SECTORS[0],
    org_size: int = 50,
) -> FeatureVector:
    drawn = rng.random(len(FEATURES)) if rng is not None else np.zeros(len(FEATURES))
    values = dict(zip(FEATURES, drawn.tolist()))
    for name in shift_fields:
        values[name] += shift
    return FeatureVector(
        org_id=org_id,
        values=tuple(values[name] for name in FEATURES),
        sector=sector,
        org_size=org_size,
        label=label,
        latent_label=latent_label,
    )


def make_dataset(
    n_neg: int,
    n_pos: int,
    seed: int = 0,
    shift: float = 2.0,
    shift_fields: tuple[str, ...] = TECH_SHIFT_FIELDS + SOCIAL_SHIFT_FIELDS,
) -> list[FeatureVector]:
    """Negatives first, then positives shifted by `shift` on a few fields."""
    rng = np.random.default_rng(seed)
    profiles = []
    for i in range(n_neg + n_pos):
        label = int(i >= n_neg)
        profiles.append(
            make_profile(
                f"org-{i:04d}",
                label,
                rng=rng,
                shift=shift * label,
                shift_fields=shift_fields,
                sector=SECTORS[i % len(SECTORS)],
                org_size=int(rng.integers(5, 500)),
            )
        )
    return profiles


@pytest.fixture(scope="session")
def strong_corpus():
    """A separable synthetic corpus, generated and featurized once."""
    config = GeneratorConfig(
        n_orgs=200,
        negative_ratio=4.0,
        signal={"technical": 2.0, "social": 1.5},
        seed=11,
    )
    bundle = generate_corpus(config)
    profiles = featurize_corpus(
        bundle.organizations,
        bundle.observations,
        bundle.tweets,
        bundle.incidents,
        latent_labels=bundle.ground_truth,
    )
    return bundle, profiles
