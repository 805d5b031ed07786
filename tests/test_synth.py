"""Synthetic corpus generation and controlled label hiding."""
from __future__ import annotations

import ipaddress
import json
import math
import re
import typing
from collections import Counter
from datetime import date

import numpy as np
import pytest

from conftest import make_dataset
from strisk.features import featurize_corpus
from strisk import records
from strisk.records import (
    INCIDENT_SOURCES,
    OBSERVATION_KINDS,
    SECTORS,
    RecordError,
    field_types,
    load_incidents,
    load_observations,
    load_organizations,
    load_tweets,
)
from strisk.synth import (
    ADDRESSES_PER_BLOCK,
    MEAN_TWEETS,
    OBSERVATION_RATES,
    TECHNICAL_BOOST,
    CorpusBundle,
    GeneratorConfig,
    _address_block,
    _block_host,
    _distinct_picks,
    generate_corpus,
    inject_label_noise,
    load_ground_truth,
    write_corpus,
)


def bundle_key(bundle):
    return (
        [r.to_dict() for r in bundle.organizations],
        [r.to_dict() for r in bundle.observations],
        [r.to_dict() for r in bundle.tweets],
        [r.to_dict() for r in bundle.incidents],
        bundle.ground_truth,
    )


class TestGeneratorConfig:
    def test_defaults(self):
        config = GeneratorConfig(n_orgs=100)
        assert config.negative_ratio == 4.0
        assert config.signal == {
            "technical": 1.0,
            "social": 1.0,
            "sector": 0.5,
            "org_size": 0.5,
        }
        assert config.n_positive == 20

    def test_partial_signal_merges_over_defaults(self):
        config = GeneratorConfig(n_orgs=100, signal={"technical": 2.0})
        assert config.signal["technical"] == 2.0
        assert config.signal["social"] == 1.0

    def test_n_positive_rounds(self):
        assert GeneratorConfig(n_orgs=500).n_positive == 100
        assert GeneratorConfig(n_orgs=240).n_positive == 48

    def test_too_few_orgs_rejected(self):
        with pytest.raises(ValueError, match="n_orgs"):
            GeneratorConfig(n_orgs=19)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="negative_ratio"):
            GeneratorConfig(n_orgs=100, negative_ratio=0.0)

    def test_unknown_signal_group_rejected(self):
        with pytest.raises(ValueError, match="unknown signal group"):
            GeneratorConfig(n_orgs=100, signal={"astral": 1.0})

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            GeneratorConfig(n_orgs=100, signal={"technical": -1.0})

    def test_noise_fraction_bounds(self):
        with pytest.raises(ValueError, match="noise_fraction"):
            GeneratorConfig(n_orgs=100, noise_fraction=0.6)
        with pytest.raises(ValueError, match="noise_fraction"):
            GeneratorConfig(n_orgs=100, noise_fraction=-0.1)

    def test_bad_sector_mix_rejected(self):
        with pytest.raises(ValueError, match="invalid probability vector"):
            GeneratorConfig(n_orgs=100, sector_mix=(1.0,))
        uneven = tuple([0.2] * 9 + [0.3])
        with pytest.raises(ValueError, match="invalid probability vector"):
            GeneratorConfig(n_orgs=100, sector_mix=uneven)

    def test_from_dict_reads_json_object(self):
        data = {"n_orgs": 60, "signal": {"technical": 2.0}, "sector_mix": [0.5, 0.5] + [0] * 8, "seed": 5}
        assert GeneratorConfig.from_dict(data) == GeneratorConfig(
            n_orgs=60, signal={"technical": 2.0}, sector_mix=(0.5, 0.5) + (0.0,) * 8, seed=5
        )


class TestGenerateCorpus:
    def test_deterministic_per_seed(self):
        config = GeneratorConfig(n_orgs=40, seed=3)
        assert bundle_key(generate_corpus(config)) == bundle_key(generate_corpus(config))
        other = GeneratorConfig(n_orgs=40, seed=4)
        assert bundle_key(generate_corpus(other)) != bundle_key(generate_corpus(config))

    def test_counts_and_latent_labels(self):
        config = GeneratorConfig(n_orgs=100, seed=1)
        bundle = generate_corpus(config)
        assert len(bundle.organizations) == 100
        assert len(bundle.ground_truth) == 100
        assert sum(bundle.ground_truth.values()) == config.n_positive
        victim_ids = {r.org_id for r in bundle.incidents}
        assert victim_ids == {
            org_id for org_id, label in bundle.ground_truth.items() if label == 1
        }

    def test_noise_hides_incident_records_only(self):
        config = GeneratorConfig(n_orgs=100, noise_fraction=0.25, seed=2)
        bundle = generate_corpus(config)
        n_pos = config.n_positive
        hidden = math.floor(0.25 * n_pos)
        assert len({r.org_id for r in bundle.incidents}) == n_pos - hidden
        # latent truth still marks every victim
        assert sum(bundle.ground_truth.values()) == n_pos

    def test_org_records_are_well_formed(self):
        bundle = generate_corpus(GeneratorConfig(n_orgs=50, seed=7))
        for org in bundle.organizations:
            assert org.sector in SECTORS
            assert org.org_size >= 1
            assert 1 <= len(org.ip_ranges) <= 2
            assert 1 <= len(org.domains) <= 3
            for block in org.ip_ranges:
                network = ipaddress.ip_network(block)
                assert network.prefixlen == 27
            assert org.host_count >= 32

    def test_address_blocks_do_not_collide(self):
        bundle = generate_corpus(GeneratorConfig(n_orgs=80, seed=9))
        blocks = [b for org in bundle.organizations for b in org.ip_ranges]
        assert len(blocks) == len(set(blocks))

    def test_address_blocks_are_distinct_until_the_space_ends(self):
        blocks = [_address_block(index) for index in range(256 * 256)]
        assert blocks[:2] == ["10.0.0.0/27", "10.0.1.0/27"]
        assert blocks[256] == "10.1.0.0/27"
        assert blocks[-1] == "10.255.255.0/27"
        assert len(set(blocks)) == len(blocks)
        for index in (256 * 256, 256 * 256 + 1, -1):
            with pytest.raises(ValueError, match="65,536"):
                _address_block(index)

    @pytest.mark.parametrize("index", [0, 255, 256, 65_535])
    def test_block_hosts_are_the_ipaddress_hosts(self, index):
        hosts = ipaddress.ip_network(_address_block(index)).hosts()
        assert [_block_host(index, offset) for offset in range(30)] == [str(host) for host in hosts]

    def test_observations_point_at_owned_addresses(self):
        bundle = generate_corpus(GeneratorConfig(n_orgs=40, seed=5))
        networks = {
            org.org_id: [ipaddress.ip_network(b) for b in org.ip_ranges]
            for org in bundle.organizations
        }
        for obs in bundle.observations:
            if obs.kind == "spam_domain":
                continue
            address = ipaddress.ip_address(obs.subject)
            assert any(address in net for net in networks[obs.org_id])

    def test_featurizes_cleanly_with_truth(self):
        config = GeneratorConfig(n_orgs=60, noise_fraction=0.2, seed=6)
        bundle = generate_corpus(config)
        profiles = featurize_corpus(
            bundle.organizations,
            bundle.observations,
            bundle.tweets,
            bundle.incidents,
            latent_labels=bundle.ground_truth,
        )
        victim_ids = {r.org_id for r in bundle.incidents}
        for profile in profiles:
            assert profile.label == int(profile.org_id in victim_ids)
            assert profile.latent_label == bundle.ground_truth[profile.org_id]

    def test_every_field_has_its_annotated_type_exactly(self):
        # numpy scalars would pass most record checks but not the JSON writer
        bundle = generate_corpus(GeneratorConfig(n_orgs=60, noise_fraction=0.2, seed=12))
        records = bundle.organizations + bundle.observations + bundle.tweets + bundle.incidents
        for record in records:
            for name, annotation in field_types(type(record)).items():
                value = getattr(record, name)
                origin = typing.get_origin(annotation)
                expected = type(typing.get_args(annotation)[0]) if origin is typing.Literal else origin or annotation
                assert type(value) is expected, (record, name)
                if annotation == tuple[str, ...]:
                    assert all(type(item) is str for item in value), (record, name)
        assert all(type(k) is str and type(v) is int for k, v in bundle.ground_truth.items())

    def test_subjects_are_distinct_per_org_and_kind(self):
        bundle = generate_corpus(GeneratorConfig(n_orgs=200, signal={"technical": 3.0}, seed=13))
        cells = Counter((obs.org_id, obs.kind, obs.subject) for obs in bundle.observations)
        assert set(cells.values()) == {1}

    def test_distributions_match_the_constants(self):
        # 4,000 orgs, 800 victims. Tolerances are at least four standard
        # errors of each pooled count: 8 % for observation rates (the
        # smallest count, victims' darknet sightings, is about 2,900) and 5 %
        # for tweets (about 9,600 for victims).
        config = GeneratorConfig(n_orgs=4_000, noise_fraction=0.2, seed=14)
        bundle = generate_corpus(config)
        victim = bundle.ground_truth
        hosts = Counter()
        orgs = Counter()
        for org in bundle.organizations:
            hosts[victim[org.org_id]] += org.host_count
            orgs[victim[org.org_id]] += 1
        assert orgs[1] == config.n_positive
        seen = Counter((victim[obs.org_id], obs.kind) for obs in bundle.observations)
        for label, multiplier in ((0, 1.0), (1, 1.0 + TECHNICAL_BOOST * config.signal["technical"])):
            for kind, rate in OBSERVATION_RATES.items():
                per_host = seen[label, kind] / hosts[label]
                assert per_host == pytest.approx(rate * multiplier, rel=0.08), (label, kind)
            tweets = sum(victim[tweet.org_id] == label for tweet in bundle.tweets)
            expected = MEAN_TWEETS * (1.0 + 0.5 * config.signal["social"] * label)
            assert tweets / orgs[label] == pytest.approx(expected, rel=0.05), label
        hidden = math.floor(config.noise_fraction * config.n_positive)
        assert len(bundle.incidents) == config.n_positive - hidden
        assert {date.fromisoformat(incident.date).year for incident in bundle.incidents} == {2020}
        assert all(victim[incident.org_id] == 1 for incident in bundle.incidents)

    def test_distinct_picks_are_uniform_subsets(self):
        # 2 of 4 has six subsets; 30,000 cells put each near 5,000, so 5 %
        # is about four standard errors (65).
        rng = np.random.default_rng(15)
        n = 30_000
        cells, picks = _distinct_picks(rng, np.full(n, 2), np.full(n, 4))
        assert cells.tolist() == np.repeat(np.arange(n), 2).tolist()
        pairs = Counter(tuple(sorted(pair)) for pair in picks.reshape(n, 2).tolist())
        assert len(pairs) == 6
        assert all(count == pytest.approx(n / 6, rel=0.05) for count in pairs.values())
        cells, picks = _distinct_picks(rng, np.array([3, 0, 60, 1]), np.array([3, 5, 60, 1]))
        assert cells.tolist() == [0] * 3 + [2] * 60 + [3]
        assert sorted(picks[:3].tolist()) == [0, 1, 2]
        assert sorted(picks[3:63].tolist()) == list(range(60))
        assert picks[63] == 0

    def test_zero_signal_still_generates(self):
        config = GeneratorConfig(
            n_orgs=40,
            signal={"technical": 0, "social": 0, "sector": 0, "org_size": 0},
            seed=8,
        )
        bundle = generate_corpus(config)
        assert len(bundle.organizations) == 40


# The simulate section of the README quick-start config.
QUICK_START = {"n_orgs": 200, "negative_ratio": 4.0, "signal": {"technical": 2.0, "social": 1.5}, "noise_fraction": 0.2}


class TestWriteCorpus:
    def test_round_trip_through_files(self, tmp_path):
        """The generator's records, which it does not check, pass every read check and
        read back equal, field by field; between them the seeds draw every sector,
        observation kind and incident source."""
        drawn = set()
        for seed in (13, 91):
            bundle = generate_corpus(GeneratorConfig.from_dict({**QUICK_START, "seed": seed}))
            paths = write_corpus(bundle, tmp_path / str(seed))
            assert set(paths) == {
                "organizations",
                "observations",
                "tweets",
                "incidents",
                "ground_truth",
            }
            loaded = CorpusBundle(
                organizations=tuple(load_organizations(paths["organizations"])),
                observations=tuple(load_observations(paths["observations"])),
                tweets=tuple(load_tweets(paths["tweets"])),
                incidents=tuple(load_incidents(paths["incidents"])),
                ground_truth=load_ground_truth(paths["ground_truth"]),
            )
            assert loaded == bundle
            # The generator drew exposure from the addresses of its blocks without parsing them.
            assert [org.host_count for org in loaded.organizations] == [
                ADDRESSES_PER_BLOCK * len(org.ip_ranges) for org in bundle.organizations
            ]
            drawn |= {org.sector for org in loaded.organizations}
            drawn |= {obs.kind for obs in loaded.observations} | {incident.source for incident in loaded.incidents}
        assert drawn == {*SECTORS, *OBSERVATION_KINDS, *INCIDENT_SOURCES}

    def test_generator_runs_no_read_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the generator checked a value it built")

        for module, name in [(records, "_is_ip"), (records, "_parse_timestamp"), (ipaddress, "ip_network")]:
            monkeypatch.setattr(module, name, refuse)
        bundle = generate_corpus(GeneratorConfig.from_dict({**QUICK_START, "seed": 13}))
        assert {obs.kind for obs in bundle.observations} == set(OBSERVATION_KINDS)

    @pytest.mark.parametrize("label", [2, True, 1.0])
    def test_latent_label_outside_0_1_names_path_and_line(self, tmp_path, label):
        path = tmp_path / "ground_truth.jsonl"
        lines = [{"org_id": "a", "latent_label": 1}, {"org_id": "b", "latent_label": label}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        message = f"{path}:2: field 'latent_label' must be 0 or 1, got {label!r}"
        with pytest.raises(RecordError, match=re.escape(message)):
            load_ground_truth(path)


class TestInjectLabelNoise:
    def test_flip_count_is_floor(self):
        dataset = make_dataset(80, 20, seed=0)
        corrupted, ids = inject_label_noise(dataset, 0.12, seed=1)
        assert len(ids) == math.floor(0.12 * 20)
        assert sum(p.label for p in corrupted) == 20 - len(ids)

    def test_only_positives_flip(self):
        dataset = make_dataset(10, 10, seed=0)
        _, ids = inject_label_noise(dataset, 0.3, seed=2)
        by_id = {p.org_id: p for p in dataset}
        assert all(by_id[org_id].label == 1 for org_id in ids)

    def test_partitions_are_disjoint_and_seed_stable(self):
        dataset = make_dataset(40, 20, seed=3)
        slices = [
            set(inject_label_noise(dataset, 0.2, seed=9, partition=(r, 5))[1])
            for r in range(5)
        ]
        assert all(len(s) == 4 for s in slices)
        assert len(set().union(*slices)) == 20
        again = set(inject_label_noise(dataset, 0.2, seed=9, partition=(2, 5))[1])
        assert again == slices[2]

    def test_partition_out_of_range_rejected(self):
        dataset = make_dataset(20, 10, seed=0)
        with pytest.raises(ValueError, match="partition index"):
            inject_label_noise(dataset, 0.2, partition=(5, 5))

    def test_partition_overrunning_positives_rejected(self):
        dataset = make_dataset(20, 10, seed=0)
        with pytest.raises(ValueError, match="positives"):
            inject_label_noise(dataset, 0.4, partition=(2, 3))

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        dataset = make_dataset(20, 10, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"fraction must be in (0, 1], got {fraction!r}")):
            inject_label_noise(dataset, fraction)

    def test_fraction_too_small_rejected(self):
        dataset = make_dataset(20, 5, seed=0)
        with pytest.raises(ValueError, match="fraction too small"):
            inject_label_noise(dataset, 0.1)
