"""Synthetic corpus generation and controlled label hiding."""
from __future__ import annotations

import ipaddress
import math

import pytest

from conftest import make_dataset
from strisk.features import featurize_corpus
from strisk.records import (
    SECTORS,
    load_incidents,
    load_observations,
    load_organizations,
    load_tweets,
)
from strisk.synth import (
    GeneratorConfig,
    _address_block,
    _block_hosts,
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

    def test_round_trip(self):
        config = GeneratorConfig(n_orgs=60, signal={"technical": 2.0}, seed=5)
        assert GeneratorConfig.from_dict(config.to_dict()) == config


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
        assert _block_hosts(index) == [str(host) for host in hosts]

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

    def test_zero_signal_still_generates(self):
        config = GeneratorConfig(
            n_orgs=40,
            signal={"technical": 0, "social": 0, "sector": 0, "org_size": 0},
            seed=8,
        )
        bundle = generate_corpus(config)
        assert len(bundle.organizations) == 40


class TestWriteCorpus:
    def test_round_trip_through_files(self, tmp_path):
        bundle = generate_corpus(GeneratorConfig(n_orgs=30, seed=4))
        paths = write_corpus(bundle, tmp_path)
        assert set(paths) == {
            "organizations",
            "observations",
            "tweets",
            "incidents",
            "ground_truth",
        }
        assert load_organizations(paths["organizations"]) == list(bundle.organizations)
        assert load_observations(paths["observations"]) == list(bundle.observations)
        assert load_tweets(paths["tweets"]) == list(bundle.tweets)
        assert load_incidents(paths["incidents"]) == list(bundle.incidents)
        assert load_ground_truth(paths["ground_truth"]) == bundle.ground_truth


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

    def test_fraction_too_small_rejected(self):
        dataset = make_dataset(20, 5, seed=0)
        with pytest.raises(ValueError, match="fraction too small"):
            inject_label_noise(dataset, 0.1)
