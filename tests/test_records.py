"""Record validation: address parsing, host counts and organization sizes."""
from __future__ import annotations

import dataclasses
import ipaddress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strisk.records import OrganizationRecord, RecordError, _is_ip


def ipaddress_accepts(subject: str) -> bool:
    try:
        ipaddress.ip_address(subject)
    except ValueError:
        return False
    return True


# Octets around every boundary of the fast path: leading zeros, 255/256,
# three-digit values past 255, signs, empty parts and non-ASCII digits
# (Arabic-Indic three, fullwidth one, superscript two).
octet = st.one_of(
    st.integers(0, 255).map(str),
    st.sampled_from(
        ["00", "01", "007", "256", "260", "300", "999", "1000", "", "+1", "-1",
         "٣", "１", "²", "1٣"]
    ),
)
padding = st.sampled_from(["", " ", "\n", "\t", "\r\n", "x"])
subjects = st.one_of(
    st.builds(
        lambda parts, head, tail: head + ".".join(parts) + tail,
        st.lists(octet, min_size=3, max_size=5),
        padding,
        padding,
    ),
    st.builds(lambda address, tail: str(address) + tail, st.ip_addresses(v=4), padding),
    st.ip_addresses(v=6).map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded),
    st.text(alphabet="0123456789.:abcdef\n ", max_size=20),
)


@settings(max_examples=600, deadline=None)
@given(subjects)
@example("0.0.0.0")
@example("255.255.255.255")
@example("256.0.0.1")
@example("01.2.3.4")
@example("1.2.3")
@example("1.2.3.4.5")
@example("1.2.3.4\n")
@example(" 1.2.3.4")
@example("1.2.3.4 ")
@example("1.2.3.٣")
@example("１.2.3.4")
@example("::1")
@example("::ffff:1.2.3.4")
@example("a.example.com")
def test_is_ip_agrees_with_ipaddress(subject):
    assert _is_ip(subject) == ipaddress_accepts(subject)


networks = st.one_of(
    st.ip_addresses(v=4).flatmap(
        lambda a: st.integers(0, 32).map(lambda p: f"{a}/{p}")
    ),
    st.ip_addresses(v=6).flatmap(
        lambda a: st.integers(0, 128).map(lambda p: f"{a}/{p}")
    ),
)


def total_addresses(blocks) -> int:
    return sum(ipaddress.ip_network(b, strict=False).num_addresses for b in blocks)


@settings(max_examples=200, deadline=None)
@given(st.lists(networks, max_size=4), st.lists(networks, max_size=4))
def test_host_count_sums_block_sizes_also_after_replace(blocks, other):
    org = OrganizationRecord("o1", "Acme", "finance", 5, ip_ranges=tuple(blocks))
    assert org.host_count == total_addresses(blocks)
    changed = dataclasses.replace(org, ip_ranges=tuple(other))
    assert changed.host_count == total_addresses(other)
    assert dataclasses.replace(changed, org_size=7).host_count == total_addresses(other)


def test_host_count_is_not_an_argument_and_not_compared():
    org = OrganizationRecord("o1", "Acme", "finance", 5, ip_ranges=("10.0.0.0/30",))
    assert "host_count" not in repr(org)
    assert org == OrganizationRecord("o1", "Acme", "finance", 5, ip_ranges=("10.0.0.0/30",))
    with pytest.raises(TypeError):
        OrganizationRecord("o1", "Acme", "finance", 5, host_count=4)
    with pytest.raises(ValueError):
        dataclasses.replace(org, host_count=4)


@pytest.mark.parametrize(
    "size",
    [0, -5, 10**400, 2**1024, 10**5000, -(10**5000)],
    ids=["0", "-5", "10**400", "2**1024", "10**5000", "-10**5000"],
)
def test_org_size_must_be_positive_and_fit_a_float(size):
    with pytest.raises(RecordError, match="org_size"):
        OrganizationRecord("o1", "Acme", "finance", size)


@pytest.mark.parametrize("size", [1, 10**308, 2**1023], ids=["1", "10**308", "2**1023"])
def test_org_size_limits_accepted(size):
    assert OrganizationRecord("o1", "Acme", "finance", size).org_size == size
