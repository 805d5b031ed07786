"""Record validation (addresses, host counts, organization sizes, incident
dates) and the JSON lines each record type is written as and read from."""
from __future__ import annotations

import dataclasses
import ipaddress
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strisk.records import (
    IncidentRecord,
    ObservationRecord,
    OrganizationRecord,
    RecordError,
    TweetRecord,
    _is_ip,
    load_incidents,
    load_observations,
    load_organizations,
    write_jsonl,
)


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


@pytest.mark.parametrize("date", ["2019-02-30", "yesterday", "2019-2-3", "20190203", "2019-02-28\n", ""])
def test_incident_date_must_be_a_calendar_date(date):
    with pytest.raises(RecordError, match="YYYY-MM-DD"):
        IncidentRecord("o1", "Acme", date, "PRC")


def test_incident_date_text_is_kept():
    assert IncidentRecord("o1", "Acme", "2020-02-29", "PRC").date == "2020-02-29"


# One record of each type and the exact JSONL line it is written as.
WRITTEN_LINES = [
    (
        OrganizationRecord("org-1", "Acme Corp", "finance", 120, ("10.0.0.0/30",), ("acme.example",)),
        '{"domains": ["acme.example"], "ip_ranges": ["10.0.0.0/30"], "name": "Acme Corp", '
        '"org_id": "org-1", "org_size": 120, "sector": "finance"}',
    ),
    (
        ObservationRecord("org-1", "open_port", "10.0.0.1", "2019-03-04T06:06:07+01:00", "tcp/23"),
        '{"detail": "tcp/23", "kind": "open_port", "org_id": "org-1", "subject": "10.0.0.1", '
        '"timestamp": "2019-03-04T05:06:07+00:00"}',
    ),
    (
        TweetRecord("org-1", "outage again", 3, 1, 0, "@user", False, True, "2019-03-04T05:06:07Z"),
        '{"account": "@user", "is_replied_to": true, "is_reply_to": false, "likes": 3, '
        '"org_id": "org-1", "replies": 0, "retweets": 1, "text": "outage again", '
        '"timestamp": "2019-03-04T05:06:07+00:00"}',
    ),
    (
        IncidentRecord("org-1", "Acme Corp", "2019-05-01", "VCDB"),
        '{"breach_type": "HACK", "date": "2019-05-01", "name": "Acme Corp", "org_id": "org-1", '
        '"source": "VCDB"}',
    ),
]


@pytest.mark.parametrize("record, line", WRITTEN_LINES, ids=[type(r).__name__ for r, _ in WRITTEN_LINES])
def test_record_written_as_exact_line_and_read_back(tmp_path, record, line):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [record.to_dict()])
    assert path.read_text(encoding="utf-8") == line + "\n"
    assert type(record).from_dict(json.loads(line)) == record


@pytest.mark.parametrize(
    "load, data, key, default",
    [
        (load_organizations, {"org_id": "o1", "name": "Acme", "sector": "finance", "org_size": 5}, "ip_ranges", ()),
        (load_organizations, {"org_id": "o1", "name": "Acme", "sector": "finance", "org_size": 5}, "domains", ()),
        (
            load_observations,
            {"org_id": "o1", "kind": "spam_domain", "subject": "a.example", "timestamp": "2019-01-01T00:00:00"},
            "detail",
            "",
        ),
        (
            load_incidents,
            {"org_id": "o1", "name": "Acme", "date": "2019-01-01", "source": "PRC"},
            "breach_type",
            "HACK",
        ),
    ],
    ids=["ip_ranges", "domains", "detail", "breach_type"],
)
def test_optional_key_left_out_loads_default(tmp_path, load, data, key, default):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    (record,) = load(path)
    assert getattr(record, key) == default


def test_naive_timestamp_is_read_as_utc_and_unknown_key_ignored():
    record = ObservationRecord.from_dict(
        {"org_id": "o1", "kind": "spam_domain", "subject": "a.example", "timestamp": "2019-01-01T12:00:00", "x": 1}
    )
    assert record.to_dict() == {
        "org_id": "o1",
        "kind": "spam_domain",
        "subject": "a.example",
        "timestamp": "2019-01-01T12:00:00+00:00",
        "detail": "",
    }
