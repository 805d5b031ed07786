"""Domain records for organizations, observations, tweets, and incidents.

All record types are immutable and carry their own validation. Files are
line-oriented JSON (one record per line); timestamps are ISO-8601 UTC.
"""
from __future__ import annotations

import functools
import ipaddress
import json
import operator
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

SECTORS = (
    "information_technology",
    "medical_healthcare",
    "finance",
    "retail",
    "education",
    "entertainment",
    "industrial",
    "government",
    "ngo",
    "energy",
)

OBSERVATION_KINDS = (
    "blacklist_ip",
    "darknet_ip",
    "open_port",
    "expired_cert",
    "spam_domain",
)

# Kinds whose subject is an IP address; spam_domain subjects are domains.
IP_KINDS = frozenset(OBSERVATION_KINDS[:4])

INCIDENT_SOURCES = ("PRC", "VCDB")

T = TypeVar("T")


class RecordError(ValueError):
    """Raised when a record violates its schema or invariants."""


def _parse_timestamp(value: str | datetime) -> datetime:
    if isinstance(value, datetime):
        ts = value
    else:
        ts = datetime.fromisoformat(str(value).replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat()


_REQUIRED = object()


def _field(data: dict, key: str, kind: type, default=_REQUIRED):
    """data[key], or default when the key is absent and a default is given.

    The value must be of ``kind`` exactly as JSON decodes it: no string
    is read as a number, no number as a boolean and no boolean as an
    integer, so a mistyped field is an error rather than a guessed value.
    """
    if key not in data:
        if default is _REQUIRED:
            raise RecordError(f"missing field {key!r}")
        return default
    value = data[key]
    if type(value) is not kind:
        raise RecordError(f"field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _strings(data: dict, key: str, default=_REQUIRED) -> tuple[str, ...]:
    """A list of strings, as a tuple."""
    values = _field(data, key, list, default)
    if not all(type(value) is str for value in values):
        raise RecordError(f"field {key!r} must be a list of strings")
    return tuple(values)


def _base_type(hint: object) -> type:
    """The class a field annotation names, without None and parameters:
    ``tuple[str, ...]`` -> tuple, ``np.ndarray | None`` -> np.ndarray."""
    if isinstance(hint, types.UnionType):
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    return typing.get_origin(hint) or hint


@functools.cache
def _init_fields(cls: type) -> tuple[tuple[str, type, object], ...]:
    """(name, base type, default or _REQUIRED) of each init field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, _base_type(hints[f.name]), _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
        if f.init
    )


# How a field's value is written to JSON, by its base type; others are written as they are.
_TO_JSON: dict[type, Callable] = {
    datetime: _format_timestamp,
    tuple: list,
    dict: dict,
    np.ndarray: np.ndarray.tolist,
}


@functools.cache
def _writer(cls: type) -> tuple[tuple[str, ...], Callable, tuple[tuple[int, Callable], ...]]:
    spec = _init_fields(cls)
    names = tuple(name for name, _, _ in spec)
    converters = tuple((i, _TO_JSON[kind]) for i, (_, kind, _) in enumerate(spec) if kind in _TO_JSON)
    return names, operator.attrgetter(*names), converters


def json_fields(obj: object) -> dict:
    """The init fields of a dataclass instance as a JSON object: a
    datetime as ISO-8601 UTC text, a tuple as a list, a dict as a copy and
    an array as nested lists."""
    names, get, converters = _writer(type(obj))
    values = list(get(obj)) if len(names) > 1 else [get(obj)]
    for i, convert in converters:
        values[i] = convert(values[i])
    return dict(zip(names, values))


def read_fields(cls: type[T], data: dict) -> T:
    """A dataclass built from the JSON object ``data``: each init field is
    read as the JSON type its annotation names (a datetime as text, a tuple
    as a list of strings), and a field with a default may be left out."""
    kwargs = {}
    for name, kind, default in _init_fields(cls):
        if kind is tuple:
            kwargs[name] = _strings(data, name, default)
        else:
            kwargs[name] = _field(data, name, str if kind is datetime else kind, default)
    return cls(**kwargs)


# A dotted-quad IPv4 address in ASCII digits, each octet 0-255 without a
# leading zero: only strings ipaddress accepts as IPv4. fullmatch, not $,
# which would also accept a trailing newline.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")


def _is_ip(subject: str) -> bool:
    if _IPV4.fullmatch(subject):
        return True
    try:
        ipaddress.ip_address(subject)
    except ValueError:
        return False
    return True


def check_org_size(value: int) -> int:
    """``value`` if it is an organization size: an integer >= 1 that
    converts to a finite float, since models read sizes as floats."""
    if value < 1:
        raise RecordError("org_size must be a positive integer")
    try:
        float(value)
    except OverflowError:
        raise RecordError("org_size must convert to a finite float") from None
    return value


@dataclass(frozen=True, slots=True)
class OrganizationRecord:
    """One organization: identity, sector, size, and network footprint.

    host_count, the total addresses across all allocated ranges, is
    summed while the ranges are validated; it is not an argument and
    takes no part in equality or repr.
    """

    org_id: str
    name: str
    sector: str
    org_size: int
    ip_ranges: tuple[str, ...] = ()
    domains: tuple[str, ...] = ()
    host_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.org_id:
            raise RecordError("organization requires an org_id")
        if self.sector not in SECTORS:
            raise RecordError(f"unknown sector {self.sector!r}")
        check_org_size(self.org_size)
        object.__setattr__(self, "ip_ranges", tuple(self.ip_ranges))
        object.__setattr__(self, "domains", tuple(self.domains))
        host_count = 0
        for block in self.ip_ranges:
            try:
                host_count += ipaddress.ip_network(block, strict=False).num_addresses
            except ValueError as exc:
                raise RecordError(f"invalid CIDR block {block!r}") from exc
        object.__setattr__(self, "host_count", host_count)

    to_dict = json_fields
    from_dict = classmethod(read_fields)


@dataclass(frozen=True, slots=True)
class ObservationRecord:
    """One externally measured technical event tied to an organization."""

    org_id: str
    kind: str
    subject: str
    timestamp: datetime
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in OBSERVATION_KINDS:
            raise RecordError(f"unknown observation kind {self.kind!r}")
        if not self.subject:
            raise RecordError("observation requires a subject")
        if self.kind in IP_KINDS:
            if not _is_ip(self.subject):
                raise RecordError(
                    f"{self.kind} subject must be an IP address, got {self.subject!r}"
                )
        elif _is_ip(self.subject):
            raise RecordError("spam_domain subject must be a domain, not an IP")
        object.__setattr__(self, "timestamp", _parse_timestamp(self.timestamp))

    to_dict = json_fields
    from_dict = classmethod(read_fields)


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One social post with engagement counts and reply linkage."""

    org_id: str
    text: str
    likes: int
    retweets: int
    replies: int
    account: str
    is_reply_to: bool
    is_replied_to: bool
    timestamp: datetime

    def __post_init__(self) -> None:
        if min(self.likes, self.retweets, self.replies) < 0:
            raise RecordError("engagement counts must be non-negative")
        object.__setattr__(self, "timestamp", _parse_timestamp(self.timestamp))

    to_dict = json_fields
    from_dict = classmethod(read_fields)


@dataclass(frozen=True, slots=True)
class IncidentRecord:
    """One reported hacking breach tied to an organization; the date is
    kept as its YYYY-MM-DD text."""

    org_id: str
    name: str
    date: str
    source: str
    breach_type: str = "HACK"

    def __post_init__(self) -> None:
        if self.source not in INCIDENT_SOURCES:
            raise RecordError(f"unknown incident source {self.source!r}")
        try:  # only YYYY-MM-DD text survives the round trip
            valid = datetime.fromisoformat(self.date).date().isoformat() == self.date
        except ValueError:
            valid = False
        if not valid:
            raise RecordError(f"incident date must be a YYYY-MM-DD calendar date, got {self.date!r}")

    to_dict = json_fields
    from_dict = classmethod(read_fields)


def _numbered_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{path}:{line_no}: invalid JSON record") from exc


def read_jsonl(path: str | Path) -> Iterator[dict]:
    return (record for _, record in _numbered_records(path))


def read_names(path: str | Path) -> list[str]:
    """The string ``name`` of every record in a JSONL file."""
    names = []
    for line_no, record in _numbered_records(path):
        name = record.get("name") if isinstance(record, dict) else None
        if not isinstance(name, str):
            raise RecordError(f"{path}:{line_no}: record needs a string 'name'")
        names.append(name)
    return names


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(encode(record))
            handle.write("\n")


def write_json(path: str | Path, payload: dict) -> None:
    """Write one JSON document with sorted keys, two-space indent and a final newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load(path: str | Path, from_dict: Callable[[dict], T]) -> list[T]:
    """Every record of a JSONL file; any invalid one is a RecordError naming path:line."""
    records = []
    for line_no, data in _numbered_records(path):
        if not isinstance(data, dict):
            raise RecordError(f"{path}:{line_no}: record must be a JSON object")
        try:
            records.append(from_dict(data))
        except ValueError as exc:
            raise RecordError(f"{path}:{line_no}: {exc}") from exc
    return records


def load_organizations(path: str | Path) -> list[OrganizationRecord]:
    return _load(path, OrganizationRecord.from_dict)


def load_observations(path: str | Path) -> list[ObservationRecord]:
    return _load(path, ObservationRecord.from_dict)


def load_tweets(path: str | Path) -> list[TweetRecord]:
    return _load(path, TweetRecord.from_dict)


def load_incidents(path: str | Path) -> list[IncidentRecord]:
    return _load(path, IncidentRecord.from_dict)
