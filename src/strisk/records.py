"""Domain records for organizations, observations, tweets, and incidents.

All record types are immutable and carry their own validation. Files are
line-oriented JSON (one record per line); timestamps are ISO-8601 UTC.
"""
from __future__ import annotations

import functools
import ipaddress
import json
import math
import operator
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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


def _typed(value: object, kind: type, key: str):
    """``value`` if it is of ``kind`` exactly as JSON decodes it: no string is read as a
    number, no number as a boolean and no boolean as an integer."""
    if type(value) is not kind:
        raise RecordError(f"field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _read_float(value: object, key: str) -> float:
    """A finite float, or an integer that converts to one: never NaN or ±Infinity."""
    try:
        number = float(value) if type(value) is int else _typed(value, float, key)
    except OverflowError:
        number = math.inf
    if math.isfinite(number):
        return number
    raise RecordError(f"field {key!r} must be a finite number")


def _read_array(dtype: type, kinds: set[type], noun: str, value: object, key: str) -> np.ndarray:
    """An array of ``dtype`` from a list of JSON values of ``kinds``, nested for more
    than one dimension, every entry finite. The whole list is type-checked at once."""
    if type(value) is list:
        try:
            array = np.array(value, dtype=object)  # one name, so the cells are freed before isfinite
            array = array.astype(dtype) if set(map(type, array.ravel())) <= kinds else None
        except (ValueError, OverflowError):  # a ragged list, or an integer too large for dtype
            array = None
        if array is not None:
            if not np.isfinite(array).all():
                raise RecordError(f"field {key!r} must hold only finite numbers")
            return array
    raise RecordError(f"field {key!r} must be a list of {noun}")


def _read_literal(allowed: tuple, value: object, key: str):
    """``value`` if it is one of ``allowed``, of the same JSON type."""
    if not any(type(value) is type(option) and value == option for option in allowed):
        raise RecordError(f"field {key!r} must be {' or '.join(map(repr, allowed))}, got {value!r}")
    return value


@functools.cache
def _reader(annotation: object) -> Callable[[object, str], object]:
    """A function (value, key) reading a JSON value as ``annotation`` names."""
    if isinstance(annotation, types.UnionType):
        readers = tuple(map(_reader, typing.get_args(annotation)))

        def read_union(value, key):
            errors = []
            for read in readers:
                try:
                    return read(value, key)
                except ValueError as error:
                    errors.append(error)
            raise errors[0]

        return read_union
    origin = typing.get_origin(annotation)
    if origin in (tuple, frozenset, list):
        read_item = _reader(typing.get_args(annotation)[0])
        return lambda value, key: origin(read_item(item, key) for item in _typed(value, list, key))
    if origin is dict:
        read_item = _reader(typing.get_args(annotation)[1])
        return lambda value, key: {k: read_item(v, k) for k, v in _typed(value, dict, key).items()}
    if np.ndarray in (annotation, origin):
        # NDArray[np.int64] names its dtype last; a bare ndarray holds floats.
        dtype = typing.get_args(typing.get_args(annotation)[-1])[0] if origin else np.float64
        kinds, noun = ({int}, "integers") if np.issubdtype(dtype, np.integer) else ({int, float}, "numbers")
        return functools.partial(_read_array, dtype, kinds, noun)
    if origin is typing.Literal:
        return functools.partial(_read_literal, typing.get_args(annotation))
    if is_dataclass(annotation):
        return getattr(annotation, "from_dict", functools.partial(read_config, annotation))
    if annotation is float:
        return _read_float
    if annotation in (datetime, Path):
        parse = _parse_timestamp if annotation is datetime else Path
        return lambda value, key: parse(_typed(value, str, key))
    return lambda value, key: _typed(value, origin or annotation, key)


def read_value(value: object, annotation: object, key: str):
    """The JSON value of field ``key`` read as the type ``annotation`` names (_typed), a
    finite float also from an integer (_read_float). A tuple, frozenset or list is read
    from a list and a dict from an object, item by item; an array from nested lists of
    finite numbers (_read_array); a Literal as one of its values; a dataclass with its own
    from_dict(value, key) or else read_config; a datetime or Path from text. A union takes
    its first member that reads; when none does, it fails as the first does."""
    return _reader(annotation)(value, key)


@functools.cache
def field_types(cls: type) -> dict[str, object]:
    """The annotation of each init field of a dataclass, by name."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


@functools.cache
def _field_readers(cls: type) -> tuple[tuple[str, Callable, bool], ...]:
    """(name, reader, required) of each init field of a dataclass."""
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    return tuple((name, _reader(hint), name in required) for name, hint in field_types(cls).items())


def read_fields(cls: type[T], data: dict, *, complete: bool = False) -> T:
    """A dataclass built from the JSON object ``data``: each init field is
    read by its annotation (read_value), a field with a default may be left
    out unless ``complete``, and a key that is not a field is ignored."""
    kwargs = {}
    for name, read, required in _field_readers(cls):
        if name in data:
            kwargs[name] = read(data[name], name)
        elif required or complete:
            raise RecordError(f"missing field {name!r}")
    return cls(**kwargs)


def json_object(value: object, where: str, keys: Iterable[str]) -> dict:
    """``value`` if it is a JSON object whose keys are all in ``keys``."""
    if not isinstance(value, dict):
        raise RecordError(f"{where!r} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise RecordError(f"unknown key {key!r} in {where}; known keys: {', '.join(keys)}")
    return value


def read_config(cls: type[T], data: object, where: str = "config", *, complete: bool = False) -> T:
    """A config dataclass read from ``data`` as read_fields reads a record,
    except that a key it does not define is an error naming the key."""
    return read_fields(cls, json_object(data, where, field_types(cls)), complete=complete)


# How a value is written to JSON, by the class its annotation names; others are written as they are.
_TO_JSON: dict[type, Callable] = {
    datetime: _format_timestamp,
    float: lambda value: None if value != value else value,  # NaN as null
    dict: dict,
    np.ndarray: np.ndarray.tolist,
}


@functools.cache
def _writer(annotation: object) -> Callable | None:
    """The function writing a value of ``annotation`` to JSON; None to write it as it is."""
    if isinstance(annotation, types.UnionType):
        write = next(filter(None, map(_writer, typing.get_args(annotation))), None)
        return write and (lambda value: None if value is None else write(value))
    origin = typing.get_origin(annotation)
    if origin in (tuple, frozenset, list):
        write_item = _writer(typing.get_args(annotation)[0])
        order = sorted if origin is frozenset else list
        return order if write_item is None else lambda value: [write_item(item) for item in order(value)]
    if origin is dict:
        write_item = _writer(typing.get_args(annotation)[1])
        return dict if write_item is None else lambda value: {k: write_item(v) for k, v in value.items()}
    if is_dataclass(annotation):
        return getattr(annotation, "to_dict", json_fields)
    return _TO_JSON.get(origin or annotation)


@functools.cache
def _field_writers(cls: type) -> tuple[tuple[str, ...], Callable, tuple[tuple[int, Callable], ...]]:
    hints = field_types(cls)
    names = tuple(hints)
    converters = tuple((i, write) for i, name in enumerate(names) if (write := _writer(hints[name])))
    return names, operator.attrgetter(*names), converters


def json_fields(obj: object) -> dict:
    """The init fields of a dataclass instance as a JSON object: a datetime
    as ISO-8601 UTC text, a NaN float as null, a tuple as a list, a
    frozenset as a sorted list, a dict as a copy, an array as nested lists
    and a nested dataclass by its own to_dict."""
    names, get, converters = _field_writers(type(obj))
    values = list(get(obj)) if len(names) > 1 else [get(obj)]
    for i, convert in converters:
        values[i] = convert(values[i])
    return dict(zip(names, values))


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


def check_org_id(value: str) -> str:
    """``value`` if it holds no carriage return, which features.csv would write unquoted."""
    if "\r" in value:
        raise RecordError(f"org_id must not hold a carriage return, got {value!r}")
    return value


def check_org_size(value: int) -> int:
    """``value`` if it is an organization size: an integer >= 1 that
    converts to a finite float, since models read sizes as floats."""
    if value < 1:
        raise RecordError("org_size must be a positive integer")
    _read_float(value, "org_size")
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
        check_org_id(self.org_id)
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
        try:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield line_no, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RecordError(f"{path}:{line_no}: invalid JSON record") from exc
                except RecursionError as exc:
                    raise RecordError(f"{path}:{line_no}: JSON record nested too deeply") from exc
        except UnicodeDecodeError as exc:  # decoded in chunks, so no line is named
            raise RecordError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def read_json(path: str | Path) -> object:
    """The JSON document in the file at ``path``; a file that is not UTF-8 JSON,
    or is nested too deeply to read, is a RecordError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise RecordError(f"{path} cannot be read as JSON: {exc}") from exc


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
