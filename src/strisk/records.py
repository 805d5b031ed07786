"""Domain records for organizations, observations, tweets, and incidents.

All record types are immutable, checked by their from_dict when read from a
file and not when built in Python. Files are line-oriented JSON (one record
per line); timestamps are ISO-8601 UTC.
"""
from __future__ import annotations

import functools
import ipaddress
import json
import math
import numbers
import operator
import re
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Annotated, Callable, Iterable, Iterator, Literal, TypeVar

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


class _Mismatch(RecordError):
    """A JSON value of a type its reader does not take: ``expected`` names the types taken."""

    def __init__(self, key: str, expected: str, value: object):
        super().__init__(f"field {key!r} must be {expected}, got {value!r}")
        self.expected, self.value = expected, value


def _parse_timestamp(text: str) -> datetime:
    """An ISO-8601 time in UTC; one without an offset is read as UTC."""
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    return ts.astimezone(timezone.utc) if ts.tzinfo else ts.replace(tzinfo=timezone.utc)


def _format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat()


def _typed(value: object, kind: type, key: str):
    """``value`` if it is of ``kind`` exactly as JSON decodes it: no string is read as a
    number, no number as a boolean and no boolean as an integer."""
    if type(value) is not kind:
        raise _Mismatch(key, "null" if kind is type(None) else kind.__name__, value)
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
        raise _Mismatch(key, " or ".join(map(repr, allowed)), value)
    return value


@functools.cache
def _reader(annotation: object) -> Callable[[object, str], object]:
    """A function (value, key) reading a JSON value as ``annotation`` names."""
    origin = typing.get_origin(annotation)
    if origin in (types.UnionType, typing.Union):  # int | Literal["sqrt"] is a typing.Union
        readers = tuple(map(_reader, typing.get_args(annotation)))

        def read_union(value, key):
            errors = []
            for read in readers:
                try:
                    return read(value, key)
                except ValueError as error:
                    errors.append(error)
            # The first member that took the value's type names the fault; if none did, each type is named.
            taken = [error for error in errors if not (isinstance(error, _Mismatch) and error.value is value)]
            raise taken[0] if taken else _Mismatch(key, " or ".join(error.expected for error in errors), value)

        return read_union
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
    if origin is Annotated:  # Annotated[T, Bound(...)]: read as T, then checked by the Bound
        read, (bound,) = _reader(annotation.__origin__), annotation.__metadata__
        return lambda value, key: bound.check(read(value, key), key)
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
    finite numbers (_read_array); a Literal as one of its values; Annotated[T, Bound(...)]
    as T, then checked by the Bound; a dataclass with its own from_dict(value, key) or else
    read_config; a datetime or Path from text. A union takes its first member that reads;
    when none does, it fails as the first member that took the value's type does, or else
    naming every type its members take."""
    return _reader(annotation)(value, key)


@dataclass(frozen=True, slots=True)
class Bound:
    """The numbers a field admits, declared as its annotation's one metadata, as in Annotated[int, Bound(1)]:
    low to high, each end included ("[" or "]") or open ("(" or ")")."""

    low: float
    high: float = math.inf
    ends: str = "[]"

    def __contains__(self, value: float) -> bool:
        above = value >= self.low if self.ends[0] == "[" else value > self.low
        return above and (value <= self.high if self.ends[1] == "]" else value < self.high)

    def check(self, value: T, key: str) -> T:
        """``value`` unless it is a number outside the bound, a ValueError naming field ``key``."""
        if isinstance(value, numbers.Real) and value not in self:
            raise ValueError(f"field {key!r} must be {self}, got {value!r}")
        return value

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>=' if self.ends[0] == '[' else '>'} {self.low}"
        return f"in {self.ends[0]}{self.low}, {self.high}{self.ends[1]}"


Seed = Annotated[int, Bound(0)]
Count = Annotated[int, Bound(1)]
Folds = Annotated[int, Bound(2)]
Positive = Annotated[float, Bound(0, ends="(]")]
Probability = Annotated[float, Bound(0, 1)]
Fraction = Annotated[float, Bound(0, 1, "(]")]


@functools.cache
def _bounds(cls: type) -> tuple[tuple[str, Bound], ...]:
    """(name, bound) of each field of ``cls`` whose annotation is Annotated[T, Bound(...)]."""
    hints = field_types(cls, extras=True).items()
    return tuple((name, hint.__metadata__[0]) for name, hint in hints if typing.get_origin(hint) is Annotated)


def check_bounds(obj: object) -> None:
    """Bound.check of each field of ``obj`` whose annotation declares a Bound. Configs, specs
    and models run it on construction; a file's fields are checked as read_value reads them."""
    for name, bound in _bounds(type(obj)):
        bound.check(getattr(obj, name), name)


@functools.cache
def field_types(cls: type, extras: bool = False) -> dict[str, object]:
    """The annotation of each init field of a dataclass, by name, Annotated metadata kept if ``extras``."""
    hints = typing.get_type_hints(cls, include_extras=extras)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


@functools.cache
def _field_readers(cls: type) -> tuple[tuple[str, Callable, bool], ...]:
    """(name, reader, required) of each init field of a dataclass; a Bound is checked as read."""
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    return tuple((name, _reader(hint), name in required) for name, hint in field_types(cls, extras=True).items())


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
    origin = typing.get_origin(annotation)
    if origin in (types.UnionType, typing.Union):
        write = next(filter(None, map(_writer, typing.get_args(annotation))), None)
        return write and (lambda value: None if value is None else write(value))
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


_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _json_list(value: list) -> str:
    if all(type(item) is str for item in value):
        return "[" + ", ".join(map(encode_basestring_ascii, value)) + "]"
    return _ENCODE(value)


# The text _ENCODE writes for a value of each of these exact types; any other goes through _ENCODE.
_JSON_TEXT: dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda value: "null",
    list: _json_list,
}


@functools.cache
def _renderer(cls: type) -> Callable[[object], str]:
    """A function writing an instance of dataclass ``cls`` as the JSON text _ENCODE
    writes for its json_fields object, without building that object: the same
    conversions, the keys sorted once, and the same text or the same error."""
    names, _, converters = _field_writers(cls)
    keys = sorted(names)
    get = operator.attrgetter(*keys) if len(keys) > 1 else lambda obj: (getattr(obj, keys[0]),)
    converters = tuple((keys.index(names[i]), write) for i, write in converters)
    template = "{" + ", ".join(encode_basestring_ascii(key) + ": %s" for key in keys) + "}"

    def render(obj: object) -> str:
        values = list(get(obj))
        for i, write in converters:
            values[i] = write(values[i])
        return template % tuple([_JSON_TEXT.get(type(value), _ENCODE)(value) for value in values])

    return render


# A dotted-quad IPv4 address in ASCII digits, each octet 0-255 without a
# leading zero: only strings ipaddress accepts as IPv4. fullmatch, not $,
# which would also accept a trailing newline.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")


# A CIDR block in its common form: a dotted quad, a slash and one or two ASCII digits.
_IPV4_BLOCK = re.compile(rf"{_IPV4.pattern}/([0-9]{{1,2}})")


def _block_addresses(block: str) -> int:
    """The number of addresses of CIDR block ``block``, host bits allowed; ValueError if
    ipaddress refuses it. A dotted quad with a prefix length of 0-32 is counted without
    ipaddress; any other form (IPv6, a netmask, a zero-padded prefix) is parsed by it."""
    match = _IPV4_BLOCK.fullmatch(block)
    if match and int(match[1]) <= 32:
        return 1 << 32 - int(match[1])
    return ipaddress.ip_network(block, strict=False).num_addresses


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
    """One organization: identity, sector, size, and network footprint."""

    org_id: str
    name: str
    sector: Literal[SECTORS]
    org_size: int
    ip_ranges: tuple[str, ...] = ()
    domains: tuple[str, ...] = ()

    @property
    def host_count(self) -> int:
        """The total addresses across all allocated ranges."""
        return sum(map(_block_addresses, self.ip_ranges))

    to_dict = json_fields

    @classmethod
    def from_dict(cls, data: dict) -> OrganizationRecord:
        """read_fields, then: org_id not empty (check_org_id), check_org_size, CIDR ip_ranges."""
        record = read_fields(cls, data)
        if not record.org_id:
            raise RecordError("organization requires an org_id")
        check_org_id(record.org_id)
        check_org_size(record.org_size)
        for block in record.ip_ranges:
            try:
                _block_addresses(block)
            except ValueError as exc:
                raise RecordError(f"invalid CIDR block {block!r}") from exc
        return record


@dataclass(frozen=True, slots=True)
class ObservationRecord:
    """One externally measured technical event tied to an organization."""

    org_id: str
    kind: Literal[OBSERVATION_KINDS]
    subject: str
    timestamp: datetime
    detail: str = ""

    to_dict = json_fields

    @classmethod
    def from_dict(cls, data: dict) -> ObservationRecord:
        """read_fields, then: an IP address subject for IP_KINDS, else a domain that is not one."""
        record = read_fields(cls, data)
        if not record.subject:
            raise RecordError("observation requires a subject")
        if record.kind in IP_KINDS:
            if not _is_ip(record.subject):
                raise RecordError(f"{record.kind} subject must be an IP address, got {record.subject!r}")
        elif _is_ip(record.subject):
            raise RecordError("spam_domain subject must be a domain, not an IP")
        return record


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One social post with engagement counts and reply linkage."""

    org_id: str
    text: str
    likes: Annotated[int, Bound(0)]
    retweets: Annotated[int, Bound(0)]
    replies: Annotated[int, Bound(0)]
    account: str
    is_reply_to: bool
    is_replied_to: bool
    timestamp: datetime

    to_dict = json_fields
    from_dict = classmethod(read_fields)


@dataclass(frozen=True, slots=True)
class IncidentRecord:
    """One reported hacking breach tied to an organization; the date is
    kept as its YYYY-MM-DD text."""

    org_id: str
    name: str
    date: str
    source: Literal[INCIDENT_SOURCES]
    breach_type: str = "HACK"

    to_dict = json_fields

    @classmethod
    def from_dict(cls, data: dict) -> IncidentRecord:
        """read_fields, then: the date is YYYY-MM-DD text of a calendar date."""
        record = read_fields(cls, data)
        try:  # only YYYY-MM-DD text survives the round trip
            valid = datetime.fromisoformat(record.date).date().isoformat() == record.date
        except ValueError:
            valid = False
        if not valid:
            raise RecordError(f"incident date must be a YYYY-MM-DD calendar date, got {record.date!r}")
        return record


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


def write_jsonl(path: str | Path, records: Iterable[object]) -> None:
    """Write one JSON object per line, keys sorted: a dict as JSONEncoder(sort_keys=True)
    writes it, and a dataclass record as it writes the record's json_fields object
    (_renderer), line by line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(
            f"{_ENCODE(record) if isinstance(record, dict) else _renderer(type(record))(record)}\n"
            for record in records
        )


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
