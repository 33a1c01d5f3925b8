"""Wire encodings for events.

Two encodings are provided:

* **JSON-lines** — human-inspectable; used by the logging baseline so its
  storage accounting reflects what a production log file would hold.
* **Compact binary** — a length-prefixed struct encoding used by the
  Scrub host→central transport; about 2–4x denser than JSON for typical
  payloads, matching the paper's concern with the bytes hosts must ship.

Both encodings round-trip :class:`~repro.core.events.event.Event`
losslessly for all supported field types.
"""

from __future__ import annotations

import json
import struct
from math import isfinite
from typing import Any, NamedTuple, Optional

from .event import Event
from .schema import REQUEST_ID, TIMESTAMP

__all__ = [
    "encode_json",
    "decode_json",
    "encode_binary",
    "encode_binary_into",
    "decode_binary",
    "encode_batch",
    "encode_batch_into",
    "decode_batch",
    "decode_event_frames",
    "decode_fixed_rows",
    "fixed_row_slots",
    "scan_batch",
    "encode_value",
    "decode_value",
    "encoded_size_value",
    "encoded_size_event",
    "encoded_size_batch",
]

# -- JSON lines ---------------------------------------------------------------


def encode_json(event: Event) -> bytes:
    """Encode one event as a single JSON line (newline-terminated)."""
    record = {
        "type": event.event_type,
        "rid": event.request_id,
        "ts": event.timestamp,
        "host": event.host,
        "data": event.payload,
    }
    return (json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n").encode()


def decode_json(line: bytes | str) -> Event:
    record = json.loads(line)
    return Event(
        record["type"],
        record["data"],
        record["rid"],
        record["ts"],
        record.get("host", ""),
    )


# -- compact binary -----------------------------------------------------------
#
# value encoding: 1 tag byte + body
#   N: null        B: bool (1 byte)     I: int64      D: float64
#   S: str (u32 len + utf8)             L: list (u32 count + values)
#   M: map  (u32 count + (str, value) pairs)

_TAG_NULL = b"N"
_TAG_BOOL = b"B"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_MAP = b"M"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_HEADER = struct.Struct("<qdI")  # request_id, timestamp, payload field count


def _truncated(offset: int, need: int, have: int) -> ValueError:
    """The structured decode error for a torn buffer.

    Raised identically by the decoders and the frame scanner — the two
    walk the same byte layout with the same bounds checks, so a torn or
    corrupted tail fails at the same offset with the same message from
    either path (``tests/core/test_encoding.py`` pins this).
    """
    return ValueError(
        f"truncated event encoding at offset {offset}: "
        f"need {need} byte(s), have {have}"
    )


def _non_finite(timestamp: float, offset: int) -> ValueError:
    """The structured error for an ``inf``/``nan`` event timestamp, which
    no window can hold — raised identically by decoder and scanner."""
    return ValueError(
        f"corrupt event encoding: non-finite timestamp {timestamp!r} at offset {offset}"
    )


def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out += _TAG_NULL
    elif isinstance(value, bool):
        out += _TAG_BOOL
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out += _TAG_INT
        out += _I64.pack(value)
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode()
        out += _TAG_STR
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        out += _U32.pack(len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out += _TAG_MAP
        out += _U32.pack(len(value))
        for key, item in value.items():
            _write_str(out, str(key))
            _write_value(out, item)
    else:
        raise TypeError(f"unencodable value of type {type(value).__name__}: {value!r}")


def _write_str(out: bytearray, text: str) -> None:
    raw = text.encode()
    out += _U32.pack(len(raw))
    out += raw


def _read_str(buf: memoryview, pos: int) -> tuple[str, int]:
    if pos + 4 > len(buf):
        raise _truncated(pos, 4, len(buf) - pos)
    (length,) = _U32.unpack_from(buf, pos)
    pos += 4
    if pos + length > len(buf):
        raise _truncated(pos, length, len(buf) - pos)
    return bytes(buf[pos : pos + length]).decode(), pos + length


def _skip_str(buf: memoryview, pos: int) -> int:
    """Advance past one encoded string without decoding it.

    Bounds checks (and their error messages) mirror :func:`_read_str`
    exactly, so the scanner and the decoder reject a torn buffer with
    the same structured error.
    """
    if pos + 4 > len(buf):
        raise _truncated(pos, 4, len(buf) - pos)
    (length,) = _U32.unpack_from(buf, pos)
    pos += 4
    if pos + length > len(buf):
        raise _truncated(pos, length, len(buf) - pos)
    return pos + length


def _read_value(buf: memoryview, pos: int) -> tuple[Any, int]:
    if pos >= len(buf):
        raise _truncated(pos, 1, 0)
    tag = bytes(buf[pos : pos + 1])
    pos += 1
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_BOOL:
        if pos >= len(buf):
            raise _truncated(pos, 1, 0)
        return buf[pos] != 0, pos + 1
    if tag == _TAG_INT:
        if pos + 8 > len(buf):
            raise _truncated(pos, 8, len(buf) - pos)
        (v,) = _I64.unpack_from(buf, pos)
        return v, pos + 8
    if tag == _TAG_FLOAT:
        if pos + 8 > len(buf):
            raise _truncated(pos, 8, len(buf) - pos)
        (v,) = _F64.unpack_from(buf, pos)
        return v, pos + 8
    if tag == _TAG_STR:
        return _read_str(buf, pos)
    if tag == _TAG_LIST:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _read_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == _TAG_MAP:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        mapping: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _read_str(buf, pos)
            mapping[key], pos = _read_value(buf, pos)
        return mapping, pos
    raise ValueError(f"corrupt event encoding: unknown tag {tag!r} at offset {pos - 1}")


def _skip_value(buf: memoryview, pos: int) -> int:
    """Advance past one tagged value without materializing it.

    The frame scanner's building block: the structure (and every bounds
    check and error message) mirrors :func:`_read_value`, minus the
    allocations — no ints, floats, strings, lists or dicts are built.
    """
    if pos >= len(buf):
        raise _truncated(pos, 1, 0)
    tag = bytes(buf[pos : pos + 1])
    pos += 1
    if tag == _TAG_NULL:
        return pos
    if tag == _TAG_BOOL:
        if pos >= len(buf):
            raise _truncated(pos, 1, 0)
        return pos + 1
    if tag == _TAG_INT or tag == _TAG_FLOAT:
        if pos + 8 > len(buf):
            raise _truncated(pos, 8, len(buf) - pos)
        return pos + 8
    if tag == _TAG_STR:
        return _skip_str(buf, pos)
    if tag == _TAG_LIST:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(count):
            pos = _skip_value(buf, pos)
        return pos
    if tag == _TAG_MAP:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(count):
            pos = _skip_str(buf, pos)
            pos = _skip_value(buf, pos)
        return pos
    raise ValueError(f"corrupt event encoding: unknown tag {tag!r} at offset {pos - 1}")


def encode_value(value: Any) -> bytes:
    """Encode one plain value (None/bool/int/float/str/list/dict) standalone.

    The building block the live wire protocol uses for control-message
    payloads; shares the tagged encoding of event payload fields.
    """
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def decode_value(data: bytes | memoryview) -> Any:
    value, pos = _read_value(memoryview(data), 0)
    if pos != len(data):
        raise ValueError(f"trailing garbage after value at offset {pos}")
    return value


def encode_binary_into(out: bytearray, event: Event) -> None:
    """Append one event's compact binary framing to *out*.

    The zero-alloc building block of the flush path: a whole batch is
    written into one reusable buffer, with no per-event ``bytes``.
    """
    _write_str(out, event.event_type)
    _write_str(out, event.host)
    out += _HEADER.pack(event.request_id, event.timestamp, len(event.payload))
    for key, value in event.payload.items():
        _write_str(out, key)
        _write_value(out, value)


def encode_binary(event: Event) -> bytes:
    """Encode one event in the compact binary framing."""
    out = bytearray()
    encode_binary_into(out, event)
    return bytes(out)


def decode_binary(data: bytes | memoryview) -> Event:
    event, pos = _decode_binary_at(memoryview(data), 0)
    if pos != len(data):
        raise ValueError(f"trailing garbage after event at offset {pos}")
    return event


def _decode_binary_at(buf: memoryview, pos: int) -> tuple[Event, int]:
    event_type, pos = _read_str(buf, pos)
    host, pos = _read_str(buf, pos)
    if pos + _HEADER.size > len(buf):
        raise _truncated(pos, _HEADER.size, len(buf) - pos)
    request_id, timestamp, nfields = _HEADER.unpack_from(buf, pos)
    if not isfinite(timestamp):
        raise _non_finite(timestamp, pos + 8)
    pos += _HEADER.size
    payload: dict[str, Any] = {}
    for _ in range(nfields):
        key, pos = _read_str(buf, pos)
        payload[key], pos = _read_value(buf, pos)
    return Event(event_type, payload, request_id, timestamp, host), pos


# -- arithmetic sizes ---------------------------------------------------------
#
# Exact mirrors of the writers above: ``encoded_size_x(v)`` equals
# ``len(encode_x(v))`` for every encodable value, without materializing
# bytes.  The ingest hot path charges wire bytes per batch; doing a full
# encode just to measure it dominated the per-batch overhead.


def encoded_size_value(value: Any) -> int:
    """Exactly ``len(encode_value(value))``, computed arithmetically."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, str):
        return 5 + _utf8_len(value)
    if isinstance(value, (list, tuple)):
        return 5 + sum(encoded_size_value(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(
            4 + _utf8_len(str(key)) + encoded_size_value(item)
            for key, item in value.items()
        )
    raise TypeError(f"unencodable value of type {type(value).__name__}: {value!r}")


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode())


def _str_size(text: str) -> int:
    return 4 + _utf8_len(text)


def encoded_size_event(event: Event) -> int:
    """Exactly ``len(encode_binary(event))``, computed arithmetically."""
    size = _str_size(event.event_type) + _str_size(event.host) + _HEADER.size
    for key, value in event.payload.items():
        size += _str_size(key) + encoded_size_value(value)
    return size


def encoded_size_batch(events: list[Event]) -> int:
    """Exactly ``len(encode_batch(events))``, computed arithmetically."""
    return 4 + sum(encoded_size_event(event) for event in events)


def encode_batch_into(out: bytearray, events: list[Event]) -> None:
    """Append a batch (u32 count prefix + concatenated events) to *out*."""
    out += _U32.pack(len(events))
    for event in events:
        encode_binary_into(out, event)


def encode_batch(events: list[Event]) -> bytes:
    """Encode a batch of events (u32 count prefix + concatenated events)."""
    out = bytearray()
    encode_batch_into(out, events)
    return bytes(out)


def decode_batch(data: bytes | memoryview) -> list[Event]:
    buf = memoryview(data)
    if len(buf) < 4:
        raise _truncated(0, 4, len(buf))
    (count,) = _U32.unpack_from(buf, 0)
    pos = 4
    events: list[Event] = []
    for _ in range(count):
        event, pos = _decode_binary_at(buf, pos)
        events.append(event)
    if pos != len(data):
        raise ValueError(f"trailing garbage after batch at offset {pos}")
    return events


def decode_event_frames(data: bytes | memoryview, count: int) -> list[Event]:
    """Decode exactly *count* concatenated event frames (no count prefix).

    The shard-worker half of the zero-copy ingest path: the parent
    splices per-shard event frames out of a batch buffer by
    :func:`scan_batch`'s extents and ships the raw bytes; the worker turns
    them back into :class:`Event` objects here.  Rejects leftover bytes
    — a mis-sliced shard must fail loudly, never drop events.
    """
    buf = memoryview(data)
    pos = 0
    events: list[Event] = []
    for _ in range(count):
        event, pos = _decode_binary_at(buf, pos)
        events.append(event)
    if pos != len(buf):
        raise ValueError(f"trailing garbage after batch at offset {pos}")
    return events


# -- fixed-layout rows ---------------------------------------------------------
#
# docs/SCALING.md §"Fixed-layout row ingest": a flush of events whose
# values are all int64/float64 is a table of fixed-width records.


class FixedRows(NamedTuple):
    """A run of event frames read as records.  ``rows[i]`` is the raw
    ``struct`` tuple of event *i*: the constant chunks stay in it, and
    :func:`fixed_row_slots` says where the fields are."""

    rows: list[tuple]
    names: tuple[str, ...]  # payload field names, in wire order
    host: str
    timestamps: tuple[float, ...]
    end: int  # offset just past the run


def fixed_row_slots(names: tuple[str, ...]) -> dict[str, int]:
    """Field name -> index into a :class:`FixedRows` row.  System fields
    shadow payload fields of the same name, as in :meth:`Event.get`."""
    slots = {name: 4 + 2 * i for i, name in enumerate(names)}
    slots[REQUEST_ID] = 1
    slots[TIMESTAMP] = 2
    return slots


#: Value tag byte -> ``struct`` code, for the two fixed-width value types.
_FIXED_TAGS = {ord(_TAG_INT): "q", ord(_TAG_FLOAT): "d"}


def decode_fixed_rows(buf: memoryview, pos: int, count: int) -> Optional[FixedRows]:
    """Read *count* event frames at *pos* with one ``struct.iter_unpack``.

    Only the first frame is walked.  It becomes a record template: ``Ns``
    members for its constant chunks (type + host strings; then field
    count / key string / tag before each value), ``q``/``d`` members for
    request id, timestamp and the values.  The run is accepted only if
    every constant column equals the first frame's chunk in all *count*
    rows — each frame is then byte for byte what :func:`_decode_binary_at`
    would have parsed to the same values.  Never raises: a short buffer,
    a non-UTF-8 or repeated key, any tag but ``I``/``D``, a mismatch
    anywhere in the run or a non-finite timestamp returns ``None``, and
    the caller's general decoder owns the result or the error.
    """
    try:
        _event_type, at = _read_str(buf, pos)
        host, at = _read_str(buf, at)
        layout = [f"<{at - pos}sqd"]
        chunk = at + 16  # start of the constant chunk being measured
        (nfields,) = _U32.unpack_from(buf, chunk)
        at = chunk + 4
        names = []
        for _ in range(nfields):
            name, at = _read_str(buf, at)
            names.append(name)
            layout.append(f"{at + 1 - chunk}s{_FIXED_TAGS[buf[at]]}")
            chunk = at = at + 9
        if at > chunk:  # no fields: the count is the trailing chunk
            layout.append(f"{at - chunk}s")
        end = pos + count * (at - pos)
        if not count or end > len(buf) or len(set(names)) != nfields:
            return None
        rows = list(struct.iter_unpack("".join(layout), buf[pos:end]))
    except (ValueError, LookupError, struct.error):
        return None
    columns = list(zip(*rows))
    first = rows[0]
    for slot in (0, *range(3, len(first), 2)):
        if columns[slot].count(first[slot]) != count:
            return None
    if not isfinite(sum(columns[2])):
        return None
    return FixedRows(rows, tuple(names), host, columns[2], end)


# -- frame scanning ------------------------------------------------------------
#
# The zero-copy shard-ingest entry points (docs/SCALING.md §"Zero-copy
# shard ingest").  A scan walks a length-prefixed batch reading only each
# event's two leading strings (type skipped, host interned) and the fixed
# ``<qdI`` header — request id for sharding, timestamp for window
# segmentation — and records byte extents instead of building events.
# Per-shard ingest then ships slices of the original buffer; only the
# worker that owns a shard ever decodes its payloads.


def scan_batch(
    buf: bytes | memoryview, pos: int = 0
) -> tuple[list[tuple[int, float, str, int, int]], int]:
    """Index a length-prefixed batch without decoding its events.

    Returns ``(frames, end)`` where each frame is
    ``(request_id, timestamp, host, start, stop)`` — the header fields
    the central needs for sharding/windowing/coverage plus the event's
    byte extent ``buf[start:stop]`` — and *end* is the offset just past
    the batch (callers embedding a batch mid-buffer continue from it).

    Walks every byte the decoder would: a torn or corrupted buffer
    raises the same structured error at the same offset as
    :func:`decode_batch`; nothing is ever silently dropped or mis-sliced.
    """
    mv = buf if isinstance(buf, memoryview) else memoryview(buf)
    size = len(mv)
    if pos + 4 > size:
        raise _truncated(pos, 4, size - pos)
    (count,) = _U32.unpack_from(mv, pos)
    pos += 4
    frames: list[tuple[int, float, str, int, int]] = []
    # One host string decode per distinct byte pattern: a flush carries
    # one host's events, so this is almost always a single decode.
    hosts: dict[bytes, str] = {}
    header_size = _HEADER.size
    for _ in range(count):
        start = pos
        pos = _skip_str(mv, pos)  # event_type: never materialized here
        if pos + 4 > size:
            raise _truncated(pos, 4, size - pos)
        (hlen,) = _U32.unpack_from(mv, pos)
        pos += 4
        if pos + hlen > size:
            raise _truncated(pos, hlen, size - pos)
        hkey = bytes(mv[pos : pos + hlen])
        host = hosts.get(hkey)
        if host is None:
            host = hosts[hkey] = hkey.decode()
        pos += hlen
        if pos + header_size > size:
            raise _truncated(pos, header_size, size - pos)
        request_id, timestamp, nfields = _HEADER.unpack_from(mv, pos)
        if not isfinite(timestamp):
            raise _non_finite(timestamp, pos + 8)
        pos += header_size
        for _ in range(nfields):
            pos = _skip_str(mv, pos)
            pos = _skip_value(mv, pos)
        frames.append((request_id, timestamp, host, start, pos))
    return frames, pos


