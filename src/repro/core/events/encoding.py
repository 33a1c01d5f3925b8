"""Wire encodings for events.

Two encodings are provided:

* **JSON-lines** — human-inspectable; used by the logging baseline so its
  storage accounting reflects what a production log file would hold.
* **Compact binary** — a length-prefixed struct encoding used by the
  Scrub host→central transport; about 2–4x denser than JSON for typical
  payloads, matching the paper's concern with the bytes hosts must ship.

Both encodings round-trip :class:`~repro.core.events.event.Event`
losslessly for all supported field types.  Binary frames are written
straight from payload dicts (:func:`encode_rows_into`, which the agent's
flush uses) and read back as ``Event`` objects or fixed-layout rows.
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
    "decode_binary",
    "decode_batch",
    "decode_event_frames",
    "decode_fixed_rows",
    "fixed_row_slots",
    "scan_batch",
    "encode_value",
    "decode_value",
    "encode_payload_into",
    "encode_rows_into",
    "FixedPackers",
    "UNENCODABLE",
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


def encode_payload_into(
    out: bytearray,
    event_type: str,
    host: str,
    payload: dict[str, Any],
    request_id: int,
    timestamp: float,
) -> None:
    """Append one event's compact binary framing to *out*, straight from
    its payload dict — the tagged writer every layout can take."""
    _write_str(out, event_type)
    _write_str(out, host)
    out += _HEADER.pack(request_id, timestamp, len(payload))
    for key, value in payload.items():
        _write_str(out, key)
        _write_value(out, value)


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


class FixedPacker(NamedTuple):
    """The writer's counterpart of :func:`decode_fixed_rows`: one event
    frame of a fixed layout is ``pack(*args)`` with ``args`` a copy of
    *template* whose request id (1), timestamp (2) and values (``5::2``)
    are filled in; the other members are the layout's constant chunks."""

    pack: Any  # struct.Struct.pack
    template: tuple


#: Layouts a :class:`FixedPackers` cache holds before it evicts the oldest.
PACKER_CACHE_SIZE = 256

#: What writing one event can raise: a non-plain value (``TypeError``),
#: an ``int`` outside int64 (``struct.error``), a string that is not
#: valid UTF-8 (``UnicodeEncodeError``), a key that is not a string
#: (``AttributeError``), a cyclic list (``RecursionError``).
UNENCODABLE = (
    TypeError, ValueError, OverflowError, AttributeError, RecursionError, struct.error
)


class FixedPackers:
    """Bounded cache: (event type, host, keys + value types) -> the
    :class:`FixedPacker` of that layout, or ``None`` when some value is
    not an exact ``int``/``float`` and the tagged writer must serve it.
    Full, it drops its oldest layout and counts the eviction."""

    def __init__(self) -> None:
        self.evictions = 0
        self._layouts: dict[tuple, Optional[FixedPacker]] = {}

    def __len__(self) -> int:
        return len(self._layouts)

    def get(self, event_type: str, host: str, signature: tuple) -> Optional[FixedPacker]:
        """The packer for payloads whose ``(*keys, *map(type, values))``
        is *signature*."""
        key = (event_type, host, signature)
        layouts = self._layouts
        try:
            return layouts[key]
        except KeyError:
            pass
        packer = _fixed_packer(event_type, host, signature)
        if len(layouts) >= PACKER_CACHE_SIZE:
            # Concurrent flushes may race here; losing one is harmless.
            layouts.pop(next(iter(layouts), None), None)
            self.evictions += 1
        layouts[key] = packer
        return packer


_FIXED_CODES = {int: (_TAG_INT, "q"), float: (_TAG_FLOAT, "d")}


def _fixed_packer(event_type: str, host: str, signature: tuple) -> Optional[FixedPacker]:
    nfields = len(signature) // 2
    keys, types = signature[:nfields], signature[nfields:]
    if not all(t in _FIXED_CODES for t in types) or not all(type(k) is str for k in keys):
        return None
    try:
        head = bytearray()
        _write_str(head, event_type)
        _write_str(head, host)
        layout = [f"<{len(head)}sqdI"]
        template: list[Any] = [bytes(head), 0, 0.0, nfields]
        for key, value_type in zip(keys, types):
            tag, code = _FIXED_CODES[value_type]
            chunk = bytearray()
            _write_str(chunk, key)
            chunk += tag
            layout.append(f"{len(chunk)}s{code}")
            template += [bytes(chunk), None]
    except UnicodeEncodeError:
        return None
    return FixedPacker(struct.Struct("".join(layout)).pack, tuple(template))


def encode_rows_into(out: bytearray, rows: Any, packers: FixedPackers) -> list:
    """Append one event frame per row to *out*, in one pass.

    A row is ``(source, payload, request_id, timestamp)``; *source*
    names the event's ``event_type`` and ``host`` (an :class:`Event`
    is its own source).  Consecutive rows of one source whose payloads
    have the same keys in the same order and exact ``int``/``float``
    values are a run, packed by one cached ``struct`` each; every other
    row goes through :func:`encode_payload_into`; both write the same
    bytes for the same event.

    A row that cannot be written is cut back out of *out* and returned,
    with its error, as ``(row, exc)``; the rest are written."""
    refused = []
    run_source = run_signature = None
    pack = None
    args: list[Any] = []
    for row in rows:
        source, payload, request_id, timestamp = row
        values = payload.values()
        signature = (*payload, *map(type, values))
        if source is not run_source or signature != run_signature:
            if (
                signature != run_signature
                or source.event_type != run_source.event_type
                or source.host != run_source.host
            ):
                packer = packers.get(source.event_type, source.host, signature)
                if packer is None:
                    pack = None
                else:
                    pack = packer.pack
                    args = list(packer.template)
            run_source, run_signature = source, signature
        start = len(out)
        try:
            if pack is not None:
                args[1] = request_id
                args[2] = timestamp
                args[5::2] = values
                out += pack(*args)
            else:
                encode_payload_into(
                    out, source.event_type, source.host, payload, request_id, timestamp
                )
        except UNENCODABLE as exc:
            del out[start:]
            refused.append((row, exc))
    return refused


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


