"""The Event-based writers, kept as the oracle for the agent's.

Production writes each frame once, in ``ScrubAgent.flush()``, straight
from the buffered payloads (``write_batch`` → ``encode_rows_into``,
fixed layouts through one cached ``struct`` each).  These are the
writers it replaced: they walk ``Event`` objects and tag every value.
They are self-contained on purpose — no writer from ``src/`` is
imported — so the differential in ``tests/core/test_flush_frames.py``
compares two independent writers, and the codec tests build their
frames without the code under test.
"""

from __future__ import annotations

import struct
from typing import Any

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_HEADER = struct.Struct("<qdI")  # request_id, timestamp, payload field count


def _write_str(out: bytearray, text: str) -> None:
    raw = text.encode()
    out += _U32.pack(len(raw))
    out += raw


def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"B"
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out += b"I"
        out += _I64.pack(value)
    elif isinstance(value, float):
        out += b"D"
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode()
        out += b"S"
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out += b"L"
        out += _U32.pack(len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out += b"M"
        out += _U32.pack(len(value))
        for key, item in value.items():
            _write_str(out, str(key))
            _write_value(out, item)
    else:
        raise TypeError(f"unencodable value of type {type(value).__name__}: {value!r}")


def _write_event(out: bytearray, event: Any) -> None:
    _write_str(out, event.event_type)
    _write_str(out, event.host)
    out += _HEADER.pack(event.request_id, event.timestamp, len(event.payload))
    for key, value in event.payload.items():
        _write_str(out, key)
        _write_value(out, value)


def encode_binary(event: Any) -> bytes:
    """One event's compact binary frame."""
    out = bytearray()
    _write_event(out, event)
    return bytes(out)


def encode_batch(events: list) -> bytes:
    """A u32 count, then each event's frame."""
    out = bytearray(_U32.pack(len(events)))
    for event in events:
        _write_event(out, event)
    return bytes(out)


def oracle_encode_full_batch(batch: Any) -> bytes:
    """The v2 full-batch frame of *batch*, written event by event."""
    out = bytearray()
    out.append(2)
    _write_str(out, batch.host)
    _write_str(out, batch.query_id)
    out += _F64.pack(batch.sent_at)
    out += _I64.pack(batch.dropped)
    out += _I64.pack(batch.shed)
    _write_str(out, batch.quarantined)
    out += encode_batch(batch.events)
    out += _U32.pack(len(batch.seen_counts))
    for (event_type, window), count in batch.seen_counts.items():
        _write_str(out, event_type)
        out += _I64.pack(window)
        out += _I64.pack(count)
    out += _U32.pack(len(batch.partials))
    for partial in batch.partials:
        _write_str(out, partial.event_type)
        out += _I64.pack(partial.window)
        _write_value(out, list(partial.group_key))
        _write_value(out, list(partial.values))
    return bytes(out)
