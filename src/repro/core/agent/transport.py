"""Host → ScrubCentral transport abstraction.

In production Scrub ships events over a messaging substrate; here the
transport is a small interface with several implementations:

* :class:`DirectTransport` — hands batches straight to a sink callable
  (ScrubCentral's ``ingest``); used for in-process runs and tests.
* :class:`RecordingTransport` — retains batches for inspection.
* ``repro.live.transport.SocketTransport`` — ships batches over TCP to
  a standalone ``scrubd`` daemon (the real-deployment mode).

The simulated cluster provides a fourth implementation that charges
network latency/bandwidth before delivery (``repro.cluster.runtime``).
Batches carry, besides the sampled events, the per-window matched-event
counters (M_i) and drop counts the central estimator needs.

This module also owns the **full-batch wire codec**: a lossless binary
encoding of an entire :class:`EventBatch` — events, seen counts, drop
counter, send timestamp, and host-side partial aggregates — layered on
the primitives of ``events/encoding.py``.  ``wire_size()`` is exactly
``len(encode_full_batch(batch))``, so every byte-accounting path (agent
stats, transports, the central engine, the simulated network) reports
what a host would really put on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol

from ..events import Event
from ..events.encoding import (
    _F64,
    _I64,
    _U32,
    _read_str,
    _read_value,
    _str_size,
    _truncated,
    _write_str,
    _write_value,
    FixedRows,
    decode_fixed_rows,
    encode_batch_into,
    encoded_size_batch,
    encoded_size_value,
    scan_batch,
)
from ..events.encoding import _decode_binary_at

__all__ = [
    "DirectTransport",
    "EncodedBatch",
    "EventBatch",
    "PartialAggregate",
    "RecordingTransport",
    "Transport",
    "decode_full_batch",
    "decode_full_batch_rows",
    "encode_full_batch",
    "encode_full_batch_into",
    "full_batch_wire_size",
    "scan_full_batch",
]


@dataclass(frozen=True)
class PartialAggregate:
    """One host's pre-aggregated contribution to one (window, group).

    ``values`` holds one plain-value partial per aggregate call, in the
    planner's ``unique_aggregates`` order.  Only produced by queries in
    the opt-in AGGREGATE ON HOSTS mode.
    """

    event_type: str
    window: int
    group_key: tuple
    values: tuple


@dataclass
class EventBatch:
    """One flush from one host for one query."""

    host: str
    query_id: str
    events: list[Event]
    #: (event_type, window_index) -> events that matched selection on this
    #: host since the previous flush (the estimator's M_i, per window).
    seen_counts: dict[tuple[str, int], int] = field(default_factory=dict)
    #: Events dropped on the host since the previous flush (buffer full).
    dropped: int = 0
    sent_at: float = 0.0
    #: Pre-aggregated partials (AGGREGATE ON HOSTS mode only).
    partials: list["PartialAggregate"] = field(default_factory=list)
    #: Matched events the impact governor shed (drop-with-count) since
    #: the previous flush — distinct from ``dropped``: shed events never
    #: reached the buffer, and the estimator widens bounds by their
    #: fraction rather than treating them as random sampling.
    shed: int = 0
    #: Structured reason when the governor quarantined (auto-uninstalled)
    #: this query on this host; empty while the query is healthy.  Rides
    #: the flush that reports the quarantine, exactly once.
    quarantined: str = ""

    def wire_size(self) -> int:
        """Encoded size in bytes — what the host actually ships.

        Exactly ``len(encode_full_batch(self))``, computed arithmetically
        (the ingest hot path charges this per batch; encoding the whole
        batch just to measure it was the single largest per-batch cost).
        """
        return full_batch_wire_size(self)


# -- full-batch wire codec -----------------------------------------------------
#
# Layout (little-endian, layered on events/encoding.py primitives):
#
#   u8   version (currently 2)
#   str  host                      str  query_id
#   f64  sent_at                   i64  dropped
#   i64  shed                      str  quarantined (reason; "" = none)
#   batch  events (u32 count + compact-binary events)
#   u32  seen-count entries; each: str event_type, i64 window, i64 count
#   u32  partials;            each: str event_type, i64 window,
#                                   value group_key (list), value values (list)
#
# v2 added the governor fields (shed, quarantined) after `dropped`.

_FULL_BATCH_VERSION = 2


def encode_full_batch_into(out: bytearray, batch: EventBatch) -> None:
    """Append an :class:`EventBatch`'s full wire encoding to *out*.

    The zero-alloc flush path: a transport writes every batch into one
    reusable buffer, events included, without intermediate ``bytes``.
    """
    out.append(_FULL_BATCH_VERSION)
    _write_str(out, batch.host)
    _write_str(out, batch.query_id)
    out += _F64.pack(batch.sent_at)
    out += _I64.pack(batch.dropped)
    out += _I64.pack(batch.shed)
    _write_str(out, batch.quarantined)
    encode_batch_into(out, batch.events)
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


def encode_full_batch(batch: EventBatch) -> bytes:
    """Encode an :class:`EventBatch` losslessly — metadata and all."""
    out = bytearray()
    encode_full_batch_into(out, batch)
    return bytes(out)


def full_batch_wire_size(batch: EventBatch) -> int:
    """Exactly ``len(encode_full_batch(batch))`` without encoding.

    Mirrors the writer field-for-field; the codec tests pin the two to
    byte equality, so a layout change that misses one side fails loudly.
    """
    size = 1 + _str_size(batch.host) + _str_size(batch.query_id) + 8 + 8
    size += 8 + _str_size(batch.quarantined)
    size += encoded_size_batch(batch.events)
    size += 4
    for (event_type, _window) in batch.seen_counts:
        size += _str_size(event_type) + 16
    size += 4
    for partial in batch.partials:
        size += _str_size(partial.event_type) + 8
        size += encoded_size_value(list(partial.group_key))
        size += encoded_size_value(list(partial.values))
    return size


def _read_full_batch_header(buf: memoryview) -> tuple:
    """Version check + the fixed metadata fields before the event batch.

    Shared by :func:`decode_full_batch` and :func:`scan_full_batch` so a
    corrupt prefix raises the same structured error from either path.
    """
    if len(buf) < 1 or buf[0] != _FULL_BATCH_VERSION:
        version = buf[0] if len(buf) else None
        raise ValueError(f"unsupported batch encoding version: {version!r}")
    pos = 1
    host, pos = _read_str(buf, pos)
    query_id, pos = _read_str(buf, pos)
    if pos + 24 > len(buf):
        raise _truncated(pos, 24, len(buf) - pos)
    (sent_at,) = _F64.unpack_from(buf, pos)
    pos += 8
    (dropped,) = _I64.unpack_from(buf, pos)
    pos += 8
    (shed,) = _I64.unpack_from(buf, pos)
    pos += 8
    quarantined, pos = _read_str(buf, pos)
    return host, query_id, sent_at, dropped, shed, quarantined, pos


def _read_full_batch_trailer(
    buf: memoryview, pos: int
) -> tuple[dict[tuple[str, int], int], list["PartialAggregate"]]:
    """Seen counts + partial aggregates after the event batch; rejects
    trailing garbage.  Shared by the decoder and the scanner."""
    if pos + 4 > len(buf):
        raise _truncated(pos, 4, len(buf) - pos)
    (seen_entries,) = _U32.unpack_from(buf, pos)
    pos += 4
    seen_counts: dict[tuple[str, int], int] = {}
    for _ in range(seen_entries):
        event_type, pos = _read_str(buf, pos)
        if pos + 16 > len(buf):
            raise _truncated(pos, 16, len(buf) - pos)
        (window,) = _I64.unpack_from(buf, pos)
        pos += 8
        (count,) = _I64.unpack_from(buf, pos)
        pos += 8
        seen_counts[(event_type, window)] = count
    if pos + 4 > len(buf):
        raise _truncated(pos, 4, len(buf) - pos)
    (partial_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    partials: list[PartialAggregate] = []
    for _ in range(partial_count):
        event_type, pos = _read_str(buf, pos)
        if pos + 8 > len(buf):
            raise _truncated(pos, 8, len(buf) - pos)
        (window,) = _I64.unpack_from(buf, pos)
        pos += 8
        group_key, pos = _read_value(buf, pos)
        values, pos = _read_value(buf, pos)
        partials.append(
            PartialAggregate(
                event_type=event_type,
                window=window,
                group_key=_retupled(group_key),
                values=_retupled(values),
            )
        )
    if pos != len(buf):
        raise ValueError(f"trailing garbage after batch at offset {pos}")
    return seen_counts, partials


def decode_full_batch(data: bytes | memoryview) -> EventBatch:
    """Inverse of :func:`encode_full_batch`; rejects trailing garbage."""
    buf = memoryview(data)
    host, query_id, sent_at, dropped, shed, quarantined, pos = (
        _read_full_batch_header(buf)
    )
    if pos + 4 > len(buf):
        raise _truncated(pos, 4, len(buf) - pos)
    (event_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    events: list[Event] = []
    for _ in range(event_count):
        event, pos = _decode_binary_at(buf, pos)
        events.append(event)
    seen_counts, partials = _read_full_batch_trailer(buf, pos)
    return EventBatch(
        host=host,
        query_id=query_id,
        events=events,
        seen_counts=seen_counts,
        dropped=dropped,
        sent_at=sent_at,
        partials=partials,
        shed=shed,
        quarantined=quarantined,
    )


def decode_full_batch_rows(
    data: bytes | memoryview, wanted: Callable[[str], bool]
) -> Optional[tuple[EventBatch, FixedRows]]:
    """Read a full-batch frame as fixed-layout rows, when it is one.

    Returns the batch metadata (an events-free :class:`EventBatch`) and
    the events as ``FixedRows``; or ``None`` — *wanted* refused the
    frame's query id or ``decode_fixed_rows`` its events — and the caller
    falls back to :func:`decode_full_batch`.  Header and trailer go
    through that decoder's readers, so this raises only what it would.
    """
    buf = data if isinstance(data, memoryview) else memoryview(data)
    header = _read_full_batch_header(buf)
    pos = header[-1]
    if pos + 4 > len(buf) or not wanted(header[1]):
        return None
    (count,) = _U32.unpack_from(buf, pos)
    fixed = decode_fixed_rows(buf, pos + 4, count)
    if fixed is None:
        return None
    return _events_free_batch(header, buf, fixed.end), fixed


def _events_free_batch(header: tuple, buf: memoryview, pos: int) -> EventBatch:
    """The batch-level metadata of a frame whose events stay undecoded:
    *header* from :func:`_read_full_batch_header`, the trailer at *pos*."""
    host, query_id, sent_at, dropped, shed, quarantined, _ = header
    seen_counts, partials = _read_full_batch_trailer(buf, pos)
    return EventBatch(
        host=host,
        query_id=query_id,
        events=[],
        seen_counts=seen_counts,
        dropped=dropped,
        sent_at=sent_at,
        partials=partials,
        shed=shed,
        quarantined=quarantined,
    )


class EncodedBatch:
    """One host flush still in its wire-frame form.

    Produced by :func:`scan_full_batch`: ``data`` is the whole frame,
    ``meta`` is an events-free :class:`EventBatch` carrying the decoded
    batch-level metadata (seen counts, drops, shed, quarantine reason,
    partials), and ``frames`` is the header index from one skip-scan —
    ``(request_id, timestamp, host, start, stop)`` per event, with
    ``data[start:stop]`` the event's encoded bytes.  No :class:`Event`
    is constructed; the ShardPool slices ``data`` straight to its shard
    workers from this index (docs/SCALING.md §"Zero-copy shard ingest").
    """

    __slots__ = ("data", "meta", "frames")

    def __init__(
        self,
        data: memoryview,
        meta: EventBatch,
        frames: list[tuple[int, float, str, int, int]],
    ) -> None:
        self.data = data
        self.meta = meta
        self.frames = frames

    def wire_size(self) -> int:
        """The frame's size *is* the wire size — no arithmetic mirror
        needed when the encoded bytes are already in hand."""
        return len(self.data)

    def to_event_batch(self) -> EventBatch:
        """Decode the events after all — the object-path fallback for
        queries the pool keeps on the parent (raw selections)."""
        buf = self.data
        events = [
            _decode_binary_at(buf, start)[0]
            for _rid, _ts, _host, start, _stop in self.frames
        ]
        meta = self.meta
        return EventBatch(
            host=meta.host,
            query_id=meta.query_id,
            events=events,
            seen_counts=meta.seen_counts,
            dropped=meta.dropped,
            sent_at=meta.sent_at,
            partials=meta.partials,
            shed=meta.shed,
            quarantined=meta.quarantined,
        )


def scan_full_batch(data: bytes | memoryview) -> EncodedBatch:
    """Index a full-batch wire frame without decoding its events.

    Decodes only the batch-level metadata; the embedded event batch is
    walked by :func:`~repro.core.events.encoding.scan_batch`, which
    verifies every byte extent.  A torn or corrupted frame raises the
    same structured error :func:`decode_full_batch` would.
    """
    buf = data if isinstance(data, memoryview) else memoryview(data)
    header = _read_full_batch_header(buf)
    frames, pos = scan_batch(buf, header[-1])
    return EncodedBatch(buf, _events_free_batch(header, buf, pos), frames)


def _retupled(value: Any) -> Any:
    """Group keys and partial payloads are tuples in memory but travel as
    the codec's list type; restore tuples recursively on decode."""
    if isinstance(value, list):
        return tuple(_retupled(item) for item in value)
    return value


class Transport(Protocol):
    """Anything that can deliver an :class:`EventBatch` to ScrubCentral."""

    def send(self, batch: EventBatch) -> None:  # pragma: no cover - protocol
        ...


class DirectTransport:
    """Synchronous delivery to a sink callable (no simulated network)."""

    def __init__(self, sink: Callable[[EventBatch], None]) -> None:
        self._sink = sink
        self.batches_sent = 0
        self.bytes_sent = 0

    def send(self, batch: EventBatch) -> None:
        self.batches_sent += 1
        self.bytes_sent += batch.wire_size()
        self._sink(batch)


class RecordingTransport:
    """Keeps every batch for later assertions (tests, examples).

    Tracks ``batches_sent``/``bytes_sent`` with the same semantics as
    :class:`DirectTransport`, so wire-volume assertions hold regardless
    of which transport a test wires in.
    """

    def __init__(self) -> None:
        self.batches: list[EventBatch] = []
        self.batches_sent = 0
        self.bytes_sent = 0

    def send(self, batch: EventBatch) -> None:
        self.batches_sent += 1
        self.bytes_sent += batch.wire_size()
        self.batches.append(batch)

    @property
    def events(self) -> list[Event]:
        return [event for batch in self.batches for event in batch.events]

    def clear(self) -> None:
        self.batches.clear()
