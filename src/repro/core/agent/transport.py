"""Host → ScrubCentral transport abstraction.

In production Scrub ships events over a messaging substrate; here the
transport is a small interface with several implementations:

* :class:`DirectTransport` — hands each batch's frame straight to a sink
  callable (ScrubCentral's ``ingest_frame``); used for in-process runs
  and tests.
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
the primitives of ``events/encoding.py``.  The agent's ``flush()``
writes each batch's frame once, with :func:`write_batch`, straight from
its buffered payloads; every byte count (agent stats, the governor,
transports, the central engine, the simulated network) is the length
of that frame.  No :class:`Event` is built on the way out: a batch's
``events`` are decoded from its frame only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Protocol

from ..events import Event
from ..events.encoding import (
    _F64,
    _I64,
    _U32,
    _read_str,
    _read_value,
    _truncated,
    _write_str,
    _write_value,
    UNENCODABLE,
    FixedPackers,
    FixedRows,
    decode_fixed_rows,
    encode_rows_into,
    scan_batch,
)
from ..events.encoding import _decode_binary_at

__all__ = [
    "DirectTransport",
    "EncodedBatch",
    "EventBatch",
    "MAX_FRAME_BYTES",
    "PartialAggregate",
    "RecordingTransport",
    "Transport",
    "decode_full_batch",
    "decode_full_batch_rows",
    "encode_full_batch",
    "encode_full_batch_into",
    "scan_full_batch",
    "write_batch",
]

#: Largest message a wire frame may carry (message type byte included).
MAX_FRAME_BYTES = 64 * 1024 * 1024


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


class EventBatch:
    """One flush from one host for one query.

    Besides the sampled events, a batch carries ``seen_counts`` —
    ``(event_type, window_index) -> events that matched selection`` on
    this host since the previous flush (the estimator's M_i) —
    ``dropped`` (events lost on the host: a full buffer, a transport
    outage, a value the writer refused), ``shed`` (matched events the
    impact governor dropped-with-count; the estimator widens bounds by
    their fraction rather than treating them as random sampling),
    ``partials`` (AGGREGATE ON HOSTS mode only) and ``quarantined``
    (the governor's structured reason, on the one flush that reports
    it).

    A batch is either built from :class:`Event` objects (tests, the
    central's decoders), or written by :func:`write_batch` as a wire
    frame: its ``events`` are then decoded from that frame on first
    read.  ``frame`` is the full-batch wire encoding either way (a batch
    decoded from ``bytes`` keeps them); ``event_count`` never decodes.
    A frame is never rewritten, so nothing may change a batch that has
    one.
    """

    __slots__ = (
        "host",
        "query_id",
        "_events",
        "seen_counts",
        "dropped",
        "sent_at",
        "partials",
        "shed",
        "quarantined",
        "_frame",
        "_count",
    )

    def __init__(
        self,
        host: str,
        query_id: str,
        events: Optional[list[Event]] = None,
        seen_counts: Optional[dict[tuple[str, int], int]] = None,
        dropped: int = 0,
        sent_at: float = 0.0,
        partials: Optional[list["PartialAggregate"]] = None,
        shed: int = 0,
        quarantined: str = "",
        *,
        frame: Optional[bytes] = None,
        event_count: int = 0,
    ) -> None:
        self.host = host
        self.query_id = query_id
        self._events = [] if events is None and frame is None else events
        self.seen_counts = {} if seen_counts is None else seen_counts
        self.dropped = dropped
        self.sent_at = sent_at
        self.partials = [] if partials is None else partials
        self.shed = shed
        self.quarantined = quarantined
        self._frame = frame
        self._count = event_count

    @property
    def events(self) -> list[Event]:
        if self._events is None:
            self._events = decode_full_batch(self._frame).events
        return self._events

    @property
    def event_count(self) -> int:
        return self._count if self._events is None else len(self._events)

    @property
    def frame(self) -> bytes:
        """The full-batch wire frame: the one :func:`write_batch` wrote,
        or — for a batch built from events — written on first read and
        kept.  Raises what the writer refused in such a batch."""
        if self._frame is None:
            rows = [(e, e.payload, e.request_id, e.timestamp) for e in self._events]
            frame, refused, kept = _write_frame(
                self.host, self.query_id, self.sent_at, rows, self.dropped, self.shed,
                self.quarantined, self.seen_counts, self.partials, FixedPackers(),
            )
            if refused:
                raise refused[0][1]
            if len(kept) != len(self.partials):
                raise ValueError(f"unwritable partial aggregate in batch {self!r}")
            self._frame = frame
        return self._frame

    def _fields(self) -> tuple:
        return (
            self.host, self.query_id, self.events, self.seen_counts, self.dropped,
            self.sent_at, self.partials, self.shed, self.quarantined,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"EventBatch(host={self.host!r}, query_id={self.query_id!r}, "
            f"events={self.event_count}, seen_counts={self.seen_counts!r}, "
            f"dropped={self.dropped}, shed={self.shed}, "
            f"quarantined={self.quarantined!r})"
        )


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

def write_batch(
    host: str,
    query_id: str,
    sent_at: float,
    rows: Iterable[tuple] = (),
    *,
    dropped: int = 0,
    shed: int = 0,
    quarantined: str = "",
    seen_counts: Optional[dict[tuple[str, int], int]] = None,
    partials: Optional[list[PartialAggregate]] = None,
    packers: Optional[FixedPackers] = None,
) -> tuple[Optional[EventBatch], list]:
    """Write one batch's frame in one pass over *rows* — the agent's
    buffered ``(source, payload, request_id, timestamp)`` tuples (see
    :func:`~repro.core.events.encoding.encode_rows_into`).

    *packers* caches layouts across calls (the agent keeps one).
    Returns the batch, carrying its frame, and the rows refused: a row
    whose values cannot be written is left out and counted in the
    frame's ``dropped``; a frame over :data:`MAX_FRAME_BYTES` keeps its
    counters and refuses every row.  A partial aggregate that cannot be
    written is left out too, and counted in ``dropped`` as one lost
    event (its events are not known); the batch's ``partials`` are the
    ones its frame holds.  The batch is ``None`` — every row refused,
    nothing to ship — only when the counters themselves cannot be
    written (a window index outside int64)."""
    seen_counts = {} if seen_counts is None else seen_counts
    partials = [] if partials is None else partials
    packers = FixedPackers() if packers is None else packers
    rows = rows if isinstance(rows, list) else list(rows)
    try:
        frame, refused, kept = _write_frame(
            host, query_id, sent_at, rows, dropped, shed, quarantined, seen_counts,
            partials, packers,
        )
        if len(frame) >= MAX_FRAME_BYTES:
            # Too big to send: the counters go, every row counted dropped.
            refused = [(row, None) for row in rows]
            frame, _, kept = _write_frame(
                host, query_id, sent_at, [], dropped + len(rows), shed, quarantined,
                seen_counts, partials, packers,
            )
    except UNENCODABLE:
        return None, [(row, None) for row in rows]
    batch = EventBatch(
        host, query_id, None, seen_counts,
        dropped + len(refused) + len(partials) - len(kept), sent_at, kept, shed,
        quarantined, frame=frame, event_count=len(rows) - len(refused),
    )
    return batch, refused


def _write_frame(
    host: str,
    query_id: str,
    sent_at: float,
    rows: list,
    dropped: int,
    shed: int,
    quarantined: str,
    seen_counts: dict[tuple[str, int], int],
    partials: list[PartialAggregate],
    packers: FixedPackers,
) -> tuple[bytes, list, list[PartialAggregate]]:
    """One frame: returns it, the rows refused and the partials kept."""
    out = bytearray()
    out.append(_FULL_BATCH_VERSION)
    _write_str(out, host)
    _write_str(out, query_id)
    out += _F64.pack(sent_at)
    dropped_at = len(out)
    out += _I64.pack(dropped)
    out += _I64.pack(shed)
    _write_str(out, quarantined)
    count_at = len(out)
    out += _U32.pack(len(rows))
    refused = encode_rows_into(out, rows, packers) if rows else []
    if refused:
        _U32.pack_into(out, count_at, len(rows) - len(refused))
    out += _U32.pack(len(seen_counts))
    for (event_type, window), count in seen_counts.items():
        _write_str(out, event_type)
        out += _I64.pack(window)
        out += _I64.pack(count)
    count_at = len(out)
    out += _U32.pack(len(partials))
    kept = []
    for partial in partials:
        start = len(out)
        try:
            _write_str(out, partial.event_type)
            out += _I64.pack(partial.window)
            _write_value(out, list(partial.group_key))
            _write_value(out, list(partial.values))
        except UNENCODABLE:
            del out[start:]
        else:
            kept.append(partial)
    if len(kept) != len(partials):
        _U32.pack_into(out, count_at, len(kept))
    lost = len(refused) + len(partials) - len(kept)
    if lost:
        _I64.pack_into(out, dropped_at, dropped + lost)
    return bytes(out), refused, kept


def encode_full_batch_into(out: bytearray, batch: EventBatch) -> None:
    """Append an :class:`EventBatch`'s full wire encoding to *out*."""
    out += batch.frame


def encode_full_batch(batch: EventBatch) -> bytes:
    """Encode an :class:`EventBatch` losslessly — metadata and all."""
    return batch.frame


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
    batch = EventBatch(
        host, query_id, events, seen_counts, dropped, sent_at, partials, shed, quarantined
    )
    if type(data) is bytes:
        batch._frame = data  # immutable: the frame is the input, not a copy
    return batch


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
    """Synchronous delivery of each batch's frame to a sink callable
    (``CentralEngine.ingest_frame``; no simulated network)."""

    def __init__(self, sink: Callable[[bytes], None]) -> None:
        self._sink = sink
        self.batches_sent = 0
        self.bytes_sent = 0

    def send(self, batch: EventBatch) -> None:
        frame = batch.frame
        self.batches_sent += 1
        self.bytes_sent += len(frame)
        self._sink(frame)


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
        self.bytes_sent += len(batch.frame)
        self.batches.append(batch)

    @property
    def events(self) -> list[Event]:
        return [event for batch in self.batches for event in batch.events]

    def clear(self) -> None:
        self.batches.clear()
