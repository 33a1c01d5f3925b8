"""Differential tests for the zero-copy frame scanner.

Partitioning `scan_batch`'s index by ``request_id % n`` — the rule
`ShardPool.ingest_frame` applies inline — must be *provably*
interchangeable with decode-then-partition: for any encoded batch,
slicing by byte extents and decoding per shard yields exactly the
events `decode_batch` would have routed there — same events, same order
within a shard — and `scan_batch` reads the same header fields
(request id, timestamp, host) the decoded events carry.  This is the
correctness wall the ShardPool's frame ingest stands behind
(docs/SCALING.md §"Zero-copy shard ingest"): the benchmark numbers are
only believed because these properties hold for arbitrary payloads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.transport import (
    EventBatch,
    PartialAggregate,
    decode_full_batch,
    encode_full_batch,
    scan_full_batch,
)
from repro.core.events import Event
from repro.core.events.encoding import (
    decode_batch,
    decode_event_frames,
    scan_batch,
)

from .wire_oracle import encode_batch, encode_binary

# Arbitrary nested payloads, same shape as the codec round-trip suite.
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(min_size=1, max_size=10), children, max_size=4),
    ),
    max_leaves=15,
)
_payload = st.dictionaries(st.text(min_size=1, max_size=15), _value, max_size=6)

# Request ids include negatives: the header is a *signed* i64 (`<q`), and
# Python's % gives the same non-negative shard for both ingest paths.
_events = st.lists(
    st.tuples(
        _payload,
        st.integers(min_value=-(2**62), max_value=2**62),  # request_id
        st.floats(min_value=0, max_value=1e9, allow_nan=False),  # timestamp
        st.sampled_from(["h1", "h2", "web-042.sjc"]),
    ),
    max_size=12,
).map(
    lambda rows: [
        Event("bid", payload, rid, ts, host)
        for payload, rid, ts, host in rows
    ]
)


def _partition_by_decode(events: list[Event], n: int) -> list[list[Event]]:
    """The reference semantics: decode everything, then shard."""
    shards: list[list[Event]] = [[] for _ in range(n)]
    for event in events:
        shards[event.request_id % n].append(event)
    return shards


def _shard_slices(buf: bytes, n: int) -> list[list[bytes]]:
    """The pool's partition, literally: each scanned extent goes to shard
    ``request_id % n``, in arrival order."""
    frames, end = scan_batch(buf)
    assert end == len(buf)
    shards: list[list[bytes]] = [[] for _ in range(n)]
    for request_id, _timestamp, _host, start, stop in frames:
        shards[request_id % n].append(buf[start:stop])
    return shards


@settings(max_examples=150, deadline=None)
@given(events=_events, n=st.integers(min_value=1, max_value=5))
def test_shard_slices_equal_decode_then_partition(events, n):
    buf = encode_batch(events)
    expected = _partition_by_decode(decode_batch(buf), n)
    sliced = _shard_slices(buf, n)
    assert len(sliced) == n
    for shard_slices, shard_events in zip(sliced, expected):
        payload = b"".join(shard_slices)
        assert decode_event_frames(payload, len(shard_slices)) == shard_events


@settings(max_examples=150, deadline=None)
@given(events=_events)
def test_scan_reads_the_same_headers_the_decoder_does(events):
    buf = encode_batch(events)
    frames, end = scan_batch(buf)
    assert end == len(buf)
    decoded = decode_batch(buf)
    assert [(f[0], f[1], f[2]) for f in frames] == [
        (e.request_id, e.timestamp, e.host) for e in decoded
    ]
    # Byte extents are exact and contiguous: each extent decodes to its
    # event alone, and the extents tile the batch body with no gaps.
    pos = 4  # count prefix
    for frame, event in zip(frames, decoded):
        _rid, _ts, _host, start, stop = frame
        assert start == pos
        assert decode_event_frames(buf[start:stop], 1) == [event]
        pos = stop
    assert pos == len(buf)


class TestDirected:
    def test_empty_batch(self):
        buf = encode_batch([])
        assert scan_batch(buf) == ([], len(buf))

    def test_single_event(self):
        event = Event("bid", {"price": 1.25}, 41, 7.0, "h1")
        shards = _shard_slices(encode_batch([event]), 4)
        assert [len(s) for s in shards] == [0, 1, 0, 0]
        assert decode_event_frames(shards[1][0], 1) == [event]
        assert shards[1][0] == encode_binary(event)

    def test_one_shard_gets_everything(self):
        events = [Event("bid", {"i": i}, i * 7 - 3, float(i), "h") for i in range(9)]
        (shard,) = _shard_slices(encode_batch(events), 1)
        assert decode_event_frames(b"".join(shard), len(shard)) == events

    def test_trailing_garbage_rejected(self):
        """`scan_batch` may sit mid-buffer, so it reports where the batch
        ended; the full-batch scanner, which owns the whole frame, rejects
        leftover bytes like its decoder."""
        buf = encode_batch([Event("bid", {}, 1, 0.0, "h")])
        assert scan_batch(buf + b"!")[1] == len(buf)
        data = encode_full_batch(EventBatch(host="h", query_id="q", events=[])) + b"!"
        with pytest.raises(ValueError, match="trailing") as full_err:
            decode_full_batch(data)
        with pytest.raises(ValueError) as scan_err:
            scan_full_batch(data)
        assert str(scan_err.value) == str(full_err.value)

    @pytest.mark.parametrize("stamp", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_timestamp_rejected_like_the_decoder(self, stamp):
        events = [Event("bid", {"a": 1}, 1, 2.0, "h"), Event("bid", {"a": 2}, 2, stamp, "h")]
        buf = encode_batch(events)
        with pytest.raises(ValueError, match="non-finite timestamp") as decode_err:
            decode_batch(buf)
        with pytest.raises(ValueError) as scan_err:
            scan_batch(buf)
        assert str(scan_err.value) == str(decode_err.value)
        data = encode_full_batch(EventBatch(host="h", query_id="q", events=events))
        with pytest.raises(ValueError, match="non-finite timestamp") as full_err:
            decode_full_batch(data)
        with pytest.raises(ValueError) as scan_err:
            scan_full_batch(data)
        assert str(scan_err.value) == str(full_err.value)

    def test_slices_are_views_not_copies(self):
        """The pool copies each extent once, from the frame it was handed
        into a worker's ring: the scan result holds a view of that frame."""
        data = encode_full_batch(
            EventBatch(host="h", query_id="q", events=[Event("bid", {"a": 1}, 0, 0.0, "h")])
        )
        enc = scan_full_batch(data)
        assert isinstance(enc.data, memoryview) and enc.data.obj is data
        ((_rid, _ts, _host, start, stop),) = enc.frames
        assert enc.data[start:stop].obj is data


# -- full-batch scan ----------------------------------------------------------

_batches = st.builds(
    EventBatch,
    host=st.sampled_from(["h1", "web-042.sjc"]),
    query_id=st.sampled_from(["q1", "q-long-name"]),
    events=_events,
    seen_counts=st.dictionaries(
        st.tuples(st.sampled_from(["bid", "click"]), st.integers(0, 5)),
        st.integers(min_value=0, max_value=10_000),
        max_size=4,
    ),
    dropped=st.integers(min_value=0, max_value=100),
    sent_at=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    partials=st.lists(
        st.builds(
            PartialAggregate,
            event_type=st.just("bid"),
            window=st.integers(0, 5),
            group_key=st.tuples(st.integers(0, 9)),
            values=st.tuples(st.integers(0, 99), st.floats(0, 10, allow_nan=False)),
        ),
        max_size=2,
    ),
    shed=st.integers(min_value=0, max_value=50),
    quarantined=st.sampled_from(["", "budget breached"]),
)


@settings(max_examples=100, deadline=None)
@given(batch=_batches)
def test_scan_full_batch_matches_decode_full_batch(batch):
    """The scanner's metadata + frame index reconstructs the decoder's
    batch exactly — `to_event_batch()` is the object-path fallback the
    pool takes for raw selections, so it must be lossless."""
    data = encode_full_batch(batch)
    enc = scan_full_batch(data)
    assert len(enc.data) == len(data) == len(batch.frame)
    assert enc.to_event_batch() == decode_full_batch(data) == batch
    meta = enc.meta
    assert meta.events == []
    assert (meta.host, meta.query_id, meta.sent_at) == (
        batch.host, batch.query_id, batch.sent_at,
    )
    assert (meta.dropped, meta.shed, meta.quarantined) == (
        batch.dropped, batch.shed, batch.quarantined,
    )
    assert meta.seen_counts == batch.seen_counts
    assert meta.partials == batch.partials
    assert [(f[0], f[1], f[2]) for f in enc.frames] == [
        (e.request_id, e.timestamp, e.host) for e in batch.events
    ]


def test_full_batch_rejects_bad_version():
    for reader in (decode_full_batch, scan_full_batch):
        with pytest.raises(ValueError, match="unsupported batch encoding version"):
            reader(b"\x7fxxxx")
        with pytest.raises(ValueError, match="unsupported batch encoding version"):
            reader(b"")
