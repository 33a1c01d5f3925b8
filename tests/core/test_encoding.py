"""Round-trip tests for the event wire encodings, including properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.transport import (
    EventBatch,
    decode_full_batch,
    encode_full_batch,
    scan_full_batch,
)
from repro.core.events import Event
from repro.core.events.encoding import (
    decode_batch,
    decode_binary,
    decode_json,
    encode_batch,
    encode_batch_into,
    encode_binary,
    encode_binary_into,
    encode_json,
    encoded_size_batch,
    encoded_size_event,
    scan_batch,
)


def _event(payload, rid=7, ts=1.5, host="h1"):
    return Event("bid", payload, rid, ts, host)


SAMPLE_PAYLOADS = [
    {},
    {"city": "Porto"},
    {"price": 1.25, "count": 3, "ok": True, "note": None},
    {"ids": [1, 2, 3], "names": ["a", "b"]},
    {"meta": {"device": {"os": "linux"}, "v": 2}},
    {"mixed": [1, "two", 3.0, None, True]},
    {"unicode": "日本語 ünïcode ✓", "quote": 'he said "hi"'},
]


class TestJsonEncoding:
    @pytest.mark.parametrize("payload", SAMPLE_PAYLOADS)
    def test_round_trip(self, payload):
        event = _event(payload)
        assert decode_json(encode_json(event)) == event

    def test_one_line_per_event(self):
        assert encode_json(_event({"a": 1})).count(b"\n") == 1

    def test_decodes_from_str(self):
        event = _event({"a": 1})
        assert decode_json(encode_json(event).decode()) == event


class TestBinaryEncoding:
    @pytest.mark.parametrize("payload", SAMPLE_PAYLOADS)
    def test_round_trip(self, payload):
        event = _event(payload)
        assert decode_binary(encode_binary(event)) == event

    def test_denser_than_json_for_typical_payload(self):
        event = _event(
            {"exchange_id": 123456, "city": "San Jose", "country": "US",
             "bid_price": 1.25, "campaign_id": 98765}
        )
        assert len(encode_binary(event)) < len(encode_json(event))

    def test_trailing_garbage_rejected(self):
        data = encode_binary(_event({"a": 1})) + b"x"
        with pytest.raises(ValueError, match="trailing"):
            decode_binary(data)

    def test_corrupt_tag_rejected(self):
        data = bytearray(encode_binary(_event({"a": 1})))
        data[-9] = ord("Z")  # clobber the value tag of field 'a'
        with pytest.raises(ValueError, match="unknown tag"):
            decode_binary(bytes(data))

    def test_unencodable_value(self):
        with pytest.raises(TypeError, match="unencodable"):
            encode_binary(_event({"bad": object()}))

    def test_negative_ints(self):
        event = _event({"a": -(2**40)})
        assert decode_binary(encode_binary(event)) == event


class TestBatchEncoding:
    def test_round_trip(self):
        events = [_event({"i": i}, rid=i) for i in range(10)]
        assert decode_batch(encode_batch(events)) == events

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_batch_trailing_garbage(self):
        with pytest.raises(ValueError, match="trailing"):
            decode_batch(encode_batch([_event({})]) + b"!")


# -- torn and corrupted frames -----------------------------------------------------
#
# The zero-copy scanner must fail *identically* to the decoder: a torn or
# corrupted buffer raises the same structured error at the same offset
# whether it is fully decoded or only scanned for shard slices — never a
# silent drop, never a mis-slice.  Test data is ASCII on purpose: the
# scanner skips event-type and payload-key strings without a utf-8
# decode, so only byte-level surgery (truncation, tag/length/count
# clobbering) is guaranteed to surface symmetrically.


def _scan_whole(buf: bytes) -> list:
    """`scan_batch` over a buffer that is the batch and nothing else: it
    reports where the batch ended (a full-batch frame carries on from
    there), so a caller that owns the whole buffer checks it got there."""
    frames, end = scan_batch(buf)
    if end != len(buf):
        raise ValueError(f"trailing garbage after batch at offset {end}")
    return frames


def _raises_identically(buf: bytes) -> None:
    """Both paths must reject *buf* with the same error type and text."""
    with pytest.raises(ValueError) as decode_err:
        decode_batch(buf)
    with pytest.raises(ValueError) as scan_err:
        _scan_whole(buf)
    assert str(scan_err.value) == str(decode_err.value)


def _full_raises_identically(data: bytes) -> None:
    with pytest.raises(ValueError) as decode_err:
        decode_full_batch(data)
    with pytest.raises(ValueError) as scan_err:
        scan_full_batch(data)
    assert str(scan_err.value) == str(decode_err.value)


class TestTornFrames:
    BATCH = [
        _event({"price": 1.25, "city": "Porto", "tags": [1, "a", None]},
               rid=3, ts=2.0, host="h1"),
        _event({"count": 7, "nested": {"deep": {"ok": True}}},
               rid=-9, ts=61.0, host="h2"),
        _event({}, rid=4, ts=0.5, host="h1"),
    ]

    def test_every_truncation_point_fails_identically(self):
        buf = encode_batch(self.BATCH)
        for cut in range(len(buf)):
            _raises_identically(buf[:cut])

    def test_every_full_batch_truncation_fails_identically(self):
        data = encode_full_batch(
            EventBatch(
                host="h1",
                query_id="q1",
                events=self.BATCH,
                seen_counts={("bid", 0): 9},
                dropped=2,
                shed=1,
                quarantined="budget",
            )
        )
        for cut in range(len(data)):
            _full_raises_identically(data[:cut])

    def test_trailing_garbage_fails_identically(self):
        _raises_identically(encode_batch(self.BATCH) + b"\x00")
        _raises_identically(encode_batch([]) + b"junk")

    def test_corrupt_value_tag_fails_identically(self):
        buf = bytearray(encode_batch([_event({"a": 1}, host="h")]))
        # Layout of the only field: [u32 klen]['a'][tag][i64]; the tag
        # byte sits 9 bytes from the end.
        assert buf[-9:-8] == b"I"
        buf[-9] = ord("Z")
        _raises_identically(bytes(buf))

    def test_inflated_string_length_fails_identically(self):
        buf = bytearray(encode_batch([_event({}, host="hh")]))
        # The batch is [u32 count][u32 tlen]["bid"]...; inflate the
        # event-type length so it runs past the end of the buffer.
        buf[4:8] = (2**20).to_bytes(4, "little")
        _raises_identically(bytes(buf))

    def test_inflated_event_count_fails_identically(self):
        buf = bytearray(encode_batch(self.BATCH))
        buf[0:4] = (len(self.BATCH) + 1).to_bytes(4, "little")
        _raises_identically(bytes(buf))

    def test_inflated_field_count_fails_identically(self):
        event = _event({"a": 1}, host="h")
        buf = bytearray(encode_batch([event]))
        # The <qdI header trails the two leading strings; its last 4
        # bytes (nfields) start 20 bytes after them.  Inflate nfields so
        # both walkers run off the end mid-field-list.
        header_at = 4 + (4 + len("bid")) + (4 + len("h"))
        nfields_at = header_at + 8 + 8
        assert buf[nfields_at:nfields_at + 4] == (1).to_bytes(4, "little")
        buf[nfields_at:nfields_at + 4] = (3).to_bytes(4, "little")
        _raises_identically(bytes(buf))

    @pytest.mark.parametrize("stamp", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_timestamp_fails_identically(self, stamp):
        """No window can hold such an event, so the codec — decoder and
        scanner alike — rejects the batch before the engine books any of it."""
        events = [self.BATCH[0], _event({"a": 1}, ts=stamp), self.BATCH[2]]
        buf = encode_batch(events)
        _raises_identically(buf)
        with pytest.raises(ValueError, match="non-finite timestamp") as err:
            decode_batch(buf)
        # The offset names the timestamp itself: 8 bytes into the <qdI header.
        at = 4 + len(encode_binary(events[0])) + (4 + len("bid")) + (4 + len("h1")) + 8
        assert str(err.value).endswith(f"at offset {at}")
        _full_raises_identically(
            encode_full_batch(EventBatch(host="h1", query_id="q1", events=events))
        )

    def test_scanner_never_silently_short_slices(self):
        """A cut anywhere inside the batch body can never yield a scan
        that quietly returns fewer events than the count prefix."""
        buf = encode_batch(self.BATCH)
        for cut in range(4, len(buf)):
            with pytest.raises(ValueError):
                scan_batch(buf[:cut])


# -- property-based round trips ---------------------------------------------------

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
_payload = st.dictionaries(
    st.text(min_size=1, max_size=15), _value, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(
    payload=_payload,
    rid=st.integers(min_value=0, max_value=2**62),
    ts=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    host=st.text(max_size=20),
)
def test_binary_round_trip_property(payload, rid, ts, host):
    event = Event("evt", payload, rid, ts, host)
    assert decode_binary(encode_binary(event)) == event


@settings(max_examples=100, deadline=None)
@given(payloads=st.lists(_payload, max_size=8))
def test_batch_round_trip_property(payloads):
    events = [Event("evt", p, i, float(i), "h") for i, p in enumerate(payloads)]
    assert decode_batch(encode_batch(events)) == events


@settings(max_examples=100, deadline=None)
@given(payloads=st.lists(_payload, max_size=8))
def test_encoded_sizes_are_exact(payloads):
    """The arithmetic size mirrors equal the writers byte-for-byte, and
    the ``_into`` writers produce the same bytes at any buffer offset
    (the zero-alloc flush path appends mid-buffer)."""
    events = [Event("evt", p, i, float(i), "h") for i, p in enumerate(payloads)]
    encoded = encode_batch(events)
    assert encoded_size_batch(events) == len(encoded)
    for event in events:
        assert encoded_size_event(event) == len(encode_binary(event))
    # Append into a dirty reusable buffer: identical bytes after the prefix.
    out = bytearray(b"\xaa\xbb\xcc")
    encode_batch_into(out, events)
    assert bytes(out[3:]) == encoded
    if events:
        out2 = bytearray()
        encode_binary_into(out2, events[0])
        assert bytes(out2) == encode_binary(events[0])
