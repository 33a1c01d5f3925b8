"""Round-trip properties for the lossless full-batch wire codec, and the
byte accounting built on it (every counter is a frame's length,
identical across transports)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.transport import (
    DirectTransport,
    EventBatch,
    PartialAggregate,
    RecordingTransport,
    decode_full_batch,
    encode_full_batch,
    encode_full_batch_into,
)
from repro.core.events import Event

from .wire_oracle import oracle_encode_full_batch

# -- strategies -------------------------------------------------------------------

_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
)
_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=3),
    ),
    max_leaves=10,
)
_payload = st.dictionaries(st.text(min_size=1, max_size=12), _value, max_size=5)

_events = st.lists(_payload, max_size=6).map(
    lambda payloads: [
        Event("evt", p, i, float(i) * 1.5, f"h{i % 3}") for i, p in enumerate(payloads)
    ]
)
_seen_counts = st.dictionaries(
    st.tuples(st.text(max_size=12), st.integers(-(2**40), 2**40)),
    st.integers(min_value=0, max_value=2**40),
    max_size=6,
)
# Group-key parts and partial payloads are scalars or tuples of scalars
# (what `_group_key_part` and `to_partial` actually produce).
_key_part = st.one_of(_scalar, st.lists(_scalar, max_size=3).map(tuple))
_partials = st.lists(
    st.builds(
        PartialAggregate,
        event_type=st.text(max_size=10),
        window=st.integers(min_value=-(2**40), max_value=2**40),
        group_key=st.lists(_key_part, max_size=3).map(tuple),
        values=st.lists(_key_part, max_size=3).map(tuple),
    ),
    max_size=4,
)


def _batch(**overrides) -> EventBatch:
    base = dict(
        host="host-1",
        query_id="q00001",
        events=[Event("bid", {"p": 1.25}, 7, 3.0, "host-1")],
        seen_counts={("bid", 0): 4},
        dropped=2,
        sent_at=9.5,
        partials=[
            PartialAggregate("bid", 0, ("us", ("a", 2)), values=((10.0, True), 3))
        ],
    )
    base.update(overrides)
    return EventBatch(**base)


# -- the hypothesis property (events × seen_counts × partials × dropped) ---------


@settings(max_examples=120, deadline=None)
@given(
    events=_events,
    seen_counts=_seen_counts,
    partials=_partials,
    dropped=st.integers(min_value=0, max_value=2**40),
    sent_at=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    host=st.text(max_size=20),
    query_id=st.text(max_size=20),
    shed=st.integers(min_value=0, max_value=2**40),
    quarantined=st.text(max_size=40),
)
def test_full_batch_round_trip_property(
    events, seen_counts, partials, dropped, sent_at, host, query_id, shed, quarantined
):
    batch = EventBatch(
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
    encoded = encode_full_batch(batch)
    assert decode_full_batch(encoded) == batch
    assert encoded == oracle_encode_full_batch(batch)
    # The writer appends identical bytes to a dirty, reused buffer —
    # the v2 shed/quarantine fields included.
    out = bytearray(b"\x00\x01\x02")
    encode_full_batch_into(out, batch)
    assert bytes(out[3:]) == encoded
    reborn = decode_full_batch(memoryview(out)[3:])
    assert reborn.shed == shed and reborn.quarantined == quarantined


# -- directed edge cases ----------------------------------------------------------


class TestFullBatchCodec:
    def test_round_trip_everything(self):
        batch = _batch()
        assert decode_full_batch(encode_full_batch(batch)) == batch

    def test_empty_batch(self):
        batch = EventBatch(host="h", query_id="q", events=[])
        encoded = encode_full_batch(batch)
        assert decode_full_batch(encoded) == batch
        assert encoded == oracle_encode_full_batch(batch)

    def test_unicode_fields(self):
        batch = _batch(
            host="хост-✓",
            query_id="q-日本語",
            events=[Event("evt", {"täg": "ünïcode ✓"}, 1, 2.0, "хост-✓")],
            seen_counts={("evt", -3): 9},
            partials=[PartialAggregate("evt", -3, ("日本",), values=("✓",))],
        )
        assert decode_full_batch(encode_full_batch(batch)) == batch

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            decode_full_batch(encode_full_batch(_batch()) + b"!")

    def test_bad_version_rejected(self):
        data = bytearray(encode_full_batch(_batch()))
        data[0] = 99
        with pytest.raises(ValueError, match="version"):
            decode_full_batch(bytes(data))

    def test_nested_tuples_restored(self):
        partial = PartialAggregate(
            "evt", 1, group_key=(("a", ("b", 2)),), values=((1.0, (2, 3)),)
        )
        batch = _batch(partials=[partial], events=[], seen_counts={}, dropped=0)
        decoded = decode_full_batch(encode_full_batch(batch))
        assert decoded.partials[0].group_key == (("a", ("b", 2)),)
        assert decoded.partials[0].values == ((1.0, (2, 3)),)


# -- byte accounting and transport consistency -----------------------------------


class TestWireAccounting:
    def test_metadata_is_counted(self):
        plain = _batch(seen_counts={}, partials=[], dropped=0)
        heavy = _batch(
            seen_counts={("bid", w): 1 for w in range(50)}, partials=[], dropped=0
        )
        assert len(heavy.frame) > len(plain.frame) + 50 * 16

    def test_direct_and_recording_transports_agree(self):
        batches = [_batch(), _batch(events=[], seen_counts={("bid", 1): 2})]
        direct = DirectTransport(lambda b: None)
        recording = RecordingTransport()
        for batch in batches:
            direct.send(batch)
            recording.send(batch)
        assert recording.batches_sent == direct.batches_sent == len(batches)
        assert recording.bytes_sent == direct.bytes_sent
        assert recording.bytes_sent == sum(len(b.frame) for b in batches)
