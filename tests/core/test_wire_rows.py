"""The fixed-layout row door is the object door, observably.

``CentralEngine.ingest_frame`` may read a frame's events as wire rows —
one ``struct.iter_unpack`` instead of one ``Event`` per event
(docs/SCALING.md §"Fixed-layout row ingest") — and whether it does is
decided from the query and the frame's bytes alone.  So for *every*
frame, valid or not, it must be indistinguishable from
``ingest(decode_full_batch(frame))``: the same windows, rows, estimates,
coverage, late counts and ``CentralStats`` (apart from ``events_rowed``,
which says which path ran), or the same exception with the same message.

Three walls: (a) a Hypothesis differential over random batch sequences
and six query shapes, (b) byte surgery on a fixed-layout frame — every
truncation, and a change to every byte the template treats as constant —
and (c) ``decode_fixed_rows`` against arbitrary bytes.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.transport import EventBatch, decode_full_batch, encode_full_batch
from repro.core.central.engine import CentralEngine
from repro.core.events import Event, EventRegistry
from repro.core.events.encoding import (
    decode_batch,
    decode_fixed_rows,
    fixed_row_slots,
)

from .wire_oracle import encode_batch, encode_binary
from repro.core.query import parse_query, plan_query, validate_query

WINDOW = 10.0

QUERIES = {
    "grouped-sketches": (
        "select bid.exchange_id, COUNT(*), SUM(bid.bid_price), "
        "COUNT_DISTINCT(bid.user_id), TOP(5, bid.user_id) "
        "from bid window 10s group by bid.exchange_id;"
    ),
    "thousand-groups": (
        "select bid.user_id, COUNT(*), SUM(bid.bid_price) "
        "from bid window 10s group by bid.user_id;"
    ),
    "global-min-max-avg": (
        "select MIN(bid.bid_price), MAX(bid.bid_price), AVG(bid.bid_price), "
        "COUNT(bid.user_id) from bid window 10s;"
    ),
    "two-key-having-quantile": (
        "select bid.exchange_id, bid.user_id % 3, QUANTILE(bid.bid_price, 0.5), COUNT(*) "
        "from bid window 10s group by bid.exchange_id, bid.user_id % 3 "
        "having COUNT(*) > 1 and MAX(bid.bid_price) >= 0.5;"
    ),
    "raw-selection": (
        "select bid.user_id, bid.bid_price * 2, bid.request_id, bid.timestamp "
        "from bid window 10s;"
    ),
    "sampled-estimates": (
        "select COUNT(*), SUM(bid.bid_price), AVG(bid.bid_price) "
        "from bid window 10s sample events 50%;"
    ),
}
#: Queries wire rows cannot serve: they stay on the Event path whatever
#: the bytes look like (a join never reaches a single-type batch here).
EVENT_PATH_QUERIES = {
    "reads-host": "select bid.host, COUNT(*) from bid window 10s group by bid.host;",
    "host-in-aggregate": "select COUNT_DISTINCT(bid.host) from bid window 10s;",
    "slide": "select COUNT(*), SUM(bid.bid_price) from bid window 10s slide 5s;",
}


def _registry() -> EventRegistry:
    registry = EventRegistry()
    registry.define(
        "bid",
        [("exchange_id", "long"), ("bid_price", "double"), ("user_id", "long"),
         ("city", "string")],
    )
    return registry


REGISTRY = _registry()


def _spec(text: str):
    return plan_query(validate_query(parse_query(text), REGISTRY), "q1").central_object


SPECS = {name: _spec(text) for name, text in {**QUERIES, **EVENT_PATH_QUERIES}.items()}
#: A residual predicate only survives planning for joins; put one on a
#: single-source spec directly so the rows' residual accessor is covered.
SPECS["residual"] = dataclasses.replace(
    SPECS["grouped-sketches"],
    residual_predicate=parse_query(
        "select COUNT(*) from bid where bid.bid_price > 0.5 and bid.user_id != 7 window 10s;"
    ).where,
)
ROW_SPECS = [name for name in SPECS if name not in EVENT_PATH_QUERIES]


#: planned / targeted hosts: COUNT and SUM come out scaled by it.
SCALE = 3 / 2


def _engine(name: str) -> CentralEngine:
    engine = CentralEngine(grace_seconds=1.0)
    engine.register(
        SPECS[name], planned_hosts=3, targeted_hosts=2, targeted_names=("h1", "h2")
    )
    return engine


def _object_door(engine: CentralEngine, frame: bytes) -> None:
    engine.ingest(decode_full_batch(frame))


def _outcome(door, name: str, steps: list) -> tuple:
    """Everything observable from feeding *steps* (frames, or floats to
    ``advance`` to) through *door*: what each step raised, the windows —
    ``repr`` covers rows, estimates, coverage, late and drop counts,
    NaN-safely and int-vs-float strictly — and the engine's accounting."""
    engine = _engine(name)
    errors = []
    for step in steps:
        if isinstance(step, float):
            engine.advance(step)
            continue
        try:
            door(engine, step)
        except Exception as exc:  # the comparison is the assertion
            errors.append((type(exc), str(exc)))
    rq = engine._queries["q1"]
    open_state = (rq.tracker.open_windows, rq.tracker.late_events, sorted(rq.host_acc))
    try:
        windows = repr(engine.finish("q1").windows)
    except ValueError as exc:
        # Byte surgery can rename a host into one that ships events it
        # never reported seeing, which the estimator refuses — either door.
        windows = f"finish raised: {exc}"
    stats = dataclasses.replace(engine.stats, events_rowed=0)
    return errors, open_state, windows, stats, engine.stats.events_rowed


def _assert_same(name: str, steps: list) -> int:
    """Both doors agree on everything; returns ``events_rowed``."""
    *rowed, events_rowed = _outcome(CentralEngine.ingest_frame, name, steps)
    *objects, _ = _outcome(_object_door, name, steps)
    assert rowed == objects
    return events_rowed


def _is_fixed(events: list[Event]) -> bool:
    """The eligibility rule, restated from the wire format: a non-empty
    run of one (type, host, key order, tag per key), all long/double."""
    if not events:
        return False
    shapes = {
        (e.event_type, e.host, tuple((k, type(v)) for k, v in e.payload.items()))
        for e in events
    }
    return len(shapes) == 1 and all(t in (int, float) for _k, t in next(iter(shapes))[2])


# -- (a) differential ----------------------------------------------------------

_NUMERIC = ("exchange_id", "bid_price", "user_id")
_KINDS = ("fixed", "fixed", "string", "null", "bool", "nested", "mixed", "retyped")

_draw = st.fixed_dictionaries(
    {
        # Windows 0..4; `advance` steps close some, so stragglers are late.
        "ts": st.floats(min_value=0.0, max_value=49.0, allow_nan=False),
        "exchange_id": st.integers(min_value=0, max_value=3),
        # Dyadic: sums are exact whatever the order, like the benchmark's.
        "bid_price": st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25),
        "user_id": st.integers(min_value=0, max_value=9),
        "flag": st.booleans(),
    }
)


def _payload(kind: str, order: tuple[str, ...], draw: dict) -> dict:
    payload = {key: draw[key] for key in order}
    if kind == "string":
        payload["city"] = "Porto" if draw["flag"] else "NY"
    elif kind == "null" and draw["flag"] and order:
        payload[order[0]] = None
    elif kind == "bool":
        payload["ok"] = draw["flag"]
    elif kind == "nested":
        payload["tags"] = [draw["user_id"], "a", None]
        payload["meta"] = {"deep": {"price": draw["bid_price"]}}
    elif kind == "mixed" and draw["flag"]:
        payload = {key: payload[key] for key in reversed(order[1:])}
    elif kind == "retyped" and draw["flag"] and "user_id" in payload:
        payload["user_id"] = float(payload["user_id"])  # same width, other tag
    return payload


def _seen(events: list[Event], sampled_away: int = 1) -> dict[tuple[str, int], int]:
    """M_i per window: what was shipped (the estimator insists on at
    least that) plus *sampled_away* unshipped matches per shipped one."""
    seen: Counter = Counter()
    for event in events:
        seen[("bid", int(event.timestamp // WINDOW))] += 1 + sampled_away
    return dict(seen)


@st.composite
def _batches(draw) -> EventBatch:
    kind = draw(st.sampled_from(_KINDS))
    order = tuple(draw(st.permutations(_NUMERIC)))[: draw(st.integers(0, 3))]
    host = draw(st.sampled_from(["h1", "h2"]))
    draws = draw(st.lists(_draw, max_size=12))
    if draw(st.booleans()):  # a flush that sits in one window: the fast segment
        draws = [{**d, "ts": 20.0 + d["ts"] % WINDOW} for d in draws]
    events = [
        Event("bid", _payload(kind, order, d), 100 + i, d["ts"], host)
        for i, d in enumerate(draws)
    ]
    seen = _seen(events, sampled_away=draw(st.integers(0, 5)))
    if draw(st.booleans()):  # matches in a window this flush shipped nothing for
        seen[("bid", 4)] = seen.get(("bid", 4), 0) + 7
    return EventBatch(
        host=host,
        query_id="q1",
        events=events,
        seen_counts=seen,
        dropped=draw(st.sampled_from([0, 0, 3])),
        shed=draw(st.sampled_from([0, 0, 5])),
    )


_steps = st.lists(
    st.one_of(_batches(), st.floats(min_value=0.0, max_value=45.0, allow_nan=False)),
    max_size=8,
)


@pytest.mark.parametrize("name", ROW_SPECS)
@settings(max_examples=60, deadline=None)
@given(steps=_steps)
def test_row_door_equals_object_door(name, steps):
    frames = [s if isinstance(s, float) else encode_full_batch(s) for s in steps]
    events_rowed = _assert_same(name, frames)
    assert events_rowed == sum(
        len(s.events) for s in steps if not isinstance(s, float) and _is_fixed(s.events)
    )


@pytest.mark.parametrize("name", list(EVENT_PATH_QUERIES))
@settings(max_examples=25, deadline=None)
@given(steps=_steps)
def test_ineligible_queries_never_take_rows(name, steps):
    frames = [s if isinstance(s, float) else encode_full_batch(s) for s in steps]
    assert _assert_same(name, frames) == 0


def _fixed_events(n: int, host: str = "h1", start: float = 0.0) -> list[Event]:
    return [
        Event(
            "bid",
            {"exchange_id": i % 3, "bid_price": (i % 8) * 0.25, "user_id": (i * 37) % 1000},
            1000 + i,
            start + (i * 7 % 10),
            host,
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("name", ROW_SPECS)
def test_events_rowed_counts_what_took_the_row_path(name):
    """An operator reads ``events_rowed / events_received`` to see what
    share of traffic a stray string or NULL pushed onto the object path."""
    fixed = [
        encode_full_batch(
            EventBatch(host=host, query_id="q1", events=events,
                       seen_counts=_seen(events), dropped=2)
        )
        for host, start in (("h1", 0.0), ("h2", 5.0), ("h1", 20.0))
        for events in [_fixed_events(1200, host, start)]
    ]
    engine = _engine(name)
    for frame in fixed:
        engine.ingest_frame(frame)
    assert engine.stats.events_rowed == engine.stats.events_received == 3600
    # Late rows are still rows: closing window 0 under the second frame
    # changes what is counted late, not which door the events used.
    assert _assert_same(name, fixed[:1] + [12.0] + fixed[1:]) == 3600

    stray = _fixed_events(50)
    batch = EventBatch(host="h1", query_id="q1", events=stray, seen_counts=_seen(stray))
    stray[31].payload["city"] = "Porto"
    assert _assert_same(name, [encode_full_batch(batch)]) == 0  # one string
    stray[31].payload.pop("city")
    stray[31].payload["user_id"] = None
    assert _assert_same(name, [encode_full_batch(batch)]) == 0  # one NULL


def test_late_and_straddling_rows_are_counted_like_events():
    events = _fixed_events(40, start=5.0)  # spans windows 0 and 1
    frame = encode_full_batch(
        EventBatch(host="h1", query_id="q1", events=events, seen_counts=_seen(events))
    )
    stale = _fixed_events(10, start=0.0)
    old = encode_full_batch(
        EventBatch(host="h1", query_id="q1", events=stale, seen_counts=_seen(stale))
    )
    # Window 0 closes at 11.0; `old` is then wholly late, `frame` partly.
    steps = [frame, 11.5, old, frame, 40.0, old]
    for name in ROW_SPECS:
        assert _assert_same(name, steps) == 40 + 10 + 40 + 10
    engine = _engine("thousand-groups")
    for step in steps:
        engine.advance(step) if isinstance(step, float) else engine.ingest_frame(step)
    assert engine.stats.events_late == 10 + sum(e.timestamp < 10.0 for e in events) + 10


# -- (b) byte surgery ----------------------------------------------------------


def _surgery_frame() -> tuple[bytes, list[Event], int, int]:
    events = _fixed_events(7)
    frame = encode_full_batch(
        EventBatch(host="h1", query_id="q1", events=events,
                   seen_counts=_seen(events), dropped=2, shed=1)
    )
    first = encode_binary(events[0])
    return frame, events, frame.index(first), len(first)


def _constant_offsets(event: Event) -> dict[str, list[int]]:
    """Offsets, within one encoded event, of every byte the record
    template holds constant — all but request id, timestamp and values."""
    chunks: dict[str, list[int]] = {}
    pos = 0

    def take(label: str, n: int) -> None:
        nonlocal pos
        chunks.setdefault(label, []).extend(range(pos, pos + n))
        pos += n

    take("type length", 4)
    take("type bytes", len(event.event_type))
    take("host length", 4)
    take("host bytes", len(event.host))
    pos += 16  # request id, timestamp
    take("field count", 4)
    for key in event.payload:
        take("key length", 4)
        take("key bytes", len(key))
        take("tag", 1)
        pos += 8  # the value
    assert pos == len(encode_binary(event))
    return chunks


def test_every_truncation_fails_like_the_decoder():
    frame, _events, _start, _width = _surgery_frame()
    assert _assert_same("grouped-sketches", [frame]) == 7  # intact: rowed
    for cut in range(len(frame)):
        torn = frame[:cut]
        with pytest.raises(ValueError) as want:
            decode_full_batch(torn)
        with pytest.raises(ValueError) as got:
            _engine("grouped-sketches").ingest_frame(torn)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), cut
    with pytest.raises(ValueError, match="trailing garbage"):
        _engine("grouped-sketches").ingest_frame(frame + b"\x00")


@pytest.mark.parametrize("name", ["grouped-sketches", "raw-selection", "sampled-estimates"])
def test_every_constant_byte_is_checked_in_every_row(name):
    """A changed constant byte anywhere — first, middle or last event —
    must give the general decoder's answer: its error, or its reading of
    a frame that is still valid.  Never the template's reading."""
    frame, events, start, width = _surgery_frame()
    offsets = _constant_offsets(events[0])
    checked = 0
    for index in (0, len(events) // 2, len(events) - 1):
        for label, chunk in offsets.items():
            for offset in chunk:
                at = start + index * width + offset
                for value in (frame[at] ^ 0x01, 0xFF):
                    mutated = bytearray(frame)
                    mutated[at] = value
                    rowed = _assert_same(name, [bytes(mutated)])
                    assert rowed == 0, (label, index, offset)
                    checked += 1
    assert checked == 2 * 3 * (width - 16 - 8 * len(events[0].payload))


def test_a_changed_key_byte_reads_as_null_not_as_the_template_field():
    frame, events, start, width = _surgery_frame()
    key_at = _constant_offsets(events[0])["key bytes"][0]  # 'e' of exchange_id
    for index in (0, 3, 6):
        mutated = bytearray(frame)
        mutated[start + index * width + key_at] ^= 0x01
        engine = _engine("grouped-sketches")
        engine.ingest_frame(bytes(mutated))
        assert engine.stats.events_rowed == 0
        (window,) = engine.finish("q1").windows
        null_group = [row for row in window.rows if row[0] is None]
        assert [row[1] for row in null_group] == [1 * SCALE]  # the mutated event alone
        assert sum(row[1] for row in window.rows) == len(events) * SCALE


# -- (c) the codec function alone ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=200), pos=st.integers(0, 210), count=st.integers(0, 2**32 - 1))
def test_decode_fixed_rows_never_raises_on_arbitrary_bytes(data, pos, count):
    assert decode_fixed_rows(memoryview(data), pos, count) is None or count > 0


def test_a_repeated_key_is_left_to_the_general_decoder():
    """No encoder writes one, but the bytes can say it: the decoder's dict
    keeps the last value, so a template must not serve the first."""
    events = [Event("bid", {"user_id": i, "user_iD": 10 + i}, i, 1.0, "h1") for i in range(4)]
    buf = encode_batch(events).replace(b"user_iD", b"user_id")
    assert [e.payload for e in decode_batch(buf)] == [{"user_id": 10 + i} for i in range(4)]
    assert decode_fixed_rows(memoryview(buf), 4, 4) is None
    batch = EventBatch(host="h1", query_id="q1", events=events)
    frame = encode_full_batch(batch).replace(b"user_iD", b"user_id")
    assert _assert_same("thousand-groups", [frame]) == 0


_value = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
    st.text(max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(
    payloads=st.lists(
        st.dictionaries(st.sampled_from(["a", "b", "request_id", "ü"]), _value, max_size=3),
        max_size=6,
    ),
    uniform=st.booleans(),
    stamp=st.sampled_from([1.5, float("inf"), float("nan")]),
)
def test_accepted_runs_decode_to_the_same_values(payloads, uniform, stamp):
    """Whenever ``decode_fixed_rows`` accepts a run, it is the general
    decoder's reading of it, field for field; a run it cannot be sure of
    — or one holding a timestamp no window can hold — it refuses."""
    if uniform and payloads:
        payloads = [dict.fromkeys(payloads[0], i) for i in range(len(payloads))]
    events = [Event("bid", p, i, float(i), "h1") for i, p in enumerate(payloads)]
    buf = memoryview(b"\xaa" + encode_batch(events) + b"tail")
    fixed = decode_fixed_rows(buf, 5, len(events))
    if not _is_fixed(events):
        assert fixed is None
        return
    assert fixed is not None and fixed.end == len(buf) - 4 and fixed.host == "h1"
    slots = fixed_row_slots(fixed.names)
    assert (slots["request_id"], slots["timestamp"]) == (1, 2)
    decoded = decode_batch(bytes(buf[1:-4]))
    for row, stamp_seen, event in zip(fixed.rows, fixed.timestamps, decoded):
        assert (row[1], row[2], stamp_seen) == (event.request_id, event.timestamp, event.timestamp)
        assert fixed.names == tuple(event.payload)
        for name, value in event.payload.items():
            if name != "request_id":  # shadowed by the system field, as in Event.get
                got = row[slots[name]]
                assert type(got) is type(value) and got == value
    # The same run with one unwindowable timestamp is refused outright.
    events[-1].timestamp = stamp
    again = decode_fixed_rows(memoryview(encode_batch(events)), 4, len(events))
    assert (again is None) == (stamp != 1.5)
