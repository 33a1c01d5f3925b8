"""``flush()`` writes each batch's wire frame once, from the buffer.

* A Hypothesis differential holds the frames ``flush()`` writes to the
  Event-based writer it replaced (``wire_oracle.py``), byte for byte,
  over every value type and the layouts that change a run.
* The frames are the same to every central door: serial rows, the
  shard pool, and the object door.
* No ``Event`` is built on the way out, and every byte counter is the
  frame's length.
* A value the writer cannot write costs its event, never the flush.
"""

from __future__ import annotations

import math
import socket
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.agent import RecordingTransport, ScrubAgent
from repro.core.agent import transport as agent_transport
from repro.core.agent.governor import ImpactBudget, QueryGovernor
from repro.core.agent.transport import EventBatch, decode_full_batch
from repro.core.central.engine import CentralEngine
from repro.core.central.pool import ShardPool
from repro.core.events import Event, EventRegistry
from repro.core.events import encoding
from repro.core.events.encoding import FixedPackers
from repro.core.query import parse_query, plan_query, validate_query
from repro.live.protocol import MsgType, decode_message, encode_message_frame, recv_frame
from repro.live.transport import SocketTransport

from .wire_oracle import encode_binary, oracle_encode_full_batch

WINDOW = 10.0


def _registry() -> EventRegistry:
    registry = EventRegistry()
    registry.define(
        "bid", [("a", "long"), ("b", "double"), ("c", "string"), ("user", "long")]
    )
    registry.define("click", [("user", "long"), ("w", "double")])
    return registry


def _install(agent: ScrubAgent, text: str, registry: EventRegistry, query_id: str) -> None:
    plan = plan_query(validate_query(parse_query(text), registry), query_id)
    for host_object in plan.host_objects:
        agent.install(host_object)


class _Clock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def _agent(registry: EventRegistry, transport, **kwargs) -> tuple[ScrubAgent, _Clock]:
    clock = _Clock()
    agent = ScrubAgent(
        "h1", registry, transport, clock=clock, flush_batch_size=1 << 30, **kwargs
    )
    return agent, clock


#: One query per way a payload reaches the buffer: a projection (fields
#: may be missing), every field kept as logged (any keys, any order), a
#: two-type join, and host partials.
QUERIES = {
    "qproj": "select bid.a, SUM(bid.b) from bid group by bid.a;",
    "qall": "select bid.a, bid.b, bid.c, bid.user from bid;",
    "qjoin": "select COUNT(*) from bid, click where bid.user = click.user;",
    "qpart": "select COUNT(*) from bid aggregate on hosts;",
}

# -- the differential ----------------------------------------------------------------

_int64 = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 1]),
)
_float = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
)
_scalar = st.one_of(
    st.none(), st.booleans(), _int64, _float, st.text(max_size=6),  # non-ASCII too
)
_any = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)
_KINDS = {"int": _int64, "float": _float, "bool": st.booleans(), "any": _any}


@st.composite
def _traffic(draw) -> list[tuple[str, dict]]:
    """Runs of events: each run one event type and one key order, each
    key one value kind — exact ints and floats make fixed layouts; an
    ``int`` under ``b`` is an int in a double field; ``any`` breaks the
    run with strings, bools, None, lists and maps."""
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["bid", "click"]),
                st.lists(
                    st.sampled_from(["a", "b", "c", "user", "w", "extra"]),
                    unique=True,
                    max_size=5,
                ),
                st.lists(st.sampled_from(sorted(_KINDS)), min_size=5, max_size=5),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    events = []
    for event_type, keys, kinds, count in runs:
        for _ in range(count):
            payload = {key: draw(_KINDS[kind]) for key, kind in zip(keys, kinds)}
            events.append((event_type, payload))
    return events


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(traffic=_traffic())
def test_flush_frames_equal_the_event_writer(traffic):
    registry = _registry()
    transport = RecordingTransport()
    agent, clock = _agent(registry, transport)
    for query_id, text in QUERIES.items():
        _install(agent, text, registry, query_id)
    for index, (event_type, payload) in enumerate(traffic):
        clock.now = 1000.0 + index * 0.25
        agent.log(event_type, payload, request_id=index, timestamp=clock.now)
    # The Event-based path, from what is buffered: one Event per row.
    expected: dict[str, list[Event]] = {}
    for iq, payload, rid, ts in list(agent._buffer._items):
        expected.setdefault(iq.spec.query_id, []).append(
            Event(iq.spec.event_type, payload, rid, ts, "h1")
        )
    agent.flush(clock.now + 3 * WINDOW)  # past the window: partials ship too
    assert agent.stats.events_unencodable == 0
    assert transport.batches
    for batch in transport.batches:
        oracle = EventBatch(
            batch.host, batch.query_id, expected.get(batch.query_id, []),
            batch.seen_counts, batch.dropped, batch.sent_at, batch.partials,
            batch.shed, batch.quarantined,
        )
        assert batch.frame == oracle_encode_full_batch(oracle)
        assert batch.event_count == len(oracle.events)


def test_mixed_layouts_in_one_batch_match_the_event_writer():
    """A directed case the differential reaches only by chance: one
    batch that enters and leaves a fixed layout several times."""
    registry = _registry()
    transport = RecordingTransport()
    agent, _ = _agent(registry, transport)
    _install(agent, QUERIES["qall"], registry, "qall")
    payloads = [
        {"a": 1, "b": 0.5},
        {"a": 2, "b": 1.5},
        {"b": 2.5, "a": 3},  # reordered keys
        {"a": True, "b": 1.5},  # a bool where an int was
        {"a": 4, "b": 7},  # an int in a double field
        {"a": 5, "b": 2.5},
        {},  # zero fields
        {"a": 6, "b": -0.0, "c": "Zürich"},
        {"a": 2**63 - 1, "b": math.nan},
    ]
    for index, payload in enumerate(payloads):
        agent.log("bid", payload, request_id=index, timestamp=1000.0)
    rows = list(agent._buffer._items)
    agent.flush(1000.0)
    (batch,) = transport.batches
    events = [Event("bid", p, rid, ts, "h1") for _iq, p, rid, ts in rows]
    oracle = EventBatch("h1", "qall", events, batch.seen_counts, sent_at=1000.0)
    assert batch.frame == oracle_encode_full_batch(oracle)
    assert len(agent.packers) == 6  # each distinct layout looked up once


# -- one frame, every door -------------------------------------------------------------

HEAVY_QUERY = (
    "select bid.a, COUNT(*), SUM(bid.b), AVG(bid.b), COUNT_DISTINCT(bid.user), "
    "TOP(3, bid.user) from bid window 10s group by bid.a;"
)


def test_flushed_frames_agree_across_every_central_door():
    registry = _registry()
    frames = []
    for host in ("h1", "h2"):
        transport = RecordingTransport()
        agent = ScrubAgent(host, registry, transport, flush_batch_size=200)
        _install(agent, HEAVY_QUERY, registry, "q1")
        for i in range(1500):
            ts = 1000.0 + i * 0.02
            agent.log(
                "bid", {"a": i % 7, "b": (i % 8) * 0.25, "user": (i * 37) % 50},
                request_id=i, timestamp=ts,
            )
        agent.flush(1000.0 + 1500 * 0.02)
        frames += [batch.frame for batch in transport.batches]

    def run(engine: CentralEngine, door) -> tuple:
        plan = plan_query(validate_query(parse_query(HEAVY_QUERY), registry), "q1")
        engine.register(
            plan.central_object, planned_hosts=2, targeted_hosts=2,
            targeted_names=("h1", "h2"),
        )
        for frame in frames:
            door(engine, frame)
        results = engine.finish("q1")
        stats = engine.stats
        return (
            repr(results.windows),
            stats.events_received,
            stats.bytes_received,
            stats.batches_received,
        )

    serial = run(CentralEngine(grace_seconds=1.0), CentralEngine.ingest_frame)
    objects = run(
        CentralEngine(grace_seconds=1.0), lambda e, f: e.ingest(decode_full_batch(f))
    )
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        pooled = run(pool, ShardPool.ingest_frame)
    assert serial[1] == 3000 and serial[2] == sum(len(f) for f in frames)
    assert pooled == serial == objects


# -- no Event, one length -------------------------------------------------------------


@pytest.mark.parametrize(
    "query",
    [
        "select bid.a, SUM(bid.b) from bid group by bid.a;",  # fixed layout
        "select bid.c, COUNT(*) from bid group by bid.c;",  # string-bearing
    ],
    ids=["fixed", "strings"],
)
def test_flush_builds_no_event(query):
    registry = _registry()
    transport = RecordingTransport()
    agent, _ = _agent(registry, transport)
    _install(agent, query, registry, "q1")
    for i in range(300):
        agent.log("bid", {"a": i % 5, "b": i * 0.5, "c": f"c{i % 3}"},
                  request_id=i, timestamp=1000.0)
    # Every way to make an Event runs Python code in events/event.py
    # (``Event.__init__``, ``_rebuild_event``): count calls into it.
    event_code = Event.__init__.__code__.co_filename
    calls = []

    def profile(frame, what, _arg):
        if what == "call" and frame.f_code.co_filename == event_code:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        sent = agent.flush(1000.0)
        (batch,) = transport.batches
        count = batch.event_count
    finally:
        sys.setprofile(None)
    assert (sent, count, calls) == (1, 300, [])
    assert len(batch.events) == 300  # decoded only now, on first read


class _Sink:
    """Reads BATCH frames and answers PING with PONG (a scrubd stand-in)."""

    def __init__(self) -> None:
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.address = self.listener.getsockname()
        self.payloads: list[bytes] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        with conn:
            while True:
                try:
                    frame = recv_frame(conn)
                except OSError:
                    return
                if frame is None:
                    return
                msg_type, payload = frame
                if msg_type == MsgType.BATCH:
                    self.payloads.append(bytes(payload))
                elif msg_type == MsgType.PING:
                    conn.sendall(encode_message_frame(MsgType.PONG, decode_message(payload)))

    def close(self) -> None:
        self.listener.close()


def _socket_transport(address) -> SocketTransport:
    return SocketTransport(
        address, "h1", connect_timeout=0.5, backoff_base=0.01, backoff_cap=0.05
    )


def test_every_byte_counter_is_the_frame_length(monkeypatch):
    charged = []
    original_charge = QueryGovernor.charge

    def recording_charge(self, wall_seconds, nbytes=0):
        charged.append(nbytes)
        original_charge(self, wall_seconds, nbytes)

    monkeypatch.setattr(QueryGovernor, "charge", recording_charge)
    sink = _Sink()
    transport = _socket_transport(sink.address)
    try:
        registry = _registry()
        budget = ImpactBudget(max_wall_seconds=60.0, max_bytes=1 << 30)
        agent, clock = _agent(registry, transport, impact_budget=budget)
        _install(agent, "select bid.c, COUNT(*) from bid group by bid.c;", registry, "q1")
        _install(agent, QUERIES["qproj"], registry, "q2")
        for i in range(900):
            clock.now = 1000.0 + i * 0.01
            agent.log("bid", {"a": i % 4, "b": 0.5, "c": "ü" * (i % 3)},
                      request_id=i, timestamp=clock.now)
            if i % 300 == 299:
                agent.flush()
        assert transport.drain(timeout=10.0)
        framed = sum(len(p) for p in sink.payloads)
        assert len(sink.payloads) == transport.batches_sent == agent.stats.batches_flushed
        assert agent.stats.bytes_shipped == framed
        assert sum(charged) == framed
        assert transport.bytes_sent - 5 * transport.batches_sent == framed
    finally:
        transport.close()
        sink.close()


# -- a value that cannot be written -----------------------------------------------------


def test_unencodable_value_costs_its_event_not_the_channel():
    """An int outside int64 once killed the flusher thread: every later
    batch piled up in the outbox and ``drain()`` could never succeed."""
    sink = _Sink()
    transport = _socket_transport(sink.address)
    try:
        registry = _registry()
        agent, clock = _agent(registry, transport)
        _install(agent, QUERIES["qproj"], registry, "q1")
        agent.log("bid", {"a": 2**63, "b": 1.0}, request_id=1, timestamp=1000.0)
        agent.log("bid", {"a": 1, "b": 1.0}, request_id=2, timestamp=1000.0)
        agent.flush(1000.0)
        for i in range(300):
            agent.log("bid", {"a": i, "b": 2.0}, request_id=10 + i, timestamp=1000.0)
            agent.flush(1000.0)
            if i % 100 == 99:  # more than the outbox holds, in three rounds
                assert transport.drain(timeout=10.0)
        assert transport._thread.is_alive()
        assert agent.stats.events_unencodable == 1
        stats = agent.query_stats("q1")
        assert (stats.seen, stats.shipped, stats.dropped) == (302, 301, 1)
        first = decode_full_batch(sink.payloads[0])
        assert [e.request_id for e in first.events] == [2]
        assert first.dropped == 1
        assert sum(decode_full_batch(p).event_count for p in sink.payloads) == 301
    finally:
        transport.close()
        sink.close()


def test_flush_never_raises_an_unwritable_value():
    registry = _registry()
    transport = RecordingTransport()
    agent, _ = _agent(registry, transport)
    _install(agent, QUERIES["qall"], registry, "q1")
    cyclic: list = []
    cyclic.append(cyclic)
    bad = [{"a": object()}, {"c": "\ud800"}, {"a": cyclic}, {"a": -(2**63) - 1}]
    for i, payload in enumerate([{"a": 1}, *bad, {"a": 2}]):
        agent.log("bid", payload, request_id=i, timestamp=1000.0)
    assert agent.flush(1000.0) == 1
    (batch,) = transport.batches
    assert [e.request_id for e in batch.events] == [0, 5]
    assert batch.dropped == agent.stats.events_unencodable == len(bad)


def test_an_unwritable_partial_costs_itself_not_the_flush():
    """Host partials hold payload values (a MAX, a group key).  One that
    cannot be written is cut out of the frame and counted; the seen
    counts, the drops and every other partial still reach the central."""
    registry = _registry()
    text = "select bid.a, MAX(bid.user) from bid group by bid.a aggregate on hosts;"
    transport = RecordingTransport()
    agent, _ = _agent(registry, transport)
    _install(agent, text, registry, "q1")
    for i, (a, user) in enumerate([(1, 5), (2, 2**63), (2**64, 1), (1, 7)]):
        agent.log("bid", {"a": a, "user": user}, request_id=i, timestamp=1000.0)
    assert agent.flush(1000.0 + 3 * WINDOW) == 1
    (batch,) = transport.batches
    assert [(p.group_key, p.values) for p in batch.partials] == [((1,), (7,))]
    assert (batch.dropped, batch.seen_counts) == (2, {("bid", 100): 4})
    assert agent.stats.partials_unencodable == 2
    assert decode_full_batch(batch.frame) == batch

    engine = CentralEngine(grace_seconds=1.0)
    plan = plan_query(validate_query(parse_query(text), registry), "q1")
    engine.register(plan.central_object, planned_hosts=1, targeted_hosts=1,
                    targeted_names=("h1",))
    engine.ingest_frame(batch.frame)
    (window,) = engine.finish("q1").windows
    assert [row.values for row in window.rows] == [(1, 7)]
    assert window.host_dropped == 2


def test_a_frame_over_the_limit_ships_its_counters_only(monkeypatch):
    registry = _registry()
    transport = RecordingTransport()
    agent, _ = _agent(registry, transport)
    _install(agent, QUERIES["qproj"], registry, "q1")
    for i in range(50):
        agent.log("bid", {"a": i, "b": 1.0}, request_id=i, timestamp=1000.0)
    monkeypatch.setattr(agent_transport, "MAX_FRAME_BYTES", 1000)
    agent.flush(1000.0)
    (batch,) = transport.batches
    assert (batch.event_count, batch.dropped) == (0, 50)
    assert batch.seen_counts == {("bid", 100): 50}
    assert len(batch.frame) < 1000
    assert agent.stats.events_unencodable == 50


def test_packer_cache_is_bounded_and_counts_evictions(monkeypatch):
    monkeypatch.setattr(encoding, "PACKER_CACHE_SIZE", 2)
    packers = FixedPackers()
    for n in range(1, 5):
        keys = tuple(f"k{i}" for i in range(n))
        assert packers.get("bid", "h1", (*keys, *(int,) * n)) is not None
    assert len(packers) == 2 and packers.evictions == 2
    # Not a fixed layout: the tagged writer serves it.
    assert packers.get("bid", "h1", ("k", str)) is None
    # A packed event is the tagged writer's bytes.
    out = bytearray()
    packer = packers.get("bid", "h1", ("k0", "k1", int, float))
    args = list(packer.template)
    args[1], args[2], args[5::2] = 7, 1.5, (3, 0.25)
    out += packer.pack(*args)
    assert bytes(out) == encode_binary(Event("bid", {"k0": 3, "k1": 0.25}, 7, 1.5, "h1"))
