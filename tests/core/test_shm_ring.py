"""The shared-memory ring transport: SPSC ring mechanics and pool wiring.

Three layers of pinning for docs/SCALING.md §"Shared-memory ring
ingest":

* ``ShmRing`` itself — reserve/release arithmetic, wrap-waste layout,
  full-ring refusal, generation checks, unlink lifecycle — including a
  Hypothesis round-trip property over random payload sizes.
* The pool's shm path — the acceptance criterion that the parent ships
  **descriptors only** (zero per-event byte joins: no ``bytes`` payload
  ever crosses the pipe on the fast path), byte-identical results vs
  the serial engine with spills forced by a tiny ring, and a Hypothesis
  differential over random frame sizes vs ring capacity.
* Degradation — capability fallback to pipe-bytes (``transport:
  pipe`` in ``pool_health()``, logged once, never a crash) and
  leak-free shutdown (``close()`` unlinks every segment; respawn
  destroys the dead worker's ring and issues a fresh generation).
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.transport import EventBatch, encode_full_batch
from repro.core.central import pool as pool_module
from repro.core.central.engine import CentralEngine
from repro.core.central.pool import ShardPool
from repro.core.central.shm_ring import HEADER_SIZE, RingUnavailable, ShmRing
from repro.core.events import Event, EventRegistry
from repro.core.query import parse_query, plan_query, validate_query

HEAVY_QUERY = (
    "select bid.exchange_id, COUNT(*), SUM(bid.bid_price), "
    "COUNT_DISTINCT(bid.user_id), TOP(3, bid.user_id) "
    "from bid window 60s group by bid.exchange_id;"
)


def _registry() -> EventRegistry:
    registry = EventRegistry()
    registry.define(
        "bid",
        [("exchange_id", "long"), ("bid_price", "double"), ("user_id", "long")],
    )
    return registry


def _plan(text: str, registry: EventRegistry, query_id: str = "q1"):
    return plan_query(validate_query(parse_query(text), registry), query_id)


def _signature(results):
    return results.to_json() + "|" + repr(
        [(w.window_start, w.contributing_hosts) for w in results.windows]
    )


def _bid_events(n: int, hosts: int = 2) -> list[Event]:
    return [
        Event(
            "bid",
            {
                "exchange_id": (i * 5) % 7,
                "bid_price": (i % 8) * 0.25,
                "user_id": (i * 37) % 50,
            },
            i,
            (i % 120) * 1.0,
            f"h{i % hosts}",
        )
        for i in range(n)
    ]


def _run_frames(engine: CentralEngine, registry: EventRegistry,
                batches: list[EventBatch]) -> str:
    plan = _plan(HEAVY_QUERY, registry)
    engine.register(plan.central_object, planned_hosts=2, targeted_hosts=2,
                    targeted_names=("h1", "h2"))
    for batch in batches:
        engine.ingest_frame(encode_full_batch(batch))
    return _signature(engine.finish("q1"))


# -- the ring itself ----------------------------------------------------------


class TestShmRing:
    def test_create_attach_roundtrip(self):
        ring = ShmRing.create(256, generation=3)
        try:
            assert ring.capacity == 256
            assert ring.generation == 3
            other = ShmRing.attach(ring.name, generation=3)
            reserved = ring.try_reserve(5)
            assert reserved is not None
            offset, release = reserved
            ring.data[offset : offset + 5] = b"hello"
            assert bytes(other.payload(offset, 5)) == b"hello"
            other.release(release)
            assert ring.depth() == 0
            other.close()
        finally:
            ring.destroy()

    def test_attach_rejects_generation_mismatch(self):
        ring = ShmRing.create(128, generation=1)
        try:
            with pytest.raises(RingUnavailable, match="generation mismatch"):
                ShmRing.attach(ring.name, generation=2)
        finally:
            ring.destroy()

    def test_attach_capacity_from_header_not_segment_size(self):
        # SharedMemory rounds segments up to the page size; the consumer
        # must trust the header, not the mapping length.
        ring = ShmRing.create(100, generation=0)
        try:
            assert ring.shm.size >= HEADER_SIZE + 100
            other = ShmRing.attach(ring.name, generation=0)
            assert other.capacity == 100
            other.close()
        finally:
            ring.destroy()

    def test_oversize_and_nonpositive_reserve_refused(self):
        ring = ShmRing.create(64, generation=0)
        try:
            assert ring.try_reserve(65) is None
            assert ring.try_reserve(0) is None
            assert ring.try_reserve(-3) is None
            assert ring.try_reserve(64) is not None  # exactly full fits
        finally:
            ring.destroy()

    def test_full_ring_refuses_until_released(self):
        ring = ShmRing.create(64, generation=0)
        try:
            first = ring.try_reserve(40)
            assert first is not None
            assert ring.try_reserve(40) is None  # 24 bytes free
            _, release = first
            ring.release(release)
            assert ring.try_reserve(40) is not None
        finally:
            ring.destroy()

    def test_wrap_wastes_tail_and_stays_contiguous(self):
        ring = ShmRing.create(64, generation=0)
        try:
            off1, rel1 = ring.try_reserve(48)
            assert off1 == 0
            ring.release(rel1)
            # head=48; a 32-byte payload cannot sit at 48..80, so the
            # producer wastes 16 bytes and wraps to offset 0 — the
            # release cursor must cover waste + payload.
            off2, rel2 = ring.try_reserve(32)
            assert off2 == 0
            assert rel2 == 48 + 16 + 32
            assert ring.depth() == 48  # waste counts until released
            ring.release(rel2)
            assert ring.depth() == 0
        finally:
            ring.destroy()

    def test_wrap_refused_when_waste_overflows(self):
        ring = ShmRing.create(64, generation=0)
        try:
            off1, rel1 = ring.try_reserve(48)
            # Consumer has not released: a wrapping 32-byte reserve needs
            # 16 waste + 32 data on top of 48 in flight = 96 > 64.
            assert ring.try_reserve(32) is None
            ring.release(rel1)
            assert ring.try_reserve(32) is not None
        finally:
            ring.destroy()

    def test_high_water_tracks_peak_depth(self):
        ring = ShmRing.create(128, generation=0)
        try:
            _, r1 = ring.try_reserve(50)
            ring.try_reserve(30)
            assert ring.stats()["high_water"] == 80
            ring.release(r1)
            ring.try_reserve(10)
            assert ring.stats()["high_water"] == 80  # peak, not current
        finally:
            ring.destroy()

    def test_destroy_unlinks_segment(self):
        ring = ShmRing.create(128, generation=0)
        name = ring.name
        ring.destroy()
        with pytest.raises(RingUnavailable):
            ShmRing.attach(name, generation=0)

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(min_value=8, max_value=256),
        sizes=st.lists(st.integers(min_value=1, max_value=300), max_size=60),
    )
    def test_ring_roundtrip_property(self, capacity, sizes):
        """Random payload sizes through a tiny ring: in-order produce/
        consume round-trips every byte, never hands out an out-of-bounds
        slice, and refusals happen exactly when the span cannot fit."""
        ring = ShmRing.create(capacity, generation=0)
        try:
            pending: list[tuple[int, int, int, bytes]] = []
            for i, size in enumerate(sizes):
                payload = bytes((i + j) % 251 for j in range(size))
                reserved = ring.try_reserve(size)
                if reserved is None:
                    # Must be a genuine can't-fit: oversize, in-flight
                    # bytes, or a wrap whose waste cannot fit — on an
                    # empty ring that needs size > capacity - pos and
                    # size > pos, hence more than half the ring.
                    assert size > capacity or pending or 2 * size > capacity
                    # Drain one pending payload and move on (spill path
                    # in the pool; here we just free space).
                    if pending:
                        off, ln, rel, expect = pending.pop(0)
                        assert bytes(ring.payload(off, ln)) == expect
                        ring.release(rel)
                    continue
                offset, release = reserved
                assert 0 <= offset and offset + size <= capacity
                ring.data[offset : offset + size] = payload
                pending.append((offset, size, release, payload))
            for off, ln, rel, expect in pending:
                assert bytes(ring.payload(off, ln)) == expect
                ring.release(rel)
            assert ring.depth() == 0
        finally:
            ring.destroy()


# -- the pool's shm path ------------------------------------------------------


class _SpyConn:
    """Wraps a worker pipe and records every message kind the parent sends."""

    def __init__(self, conn, sent: list):
        self._conn = conn
        self._sent = sent

    def send(self, message):
        self._sent.append(message)
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_shm_path_ships_descriptors_only():
    """Acceptance criterion: on the shm path the parent performs zero
    per-event byte joins — every ingest-side pipe message is an integer
    descriptor, never a bytes payload, whichever door the batch took:
    ``ingest(EventBatch)`` encodes and goes the same way, so no pickled
    ``Event`` crosses the pipe either."""
    registry = _registry()
    sent: list = []
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        health = pool.pool_health()
        assert health["transport"] == "shm"
        for worker in pool._workers:
            worker.conn = _SpyConn(worker.conn, sent)
        plan = _plan(HEAVY_QUERY, registry)
        pool.register(plan.central_object)
        sent.clear()
        for start in range(0, 400, 100):
            batch = EventBatch(
                host="h1", query_id="q1",
                events=_bid_events(400)[start : start + 100],
            )
            pool.ingest_frame(encode_full_batch(batch))
            from_frames = len(sent)
            pool.ingest(batch)
            assert len(sent) > from_frames, "the object door shipped nothing"
        ingest_msgs = sent
        assert all(m[0] == "shm" for m in ingest_msgs)
        for m in ingest_msgs:
            # (qid, window, count, offset, length, release, seq, gen):
            # strings and ints only — no bytes object ever built or sent.
            assert isinstance(m[1], str)
            assert all(isinstance(x, int) for x in m[2:])
        health = pool.pool_health()
        assert health["ring_spills"] == 0
        assert health["ring_bytes_in_place"] > 0
        assert sum(r["descriptors"] for r in health["rings"]) == len(ingest_msgs)
        pool.finish("q1")


def test_tiny_ring_spills_and_results_identical():
    """A ring too small for the traffic must spill to pipe-bytes (counted)
    and still produce byte-identical results — degrade, never deadlock."""
    registry = _registry()
    events = _bid_events(600)
    batches = [
        EventBatch(host=f"h{i % 2 + 1}", query_id="q1",
                   events=events[i * 150 : (i + 1) * 150])
        for i in range(4)
    ]
    serial = _run_frames(CentralEngine(grace_seconds=1.0), registry, batches)
    with ShardPool(workers=2, grace_seconds=1.0, ring_capacity=64) as pool:
        assert _run_frames(pool, registry, batches) == serial
        assert pool.pool_health()["ring_spills"] > 0


def _no_rings(monkeypatch):
    """The platform cannot create a ring: the pool observes it and falls
    back to pipe-bytes (there is no option that selects them)."""

    def boom(capacity, generation):
        raise RingUnavailable("no /dev/shm here")

    monkeypatch.setattr(pool_module.ShmRing, "create", staticmethod(boom))


@pytest.mark.parametrize("transport", ["shm", "pipe"])
def test_transports_match_serial(transport, monkeypatch):
    if transport == "pipe":
        _no_rings(monkeypatch)
    registry = _registry()
    events = _bid_events(500)
    batches = [
        EventBatch(host=f"h{i % 2 + 1}", query_id="q1",
                   events=events[i * 125 : (i + 1) * 125])
        for i in range(4)
    ]
    serial = _run_frames(CentralEngine(grace_seconds=1.0), registry, batches)
    with ShardPool(workers=4, grace_seconds=1.0) as pool:
        assert _run_frames(pool, registry, batches) == serial
        assert pool.pool_health()["transport"] == transport


@settings(max_examples=8, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                   max_size=6),
    ring_capacity=st.sampled_from([128, 1024, 1 << 16]),
)
def test_random_frames_vs_ring_capacity_match_serial(sizes, ring_capacity):
    """The ring-wrap Hypothesis property: random frame sizes against
    random ring capacities (small enough to force wraps and spills) stay
    byte-identical to the serial engine's ``ingest_frame``."""
    registry = _registry()
    rid = 0
    batches = []
    for size in sizes:
        events = []
        for _ in range(size):
            events.append(
                Event(
                    "bid",
                    {
                        "exchange_id": (rid * 5) % 7,
                        "bid_price": (rid % 8) * 0.25,
                        "user_id": (rid * 37) % 50,
                    },
                    rid,
                    (rid % 120) * 1.0,
                    f"h{rid % 2 + 1}",
                )
            )
            rid += 1
        batches.append(
            EventBatch(host=events[0].host if events else "h1",
                       query_id="q1", events=events)
        )
    serial = _run_frames(CentralEngine(grace_seconds=1.0), registry, batches)
    with ShardPool(workers=2, grace_seconds=1.0,
                   ring_capacity=ring_capacity) as pool:
        assert _run_frames(pool, registry, batches) == serial


# -- degradation and lifecycle ------------------------------------------------


def test_close_unlinks_every_ring_segment():
    """The descriptor-vs-close satellite: shutdown drains (joins) the
    workers before unlinking, and afterwards no segment exists to leak —
    a re-attach by name must fail."""
    registry = _registry()
    pool = ShardPool(workers=2, grace_seconds=1.0)
    names = [w.ring.name for w in pool._workers]
    assert len(names) == 2
    plan = _plan(HEAVY_QUERY, registry)
    pool.register(plan.central_object)
    pool.ingest_frame(
        encode_full_batch(
            EventBatch(host="h1", query_id="q1", events=_bid_events(50))
        )
    )
    pool.finish("q1")
    pool.close()
    pool.close()  # idempotent, including the unlink pass
    for name in names:
        with pytest.raises(RingUnavailable):
            ShmRing.attach(name, generation=0)


def test_supervise_destroys_old_ring_and_issues_fresh_generation():
    """A respawned worker must never see its predecessor's cursors: the
    old segment is unlinked and the replacement rides a new
    generation-tagged ring."""
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        old_name = pool._workers[0].ring.name
        pool._supervise(0, "test respawn")
        fresh = pool._workers[0]
        assert fresh.generation == 1
        assert fresh.ring is not None
        assert fresh.ring.name != old_name
        assert fresh.ring.generation == 1
        with pytest.raises(RingUnavailable):
            ShmRing.attach(old_name, generation=0)
        health = pool.pool_health()
        assert health["transport"] == "shm"
        assert health["rings"][0]["generation"] == 1


def test_ring_create_failure_falls_back_to_pipe(monkeypatch, caplog):
    """Capability fallback: if the platform cannot create a ring the pool
    logs once, runs pipe-bytes, and stays fully functional."""
    registry = _registry()
    _no_rings(monkeypatch)
    events = _bid_events(200)
    batches = [EventBatch(host="h1", query_id="q1", events=events)]
    serial = _run_frames(CentralEngine(grace_seconds=1.0), registry, batches)
    with caplog.at_level(logging.WARNING, logger="repro.core.central.pool"):
        with ShardPool(workers=2, grace_seconds=1.0) as pool:
            health = pool.pool_health()
            assert health["transport"] == "pipe"
            assert all(r["transport"] == "pipe" for r in health["rings"])
            assert all(w.ring is None for w in pool._workers)
            assert _run_frames(pool, registry, batches) == serial
    fallback_logs = [
        r for r in caplog.records if "falling back to pipe-bytes" in r.getMessage()
    ]
    assert len(fallback_logs) == 1  # logged once, not per worker


def test_invalid_transport_and_capacity_rejected():
    with pytest.raises(TypeError, match="transport"):
        ShardPool(workers=1, transport="pipe")  # observed, never selected
    with pytest.raises(ValueError, match="ring_capacity"):
        ShardPool(workers=1, ring_capacity=0)
