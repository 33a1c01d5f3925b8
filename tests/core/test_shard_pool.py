"""Serial vs parallel equivalence for the ShardPool central engine.

The pool (``core/central/pool.py``) must be *observably identical* to
the serial ``CentralEngine`` — same rows in the same order, same
sampling estimates, same drop/late/coverage accounting — with the only
difference being which OS process did the aggregation.  These tests
feed byte-identical batch sequences to a serial engine, a 1-worker pool
and a 4-worker pool and compare the complete result surface.

Sums use dyadic values (multiples of 0.25) on purpose: float addition
is not associative in general, and the pool's merge keeps the serial
left-fold association exactly, so the comparison is ``==``, not
``approx``.  Kept fast and unmarked: this is a tier-1 invariant.
"""

from __future__ import annotations

from datetime import datetime

import pytest

from repro.core.agent.transport import EventBatch, encode_full_batch
from repro.core.api import ManualClock, Scrub
from repro.core.central.engine import CentralEngine
from repro.core.central.pool import ShardPool
from repro.core.events import Event, EventRegistry
from repro.core.query import parse_query, plan_query, validate_query
from repro.core.query.errors import ScrubExecutionError

HEAVY_QUERY = (
    "select bid.exchange_id, COUNT(*), SUM(bid.bid_price), AVG(bid.bid_price), "
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


def _heavy_batches() -> list[EventBatch]:
    """Three windows of traffic from two hosts, with the estimator/coverage
    metadata (seen counts, a host-side drop) riding on the batches, plus
    one straggler that must be counted late once window 0 has closed."""
    batches = []
    for window in range(3):
        for host in ("h1", "h2"):
            events = [
                Event(
                    "bid",
                    {
                        "exchange_id": (i * 5 + window) % 7,
                        "bid_price": (i % 8) * 0.25,
                        "user_id": (i * 37 + window) % 50,
                    },
                    window * 400 + i,
                    window * 60.0 + (i % 60),
                    host,
                )
                for i in range(200)
            ]
            batches.append(
                EventBatch(
                    host=host,
                    query_id="q1",
                    events=events,
                    seen_counts={("bid", window): 250},
                    dropped=3 if host == "h1" else 0,
                )
            )
    return batches


def _signature(results):
    return results.to_json() + "|" + repr(
        [(w.window_start, w.contributing_hosts) for w in results.windows]
    )


def _run(engine: CentralEngine, registry: EventRegistry, query: str) -> str:
    plan = _plan(query, registry)
    engine.register(
        plan.central_object,
        planned_hosts=2,
        targeted_hosts=2,
        targeted_names=("h1", "h2"),
    )
    for batch in _heavy_batches():
        engine.ingest(batch)
    # Close window 0 (end 60 + grace 1), then deliver a straggler into it:
    # it must be discarded and *counted* identically on every engine.
    engine.advance(61.5)
    engine.ingest(
        EventBatch(
            host="h1",
            query_id="q1",
            events=[
                Event("bid", {"exchange_id": 1, "bid_price": 0.5, "user_id": 1},
                      9_999, 30.0, "h1")
            ],
        )
    )
    return _signature(engine.finish("q1"))


def _run_frames(engine: CentralEngine, registry: EventRegistry, query: str) -> str:
    """`_run`, but every batch crosses the wire codec and enters through
    `ingest_frame` — the zero-copy path scrubd hands the pool."""
    plan = _plan(query, registry)
    engine.register(
        plan.central_object,
        planned_hosts=2,
        targeted_hosts=2,
        targeted_names=("h1", "h2"),
    )
    for batch in _heavy_batches():
        engine.ingest_frame(encode_full_batch(batch))
    engine.advance(61.5)
    engine.ingest_frame(
        encode_full_batch(
            EventBatch(
                host="h1",
                query_id="q1",
                events=[
                    Event("bid", {"exchange_id": 1, "bid_price": 0.5, "user_id": 1},
                          9_999, 30.0, "h1")
                ],
            )
        )
    )
    return _signature(engine.finish("q1"))


@pytest.mark.parametrize(
    "query",
    [
        HEAVY_QUERY,
        "select COUNT(*) from bid window 60s;",
        "select bid.exchange_id, MIN(bid.bid_price), MAX(bid.bid_price) "
        "from bid window 60s group by bid.exchange_id, bid.user_id;",
    ],
    ids=["heavy", "global-count", "two-key-minmax"],
)
def test_pool_matches_serial_engine(query):
    registry = _registry()
    serial = _run(CentralEngine(grace_seconds=1.0), registry, query)
    with ShardPool(workers=1, grace_seconds=1.0) as pool1:
        assert _run(pool1, registry, query) == serial
    with ShardPool(workers=4, grace_seconds=1.0) as pool4:
        assert _run(pool4, registry, query) == serial


@pytest.mark.parametrize(
    "query",
    [
        HEAVY_QUERY,
        "select COUNT(*) from bid window 60s;",
        "select bid.exchange_id, MIN(bid.bid_price), MAX(bid.bid_price) "
        "from bid window 60s group by bid.exchange_id, bid.user_id;",
    ],
    ids=["heavy", "global-count", "two-key-minmax"],
)
def test_frame_ingest_matches_object_ingest(query):
    """The zero-copy frame path must be observably identical to both the
    serial engine and the pool's own object path — results, coverage,
    estimates, drop/late accounting, straggler counting, the lot."""
    registry = _registry()
    serial = _run(CentralEngine(grace_seconds=1.0), registry, query)
    # Serial engine through ingest_frame: decode-then-ingest fallback.
    assert _run_frames(CentralEngine(grace_seconds=1.0), registry, query) == serial
    with ShardPool(workers=1, grace_seconds=1.0) as pool1:
        assert _run_frames(pool1, registry, query) == serial
    with ShardPool(workers=4, grace_seconds=1.0) as pool4:
        assert _run_frames(pool4, registry, query) == serial


def test_frame_ingest_stats_match_object_ingest():
    """Byte/event/batch/late accounting is identical whether batches
    arrive as objects or wire frames (wire_size() is pinned to the
    encoded length, so bytes_received must agree exactly)."""
    registry = _registry()
    object_pool = ShardPool(workers=2, grace_seconds=1.0)
    frame_pool = ShardPool(workers=2, grace_seconds=1.0)
    with object_pool, frame_pool:
        _run(object_pool, registry, HEAVY_QUERY)
        _run_frames(frame_pool, registry, HEAVY_QUERY)
        for field in ("batches_received", "events_received", "bytes_received",
                      "events_late"):
            assert getattr(frame_pool.stats, field) == getattr(
                object_pool.stats, field
            ), field


def test_frame_ingest_raw_selection_falls_back_to_parent():
    """Non-aggregating queries never fan out; a wire frame for one is
    decoded on the parent and keeps exact arrival order."""
    registry = _registry()
    query = "select bid.user_id, bid.bid_price from bid window 60s;"
    events = [
        Event("bid", {"exchange_id": 1, "bid_price": i * 0.25, "user_id": i},
              i, 1.0 + i * 0.01, "h1")
        for i in range(40)
    ]
    with ShardPool(workers=4, grace_seconds=1.0) as pool:
        plan = _plan(query, registry)
        pool.register(plan.central_object)
        assert pool._queries["q1"].parallel is False
        pool.ingest_frame(
            encode_full_batch(EventBatch(host="h1", query_id="q1", events=events))
        )
        results = pool.finish("q1")
    assert [r.values for r in results.rows] == [(i, i * 0.25) for i in range(40)]


def test_frame_ingest_unknown_query_dropped_silently():
    """A frame for a finished query is the expected in-flight race: no
    stats movement, no error — same contract as the object path."""
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        pool.ingest_frame(
            encode_full_batch(
                EventBatch(
                    host="h1",
                    query_id="gone",
                    events=[Event("bid", {"exchange_id": 1}, 1, 1.0, "h1")],
                )
            )
        )
        assert pool.stats.batches_received == 0
        assert pool.stats.events_received == 0


def test_frame_ingest_metadata_only_batch():
    """A heartbeat flush (seen counts + drops, no events) still lands its
    M_i and drop accounting through the frame path."""
    registry = _registry()
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        plan = _plan(HEAVY_QUERY, registry)
        pool.register(plan.central_object, planned_hosts=2, targeted_hosts=2,
                      targeted_names=("h1", "h2"))
        pool.ingest_frame(
            encode_full_batch(
                EventBatch(host="h1", query_id="q1", events=[],
                           seen_counts={("bid", 0): 17}, dropped=4)
            )
        )
        rq = pool._queries["q1"]
        assert rq.host_window_acc(0, "h1").seen == 17
        assert rq.dropped_by_window.get(0) == 4
        assert pool.stats.batches_received == 1
        pool.finish("q1")


_PAYLOAD = {"exchange_id": 1, "bid_price": 0.5, "user_id": 1}


def _assert_refused_whole(engine, deliver, bad: Event, error, match: str) -> None:
    """*deliver* a batch holding one good event and *bad*: it must raise
    the codec's error with nothing of the batch booked, and the engine
    must still take the next batch."""
    plan = _plan("select COUNT(*), SUM(bid.bid_price) from bid window 60s "
                 "sample events 50%;", _registry())
    engine.register(plan.central_object, planned_hosts=2, targeted_hosts=2,
                    targeted_names=("h1", "h2"))
    good = Event("bid", _PAYLOAD, 1, 30.0, "h1")
    with pytest.raises(error, match=match):
        deliver(EventBatch(host="h1", query_id="q1", events=[good, bad],
                           seen_counts={("bid", 0): 4}, dropped=3))
    rq = engine._queries["q1"]
    assert engine.stats == type(engine.stats)()
    assert rq.host_acc == {} and rq.dropped_by_window == {}
    assert rq.hosts_by_window == {} and rq.tracker.open_windows == ()
    # The engine is not wedged: a clean batch lands as usual.
    deliver(EventBatch(host="h1", query_id="q1", events=[good],
                       seen_counts={("bid", 0): 2}))
    assert engine.stats.events_received == 1
    assert rq.host_window_acc(0, "h1").seen == 2
    (window,) = engine.finish("q1").windows
    assert window.late_events == 0


@pytest.mark.parametrize("door", ["ingest_frame", "ingest"])
@pytest.mark.parametrize("stamp", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool2"])
def test_non_finite_timestamp_rejects_the_batch_before_any_booking(workers, stamp, door):
    """`inf // length` is nan and `int(nan)` raises — which used to happen
    *after* the batch's seen counts (M_i), drops and stats were booked and
    the good event's window opened, losing the good event while counting
    it.  The codec refuses the frame, and the serial object door checks
    the batch's timestamps first, so nothing of it is ingested."""
    engine = ShardPool(workers=workers, grace_seconds=1.0) if workers else CentralEngine(1.0)

    def deliver(batch):
        if door == "ingest":
            engine.ingest(batch)
        else:
            engine.ingest_frame(encode_full_batch(batch))

    try:
        _assert_refused_whole(
            engine, deliver,
            Event("bid", _PAYLOAD, 2, stamp, "h1"), ValueError, "non-finite timestamp",
        )
    finally:
        if workers:
            engine.close()


@pytest.mark.parametrize(
    "bad, error, match",
    [
        (Event("bid", _PAYLOAD, 2, float("inf"), "h1"), ValueError, "non-finite timestamp"),
        (Event("bid", _PAYLOAD, 2, float("nan"), "h1"), ValueError, "non-finite timestamp"),
        (Event("bid", {**_PAYLOAD, "at": datetime(2026, 1, 1)}, 2, 31.0, "h1"),
         TypeError, "unencodable value"),
    ],
    ids=["inf", "nan", "datetime"],
)
def test_object_door_refuses_what_the_codec_cannot_carry(bad, error, match):
    """`ShardPool.ingest` encodes, so the in-process door holds the wire
    doors' contract: a batch the codec cannot carry is refused whole,
    before any accounting — not part-way through per-shard sends."""
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        _assert_refused_whole(pool, pool.ingest, bad, error, match)


@pytest.mark.parametrize("door", ["ingest", "ingest_frame"])
@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool2"])
def test_losses_with_no_window_open_land_on_the_window_seen_counts_names(workers, door):
    """A batch's `dropped`/`shed` are booked before its own events open
    their window; with nothing open they used to go to window 0, which is
    never emitted — a query's first batch lost its loss counts."""
    engine = ShardPool(workers=workers, grace_seconds=1.0) if workers else CentralEngine(1.0)

    def deliver(**batch):
        batch = EventBatch(host="h1", query_id="q1", **batch)
        if door == "ingest":
            engine.ingest(batch)
        else:
            engine.ingest_frame(encode_full_batch(batch))

    try:
        engine.register(_plan("select COUNT(*) from bid window 60s;", _registry()).central_object)
        # The query's first batch: one event, and the losses of its flush.
        deliver(events=[Event("bid", _PAYLOAD, 1, 130.0, "h1")],
                seen_counts={("bid", 2): 9}, dropped=6, shed=2)
        (first,) = engine.advance(200.0)
        assert (first.window_start, first.host_dropped, first.host_shed) == (120.0, 6, 2)
        assert first.rows[0][0] == 1
        # In the gap after a close, a heartbeat flush: everything was lost.
        deliver(events=[], seen_counts={("bid", 4): 8, ("bid", 3): 1}, dropped=5, shed=3)
        assert engine._queries["q1"].tracker.open_windows == (4,)
        (gap,) = engine.advance(400.0)
        assert (gap.window_start, gap.host_dropped, gap.host_shed) == (240.0, 5, 3)
        # A named window that has closed is not reopened, and no event is late.
        deliver(events=[], seen_counts={("bid", 4): 1}, dropped=1)
        rq = engine._queries["q1"]
        assert rq.tracker.open_windows == ()
        assert rq.tracker.late_events == 0 and engine.stats.events_late == 0
        assert len(engine.finish("q1").windows) == 2
    finally:
        if workers:
            engine.close()


@pytest.mark.parametrize("door", ["ingest", "ingest_frame"])
@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool2"])
def test_seen_counts_naming_closed_windows_hold_no_state(workers, door):
    """A flush carried over an outage (`SocketTransport._carry_seen`), or
    a peer naming old windows, reports M_i for windows that will never
    close again.  Each such entry used to leave a `host_acc` window, an
    accumulator per host and a `hosts_by_window` set behind for the life
    of the query, uncounted."""
    engine = ShardPool(workers=workers, grace_seconds=1.0) if workers else CentralEngine(1.0)

    def deliver(host="h1", **batch):
        batch = EventBatch(host=host, query_id="q1", **batch)
        if door == "ingest":
            engine.ingest(batch)
        else:
            engine.ingest_frame(encode_full_batch(batch))

    try:
        engine.register(
            _plan("select COUNT(*), SUM(bid.bid_price) from bid window 60s sample events 50%;",
                  _registry()).central_object
        )
        deliver(events=[Event("bid", _PAYLOAD, 1, 610.0, "h1")], seen_counts={("bid", 10): 2})
        engine.advance(700.0)  # closes window 10 and, with it, all before
        deliver(events=[Event("bid", _PAYLOAD, 2, 730.0, "h1")], seen_counts={("bid", 12): 2})
        rq = engine._queries["q1"]
        held = (len(rq.host_acc), len(rq.hosts_by_window))
        assert held == (1, 1)  # the open window 12
        for i in range(1_000):
            deliver(host=f"h{i % 2}", events=[], seen_counts={("bid", i % 11): 1 + i})
        assert (len(rq.host_acc), len(rq.hosts_by_window)) == held
        assert engine.stats.seen_counts_late == 1_000 and engine.stats.events_late == 0
        # The next window to close says how many reports came too late for theirs.
        (window,) = engine.advance(800.0)
        assert (window.window_start, window.late_events) == (720.0, 1_000)
        assert window.estimates["COUNT(*)"].estimate == 2
    finally:
        if workers:
            engine.close()


def test_pool_joins_without_a_residual_predicate():
    """A worker joins its shard of a window when the parent asks for it;
    with no cross-type predicate to filter the joined rows it handed the
    group loop a generator, and the close failed on `len()`."""
    registry = _registry()
    registry.define("exclusion", [("reason", "string")])
    plan = _plan(
        "select exclusion.reason, COUNT(*), SUM(bid.bid_price) from bid, exclusion "
        "window 60s group by exclusion.reason;", registry,
    )
    assert plan.central_object.residual_predicate is None
    events = [Event("bid", {**_PAYLOAD, "bid_price": (rid % 8) * 0.25}, rid, 5.0, "h1")
              for rid in range(40)]
    events += [Event("exclusion", {"reason": f"r{rid % 3}"}, rid, 6.0, "h2")
               for rid in range(0, 40, 2) for _copy in range(1 + rid % 3)]
    signatures = []
    for engine in (CentralEngine(1.0), ShardPool(workers=2, grace_seconds=1.0)):
        try:
            engine.register(plan.central_object)
            engine.ingest(EventBatch(host="h1", query_id="q1", events=events[:40]))
            engine.ingest(EventBatch(host="h2", query_id="q1", events=events[40:]))
            signatures.append(_signature(engine.finish("q1")))
        finally:
            if isinstance(engine, ShardPool):
                engine.close()
    assert signatures[0] == signatures[1]
    assert '"r0"' in signatures[0]


def test_pool_workers_1_vs_4_identical():
    registry = _registry()
    with ShardPool(workers=1, grace_seconds=1.0) as a:
        with ShardPool(workers=4, grace_seconds=1.0) as b:
            assert _run(a, registry, HEAVY_QUERY) == _run(b, registry, HEAVY_QUERY)


def test_raw_selection_stays_serial_and_ordered():
    """Non-aggregating queries bypass the pool: output rows must keep
    arrival order, which fan-out/merge would scramble."""
    registry = _registry()
    query = "select bid.user_id, bid.bid_price from bid window 60s;"

    def run(engine):
        plan = _plan(query, registry)
        engine.register(plan.central_object)
        events = [
            Event("bid", {"exchange_id": 1, "bid_price": i * 0.25, "user_id": i},
                  i, 1.0 + i * 0.01, "h1")
            for i in range(40)
        ]
        engine.ingest(EventBatch(host="h1", query_id="q1", events=events))
        return engine.finish("q1")

    serial = run(CentralEngine(grace_seconds=1.0))
    with ShardPool(workers=4, grace_seconds=1.0) as pool:
        rq_check = _plan(query, registry)
        pool.register(rq_check.central_object)
        assert pool._queries["q1"].parallel is False
        pool.finish("q1")
        pooled = run(pool)
    assert [r.values for r in pooled.rows] == [r.values for r in serial.rows]
    assert [r.values for r in serial.rows] == [
        (i, i * 0.25) for i in range(40)
    ]


def test_worker_failure_surfaces_as_execution_error():
    """A poisoned event (unhashable group key) fails inside a worker; the
    parent must raise a ScrubExecutionError at close, not hang."""
    registry = EventRegistry()
    registry.define("bid", [("tag", "object"), ("val", "double")])
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        plan = _plan(
            "select bid.tag, SUM(bid.val) from bid window 60s group by bid.tag;",
            registry,
        )
        pool.register(plan.central_object)
        # Schema types are checked statically, not at log time: a payload
        # that lies about its type reaches SUM inside the worker process
        # and fails there, not in the parent.
        pool.ingest(
            EventBatch(
                host="h1",
                query_id="q1",
                events=[Event("bid", {"tag": "a", "val": "oops"}, 1, 1.0, "h1")],
            )
        )
        with pytest.raises(ScrubExecutionError, match="shard worker"):
            pool.finish("q1")


def test_pool_close_is_idempotent_and_reaps_workers():
    pool = ShardPool(workers=2, grace_seconds=1.0)
    procs = [w.proc for w in pool._workers]
    assert all(p.is_alive() for p in procs)
    pool.close()
    pool.close()
    assert all(not p.is_alive() for p in procs)


def test_finish_without_drain_unregisters_workers():
    registry = _registry()
    with ShardPool(workers=2, grace_seconds=1.0) as pool:
        plan = _plan(HEAVY_QUERY, registry)
        pool.register(plan.central_object)
        pool.ingest(
            EventBatch(
                host="h1",
                query_id="q1",
                events=[
                    Event("bid", {"exchange_id": 1, "bid_price": 0.5,
                                  "user_id": 2}, 7, 1.0, "h1")
                ],
            )
        )
        results = pool.finish("q1", drain=False)
        assert len(results.windows) == 0
        # The pool is still healthy for the next query.
        plan2 = _plan("select COUNT(*) from bid window 60s;", registry, "q2")
        pool.register(plan2.central_object)
        pool.ingest(
            EventBatch(
                host="h1",
                query_id="q2",
                events=[
                    Event("bid", {"exchange_id": 1, "bid_price": 0.5,
                                  "user_id": 2}, 8, 1.0, "h1")
                ],
            )
        )
        assert pool.finish("q2").rows[0][0] == 1


def test_scrub_facade_with_workers_matches_serial():
    """End-to-end through the public API, including host-side event
    sampling (the estimates path exercises per-host value merging)."""
    query = (
        "select SUM(bid.bid_price), COUNT(*) from bid "
        "sample events 50% window 60s;"
    )

    def run(workers: int):
        clock = ManualClock(start=1.0)
        with Scrub(clock=clock, grace_seconds=1.0, workers=workers) as scrub:
            scrub.define_event(
                "bid",
                [("exchange_id", "long"), ("bid_price", "double"),
                 ("user_id", "long")],
            )
            hosts = [scrub.add_host(f"h{i}") for i in range(3)]
            handle = scrub.submit(query)
            for i in range(300):
                hosts[i % 3].log(
                    "bid",
                    {"exchange_id": i % 5, "bid_price": (i % 8) * 0.25,
                     "user_id": i % 40},
                    request_id=i,
                )
            results = scrub.finish(handle.query_id)
        return results

    serial = run(0)
    pooled = run(3)
    assert _signature(pooled) == _signature(serial)
    assert pooled.windows[0].estimates.keys() == serial.windows[0].estimates.keys()


def test_scrub_facade_codec_hop_is_invisible_for_every_field_type():
    """`Scrub(workers=N)` encodes every batch on its way to the workers.
    Strings, NULLs, bools, lists and maps — as values and as group keys —
    must come out exactly as the serial facade reports them."""
    grouped = (
        "select ev.name, ev.flag, ev.tags, ev.meta, COUNT(*), SUM(ev.val), "
        "COUNT_DISTINCT(ev.name), TOP(2, ev.name), MAX(ev.name) from ev "
        "window 60s group by ev.name, ev.flag, ev.tags, ev.meta;"
    )
    sampled = "select COUNT(*), AVG(ev.val) from ev sample events 50% window 60s;"

    def run(workers: int):
        clock = ManualClock(start=1.0)
        with Scrub(clock=clock, grace_seconds=1.0, workers=workers) as scrub:
            scrub.define_event(
                "ev",
                [("name", "string"), ("flag", "boolean"), ("tags", "list<string>"),
                 ("meta", "object"), ("val", "double")],
            )
            hosts = [scrub.add_host(f"h{i}") for i in range(2)]
            handles = [scrub.submit(grouped), scrub.submit(sampled)]
            for i in range(200):
                hosts[i % 2].log(
                    "ev",
                    {
                        "name": None if i % 7 == 0 else f"n{i % 3}",
                        "flag": None if i % 5 == 0 else bool(i % 2),
                        "tags": [f"t{i % 2}", "x"] if i % 4 else [],
                        "meta": {"k": i % 2, "in": {"deep": [1, None]}} if i % 3 else None,
                        "val": None if i % 11 == 0 else (i % 8) * 0.25,
                    },
                    request_id=i,
                )
                if i == 100:
                    clock.advance(60.0)  # a second window
            results = [scrub.finish(handle.query_id) for handle in handles]
            return results, scrub.central.stats

    (serial_grouped, serial_sampled), serial_stats = run(0)
    (pooled_grouped, pooled_sampled), pooled_stats = run(2)
    assert len(serial_grouped.windows) == 2 and len(serial_grouped.rows) > 40
    for pooled, serial in ((pooled_grouped, serial_grouped), (pooled_sampled, serial_sampled)):
        assert _signature(pooled) == _signature(serial)
        assert [w.rows for w in pooled.windows] == [w.rows for w in serial.windows]
        assert [w.estimates for w in pooled.windows] == [w.estimates for w in serial.windows]
        assert [w.coverage for w in pooled.windows] == [w.coverage for w in serial.windows]
    assert serial_sampled.windows[0].estimates
    assert pooled_stats == serial_stats


def test_scrubd_daemon_uses_pool_when_workers_requested():
    """The --workers flag swaps the daemon's engine for a ShardPool."""
    from repro.live.server import ScrubDaemon

    daemon = ScrubDaemon(port=0, workers=2)
    try:
        assert isinstance(daemon.engine, ShardPool)
        assert daemon.engine.workers == 2
        assert daemon.plane.stats(0.0)["workers"] == 2
    finally:
        daemon.engine.close()

    serial = ScrubDaemon(port=0)
    assert not isinstance(serial.engine, ShardPool)
    assert serial.plane.stats(0.0)["workers"] == 0


def test_sim_cluster_with_central_workers_matches_serial():
    """The simulated deployment produces identical results when its
    central facility runs on the pool."""
    from repro.cluster.runtime import SimCluster, run_to_completion
    from repro.core.events import EventRegistry as Registry

    def run(central_workers: int):
        registry = Registry()
        registry.define(
            "bid", [("exchange_id", "long"), ("bid_price", "double")]
        )
        with SimCluster(registry, central_workers=central_workers) as cluster:
            hosts = cluster.add_service("BidServers", "dc1", 2)
            handle = cluster.submit(
                "select bid.exchange_id, COUNT(*), SUM(bid.bid_price) "
                "from bid @[Service in BidServers] window 5s "
                "start now duration 12s group by bid.exchange_id;"
            )
            for i in range(120):
                hosts[i % 2].agent.log(
                    "bid",
                    {"exchange_id": i % 4, "bid_price": (i % 8) * 0.25},
                    request_id=i,
                )
                cluster.run_for(0.05)
            results = run_to_completion(cluster, handle)
        return results

    assert _signature(run(2)) == _signature(run(0))
