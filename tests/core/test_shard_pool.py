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


@pytest.mark.parametrize("stamp", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool2"])
def test_non_finite_timestamp_rejects_the_batch_before_any_booking(workers, stamp):
    """`inf // length` is nan and `int(nan)` raises — which used to happen
    *after* the batch's seen counts (M_i), drops and stats were booked and
    the good event's window opened, losing the good event while counting
    it.  The codec now refuses the frame, so nothing of it is ingested."""
    registry = _registry()
    engine = ShardPool(workers=workers, grace_seconds=1.0) if workers else CentralEngine(1.0)
    try:
        plan = _plan("select COUNT(*), SUM(bid.bid_price) from bid window 60s "
                     "sample events 50%;", registry)
        engine.register(plan.central_object, planned_hosts=2, targeted_hosts=2,
                        targeted_names=("h1", "h2"))
        payload = {"exchange_id": 1, "bid_price": 0.5, "user_id": 1}
        good = Event("bid", payload, 1, 30.0, "h1")
        frame = encode_full_batch(
            EventBatch(host="h1", query_id="q1",
                       events=[good, Event("bid", payload, 2, stamp, "h1")],
                       seen_counts={("bid", 0): 4}, dropped=3)
        )
        with pytest.raises(ValueError, match="non-finite timestamp"):
            engine.ingest_frame(frame)
        rq = engine._queries["q1"]
        assert engine.stats == type(engine.stats)()
        assert rq.host_acc == {} and rq.dropped_by_window == {}
        assert rq.hosts_by_window == {} and rq.tracker.open_windows == ()
        # The engine is not wedged: a clean batch lands as usual.
        engine.ingest_frame(
            encode_full_batch(EventBatch(host="h1", query_id="q1", events=[good],
                                         seen_counts={("bid", 0): 2}))
        )
        assert engine.stats.events_received == 1
        assert rq.host_window_acc(0, "h1").seen == 2
        (window,) = engine.finish("q1").windows
        assert window.late_events == 0
    finally:
        if workers:
            engine.close()


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
    procs = list(pool._procs)
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


def test_scrubd_daemon_uses_pool_when_workers_requested():
    """The --workers flag swaps the daemon's engine for a ShardPool."""
    from repro.live.server import ScrubDaemon

    daemon = ScrubDaemon(port=0, workers=2)
    try:
        assert isinstance(daemon.engine, ShardPool)
        assert daemon.engine.workers == 2
        assert daemon._stats()["workers"] == 2
    finally:
        daemon.engine.close()

    serial = ScrubDaemon(port=0)
    assert not isinstance(serial.engine, ShardPool)
    assert serial._stats()["workers"] == 0


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
