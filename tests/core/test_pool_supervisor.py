"""Self-healing ShardPool: the supervisor's respawn/re-register/degrade
contract, without the full chaos harness (those live under
``tests/live/test_chaos_pool.py``).

A worker death must never poison the pool or the caller: ingest routes
pipe errors to the supervisor, the replacement worker gets every active
query re-registered, and the unrecoverable in-flight slice is reported
as *degraded coverage* (a ``shard_gaps`` entry) on exactly the windows
that were open — later windows are whole again.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.agent.transport import EventBatch
from repro.core.central.pool import ShardPool
from repro.core.events import Event, EventRegistry
from repro.core.query import parse_query, plan_query, validate_query
from repro.core.query.errors import ScrubExecutionError

COUNT_QUERY = "select COUNT(*) from bid window 60s;"
GROUPED_QUERY = (
    "select bid.exchange_id, COUNT(*), SUM(bid.bid_price) "
    "from bid window 60s group by bid.exchange_id;"
)


@pytest.fixture
def registry():
    r = EventRegistry()
    r.define("bid", [("exchange_id", "long"), ("bid_price", "double")])
    return r


def _plan(text, registry, query_id="q1"):
    return plan_query(validate_query(parse_query(text), registry), query_id)


def _batch(window: int, n: int = 40, host: str = "h1", query_id: str = "q1",
           rid_base: int = 0) -> EventBatch:
    events = [
        Event(
            "bid",
            {"exchange_id": i % 4, "bid_price": (i % 8) * 0.25},
            rid_base + i,  # spread over every shard
            window * 60.0 + (i % 60),
            host,
        )
        for i in range(n)
    ]
    return EventBatch(host=host, query_id=query_id, events=events)


def _kill_worker(pool: ShardPool, index: int) -> None:
    proc = pool._workers[index].proc
    proc.kill()
    proc.join(timeout=5)


class TestSupervisor:
    def test_dead_worker_ingest_routes_to_supervisor_not_caller(self, registry):
        with ShardPool(workers=2, grace_seconds=1.0) as pool:
            pool.register(_plan(GROUPED_QUERY, registry).central_object)
            _kill_worker(pool, 0)
            pool.ingest(_batch(window=0))  # must not raise
            health = pool.pool_health()
            assert health["alive"] == health["workers"] == 2
            assert health["respawns"] == 1
            (entry,) = health["respawn_log"]
            assert entry["shard"] == 0
            assert entry["generation"] == 1
            assert "ingest" in entry["reason"]

    def test_respawn_reregisters_queries_and_marks_only_open_windows(self, registry):
        with ShardPool(workers=2, grace_seconds=1.0) as pool:
            pool.register(_plan(COUNT_QUERY, registry).central_object)
            pool.ingest(_batch(window=0, n=40))
            _kill_worker(pool, 1)
            # Detection happens on the next send that touches shard 1.
            pool.ingest(_batch(window=0, n=40, rid_base=40))
            (w0,) = pool.advance(61.5)
            assert w0.coverage is not None and w0.coverage.degraded
            assert "worker respawned" in w0.coverage.shard_gaps["shard-1"]

            # The fresh worker was re-registered: a later window is whole —
            # exact count, no gap in (or any) coverage.
            pool.ingest(_batch(window=1, n=40, rid_base=80))
            (w1,) = pool.advance(121.5)
            assert w1.coverage is None
            assert w1.rows[0][0] == 40
            pool.finish("q1")

    def test_close_is_idempotent_with_a_pre_killed_worker(self, registry):
        pool = ShardPool(workers=2, grace_seconds=1.0)
        procs = [w.proc for w in pool._workers]
        _kill_worker(pool, 0)
        pool.close()
        pool.close()
        assert all(not p.is_alive() for p in procs)

    def test_hung_worker_detected_by_close_heartbeat(self, registry):
        with ShardPool(workers=2, grace_seconds=1.0, worker_timeout=0.5) as pool:
            pool.register(_plan(COUNT_QUERY, registry).central_object)
            pool.ingest(_batch(window=0, n=40))
            os.kill(pool._workers[0].proc.pid, signal.SIGSTOP)
            (w0,) = pool.advance(61.5)
            assert "hung" in w0.coverage.shard_gaps["shard-0"]
            health = pool.pool_health()
            assert health["alive"] == 2 and health["respawns"] == 1

            # The pool keeps serving after replacing the frozen worker.
            pool.ingest(_batch(window=1, n=40, rid_base=40))
            (w1,) = pool.advance(121.5)
            assert w1.coverage is None
            assert w1.rows[0][0] == 40
            pool.finish("q1")

    def test_per_query_failure_isolation(self):
        """A poisoned query fails alone: co-registered queries on the same
        workers still close their windows and report exact results."""
        registry = EventRegistry()
        registry.define("bid", [("tag", "object"), ("val", "double")])
        with ShardPool(workers=2, grace_seconds=1.0) as pool:
            poisoned = _plan(
                "select bid.tag, SUM(bid.val) from bid window 60s group by bid.tag;",
                registry, "q1",
            )
            healthy = _plan("select COUNT(*) from bid window 60s;", registry, "q2")
            pool.register(poisoned.central_object)
            pool.register(healthy.central_object)
            pool.ingest(EventBatch(
                host="h1", query_id="q1",
                events=[Event("bid", {"tag": "a", "val": "oops"}, 1, 1.0, "h1")],
            ))
            good = [
                Event("bid", {"tag": "a", "val": 0.5}, i, 1.0, "h1")
                for i in range(20)
            ]
            pool.ingest(EventBatch(host="h1", query_id="q2", events=good))
            with pytest.raises(ScrubExecutionError, match="shard worker"):
                pool.finish("q1")
            assert pool.finish("q2").rows[0][0] == 20
            # No respawn happened: a query error is not a worker fault.
            assert pool.pool_health()["respawns"] == 0
