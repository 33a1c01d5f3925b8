"""E10 — ScrubCentral throughput and scaling.

The paper's execution strategy concentrates joins, group-bys and
aggregations in ScrubCentral — which only works if a small central
cluster keeps up with the event streams the hosts ship ("only a small
ScrubCentral cluster was needed", §8.1).  These benchmarks measure the
central engine's single-core ingest rate for the three pipeline shapes
(global aggregate, group-by, equi-join) and how it scales with group
cardinality and the number of contributing hosts.
"""

import statistics
import time

import pytest

from repro.core.agent.transport import EventBatch
from repro.core.central.engine import CentralEngine
from repro.core.events import Event, EventRegistry
from repro.core.query import parse_query, plan_query, validate_query
from repro.reporting import ExperimentReport

BATCH = 1_000
ROUNDS = 30

#: The end-to-end benchmark's ``heavy_ship`` query (benchmarks/e2e),
#: with this file's one-hour window.
HEAVY_SHIP = (
    "select bid.exchange_id, COUNT(*), SUM(bid.bid_price), "
    "COUNT_DISTINCT(bid.user_id), TOP(5, bid.user_id) from bid window 1h "
    "group by bid.exchange_id;"
)

SHAPES = [
    ("global COUNT", "select COUNT(*) from bid window 1h;", 1),
    ("global SUM+AVG",
     "select SUM(bid.bid_price), AVG(bid.bid_price) from bid window 1h;", 1),
    ("group-by 10",
     "select bid.exchange_id, COUNT(*) from bid window 1h "
     "group by bid.exchange_id;", 10),
    ("group-by 1000",
     "select bid.exchange_id, COUNT(*) from bid window 1h "
     "group by bid.exchange_id;", 1000),
    ("COUNT_DISTINCT",
     "select COUNT_DISTINCT(bid.user_id) from bid window 1h;", 1),
    ("TOP-10",
     "select TOP(10, bid.user_id) from bid window 1h;", 1),
    ("heavy_ship", HEAVY_SHIP, 12),
]


def _registry():
    registry = EventRegistry()
    registry.define("bid", [
        ("exchange_id", "long"), ("bid_price", "double"), ("user_id", "long"),
    ])
    registry.define("exclusion", [("reason", "string")])
    return registry


def _engine(text, registry):
    engine = CentralEngine(grace_seconds=0.0)
    plan = plan_query(validate_query(parse_query(text), registry), "q1")
    engine.register(plan.central_object)
    return engine


def _bid_events(n, groups=1, start_rid=0, host="h1"):
    return [
        Event(
            "bid",
            {"exchange_id": i % groups, "bid_price": 1.0, "user_id": i % 97},
            start_rid + i,
            1.0,
            host,
        )
        for i in range(n)
    ]


def _frame(events, host="h1"):
    """The v2 wire frame a host's flush of *events* ships — what
    ``scrubd`` hands to ``CentralEngine.ingest_frame``."""
    return EventBatch(host=host, query_id="q1", events=events).frame


def _events_per_second(engine, frames, events):
    """Median rate over ``ROUNDS`` timed passes of *frames* through
    ``ingest_frame`` (timed here, so the figure exists with pytest-benchmark
    disabled too)."""
    seconds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for frame in frames:
            engine.ingest_frame(frame)
        seconds.append(time.perf_counter() - start)
    return events / statistics.median(seconds)


@pytest.mark.parametrize("label,query,groups", SHAPES, ids=[s[0] for s in SHAPES])
def test_central_ingest_rate(benchmark, label, query, groups):
    registry = _registry()
    engine = _engine(query, registry)
    frame = _frame(_bid_events(BATCH, groups=groups))

    rate = benchmark.pedantic(
        _events_per_second, args=(engine, [frame], BATCH), rounds=1, iterations=1
    )
    benchmark.extra_info["events_per_round"] = BATCH
    benchmark.extra_info["events_per_second"] = round(rate)
    # A single Python core must sustain a usefully high rate; the paper's
    # central cluster is native and parallel, so only the order of
    # magnitude matters here.
    assert rate > 50_000, f"{label}: {rate:.0f} events/s"


def test_join_ingest_and_close(benchmark):
    registry = _registry()

    def run():
        engine = _engine(
            "select exclusion.reason, COUNT(*) from bid, exclusion "
            "window 1h group by exclusion.reason;",
            registry,
        )
        n = 5_000
        bids = [
            Event("bid", {"exchange_id": 1, "bid_price": 1.0, "user_id": rid}, rid, 1.0, "h1")
            for rid in range(n)
        ]
        exclusions = [
            Event("exclusion", {"reason": f"R{rid % 5}"}, rid, 1.0, "h2") for rid in range(n)
        ]
        engine.ingest_frame(_frame(bids, "h1"))
        engine.ingest_frame(_frame(exclusions, "h2"))
        results = engine.finish("q1")
        return n, results

    n, results = benchmark(run)
    assert sum(r[1] for r in results.rows) == n


def test_throughput_summary_report(benchmark):
    """Aggregate sweep for the E10 report artifact."""
    registry = _registry()
    events = 20_000

    def sweep():
        rows = []
        for label, query, groups in SHAPES:
            engine = _engine(query, registry)
            frames = [_frame(_bid_events(events, groups=groups))]
            rows.append([label, f"{_events_per_second(engine, frames, events):,.0f}"])
        # Host-count scaling: same event volume split across many hosts.
        for hosts in (1, 10, 100):
            engine = _engine("select COUNT(*) from bid window 1h;", registry)
            per_host = events // hosts
            frames = [
                _frame(_bid_events(per_host, start_rid=h * per_host, host=f"h{h}"), f"h{h}")
                for h in range(hosts)
            ]
            rate = _events_per_second(engine, frames, per_host * hosts)
            rows.append([f"COUNT from {hosts} hosts", f"{rate:,.0f}"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = ExperimentReport(
        "E10_central_throughput",
        "ScrubCentral single-core ingest rate (events/second, wire frames "
        "through ingest_frame)",
    )
    report.table("pipeline shapes", ["configuration", "events/s"], rows)
    report.note(
        "the paper's ScrubCentral is a small dedicated cluster; a single "
        "Python core sustaining 10^5-10^6 events/s supports the claim that "
        "central execution does not need big-data infrastructure."
    )
    report.emit()
    assert all(float(r[1].replace(",", "")) > 30_000 for r in rows)
