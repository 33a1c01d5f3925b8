"""Both production doors are the per-event engine, observably.

``CentralEngine.ingest`` (objects) and ``ingest_frame`` (wire bytes: rows
where the layout allows, else decode-then-``ingest``) process a flush in
batches; ``tests/core/reference_engine.py`` is the engine that dispatches
every row on its own.  For any sequence of flushes and clock advances the
three must agree on everything observable: each window's rows, estimates
(per-host float folds bit-equal — prices here are *not* dyadic), drop /
shed / late counts and coverage, what was refused, what state is still
held, and ``CentralStats`` (apart from ``events_rowed``, which says which
path ran).  The shapes are the ones the plain-Python oracle in
``test_differential.py`` does not reach: sliding windows, equi-joins
(grouped, with a residual predicate, and raw), a sampled estimable query,
late events after a close, loss-only flushes — some naming windows
already closed — and a flush refused for a non-finite timestamp.

No processes: the pool is held to the serial engine in
``test_shard_pool.py``.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.transport import EventBatch, encode_full_batch
from repro.core.central.engine import CentralEngine
from repro.core.events import Event, EventRegistry
from repro.core.query import parse_query, plan_query, validate_query

from .reference_engine import ReferenceEngine

WINDOW = 10.0

QUERIES = {
    "tumbling-grouped": (
        "select bid.exchange_id, COUNT(*), SUM(bid.bid_price), AVG(bid.bid_price), "
        "TOP(3, bid.user_id) from bid window 10s group by bid.exchange_id;"
    ),
    "sliding": (
        "select bid.exchange_id, COUNT(*), SUM(bid.bid_price) "
        "from bid window 10s slide 5s group by bid.exchange_id;"
    ),
    "join-grouped": (
        "select bid.exchange_id, COUNT(*), SUM(bid.bid_price * exclusion.weight), "
        "TOP(3, exclusion.reason) from bid, exclusion "
        "where bid.bid_price > exclusion.weight window 10s group by bid.exchange_id;"
    ),
    "join-raw": (
        "select bid.user_id, exclusion.reason, bid.bid_price + exclusion.weight "
        "from bid, exclusion window 10s;"
    ),
    "sampled": (
        "select COUNT(*), SUM(bid.bid_price), AVG(bid.bid_price) "
        "from bid window 10s sample events 50%;"
    ),
}


def _registry() -> EventRegistry:
    registry = EventRegistry()
    registry.define(
        "bid",
        [("exchange_id", "long"), ("bid_price", "double"), ("user_id", "long"),
         ("city", "string")],
    )
    registry.define("exclusion", [("reason", "string"), ("weight", "double")])
    return registry


REGISTRY = _registry()
SPECS = {
    name: plan_query(validate_query(parse_query(text), REGISTRY), "q1").central_object
    for name, text in QUERIES.items()
}


def _object_door(engine: CentralEngine, batch: EventBatch) -> None:
    engine.ingest(batch)


def _frame_door(engine: CentralEngine, batch: EventBatch) -> None:
    engine.ingest_frame(encode_full_batch(batch))


def _outcome(engine: CentralEngine, door, name: str, steps: list) -> tuple:
    """Everything observable from feeding *steps* (batches, or floats to
    ``advance`` to) to *engine* through *door*: which steps were refused,
    the state still held, the windows — ``repr`` covers rows, estimates,
    coverage, late and drop counts, NaN-safely and int-vs-float strictly
    — and the engine's accounting."""
    engine.register(
        SPECS[name], planned_hosts=3, targeted_hosts=2, targeted_names=("h1", "h2")
    )
    refused = []
    for index, step in enumerate(steps):
        if isinstance(step, float):
            engine.advance(step)
            continue
        try:
            door(engine, step)
        except ValueError as exc:
            assert "non-finite timestamp" in str(exc)
            refused.append(index)
    rq = engine._queries["q1"]
    held = (
        rq.tracker.open_windows, rq.tracker.late_events, rq.late_since_close,
        sorted(rq.windows), sorted(rq.join_buffers),
        sorted(rq.host_acc), sorted(rq.hosts_by_window),
    )
    windows = repr(engine.finish("q1").windows)
    return refused, held, windows, dataclasses.replace(engine.stats, events_rowed=0)


def _assert_three_way(name: str, steps: list) -> tuple:
    reference = _outcome(ReferenceEngine(grace_seconds=1.0), _object_door, name, steps)
    objects = _outcome(CentralEngine(grace_seconds=1.0), _object_door, name, steps)
    frames = _outcome(CentralEngine(grace_seconds=1.0), _frame_door, name, steps)
    assert objects == reference
    assert frames == reference
    return reference


# -- the differential ----------------------------------------------------------

_draw = st.fixed_dictionaries(
    {
        # Windows 0..4; `advance` steps close some, so stragglers are late.
        "ts": st.floats(min_value=0.0, max_value=49.0, allow_nan=False),
        "exchange_id": st.integers(min_value=0, max_value=2),
        # Hundredths: a fold in any other order or association shows.
        "bid_price": st.integers(min_value=1, max_value=999).map(lambda n: n / 100),
        "user_id": st.integers(min_value=0, max_value=9),
        # Few request ids: both sides of a join meet, some more than once.
        "rid": st.integers(min_value=0, max_value=5),
        "exclusion": st.booleans(),
        "reason": st.sampled_from(["budget", "geo", "cap"]),
    }
)


def _event(draw: dict, host: str, is_join: bool, with_city: bool) -> Event:
    if is_join and draw["exclusion"]:
        payload = {"reason": draw["reason"], "weight": draw["bid_price"] / 3}
        return Event("exclusion", payload, draw["rid"], draw["ts"], host)
    payload = {key: draw[key] for key in ("exchange_id", "bid_price", "user_id")}
    if with_city:  # a string field: the frame door falls back to objects
        payload["city"] = "Porto"
    return Event("bid", payload, draw["rid"], draw["ts"], host)


def _seen(events: list[Event], sampled_away: int) -> dict[tuple[str, int], int]:
    """M_i per window, keyed as agents key it — by window *length*,
    ``int(now // window_seconds)``, whatever the slide: what was shipped
    (the estimator insists on at least that) plus *sampled_away*
    unshipped matches per shipped one."""
    seen: Counter = Counter()
    for event in events:
        seen[(event.event_type, int(event.timestamp // WINDOW))] += 1 + sampled_away
    return dict(seen)


_named_windows = st.dictionaries(
    st.tuples(st.just("bid"), st.integers(min_value=0, max_value=5)),
    st.integers(min_value=1, max_value=9),
    max_size=3,
)


@st.composite
def _batches(draw, is_join: bool) -> EventBatch:
    host = draw(st.sampled_from(["h1", "h2"]))
    with_city = draw(st.sampled_from([False, False, True]))
    draws = draw(st.lists(_draw, max_size=12))
    if draw(st.booleans()):  # a flush that sits in one window
        draws = [{**d, "ts": 20.0 + d["ts"] % WINDOW} for d in draws]
    events = [_event(d, host, is_join, with_city) for d in draws]
    seen = _seen(events, sampled_away=draw(st.integers(0, 3)))
    for key, count in draw(_named_windows).items():  # shipped nothing for these
        seen[key] = seen.get(key, 0) + count
    return EventBatch(
        host=host,
        query_id="q1",
        events=events,
        seen_counts=seen,
        dropped=draw(st.sampled_from([0, 0, 3])),
        shed=draw(st.sampled_from([0, 0, 5])),
    )


@st.composite
def _non_finite_batches(draw, is_join: bool) -> EventBatch:
    batch = draw(_batches(is_join))
    stamp = draw(st.sampled_from([float("inf"), float("-inf"), float("nan")]))
    bad = Event("bid", {"exchange_id": 1, "bid_price": 0.5, "user_id": 1}, 1, stamp, batch.host)
    batch.events.insert(draw(st.integers(0, len(batch.events))), bad)
    return batch


def _steps(is_join: bool):
    return st.lists(
        st.one_of(
            _batches(is_join),
            _batches(is_join),
            _non_finite_batches(is_join),
            st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        ),
        max_size=8,
    )


@pytest.mark.parametrize("name", list(QUERIES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_both_doors_equal_the_per_event_engine(name, data):
    steps = data.draw(_steps(SPECS[name].is_join))
    refused, _held, _windows, stats = _assert_three_way(name, steps)
    bad = [
        index for index, step in enumerate(steps)
        if not isinstance(step, float) and not all(math.isfinite(e.timestamp) for e in step.events)
    ]
    assert refused == bad  # refused by all three, and whole:
    good = [s for i, s in enumerate(steps) if not isinstance(s, float) and i not in bad]
    assert stats.batches_received == len(good)
    assert stats.events_received == sum(len(s.events) for s in good)


# -- directed: shapes a random draw reaches rarely --------------------------------


def _bid(rid: int, ts: float, host: str = "h1") -> Event:
    return Event("bid", {"exchange_id": 1, "bid_price": 0.37, "user_id": rid}, rid, ts, host)


def _batch(events: list[Event], host: str = "h1", **meta) -> EventBatch:
    return EventBatch(host=host, query_id="q1", events=events, **meta)


@pytest.mark.parametrize("name", ["tumbling-grouped", "sliding", "sampled"])
def test_late_events_and_late_seen_counts_after_a_close(name):
    """Window 0 closes; then a straggler, a flush naming window 0 with
    nothing to ship, and a flush that straddles closed and open windows."""
    steps = [
        _batch([_bid(1, 1.0), _bid(2, 12.0)], seen_counts={("bid", 0): 2, ("bid", 1): 2}),
        11.5,  # closes window 0 (end 10 + grace 1); sliding: windows -1 and 0
        _batch([_bid(3, 2.0)], seen_counts={("bid", 0): 1}),
        _batch([], host="h2", seen_counts={("bid", 0): 7}, dropped=2, shed=1),
        _batch([_bid(4, 3.0, "h2"), _bid(5, 13.0, "h2"), _bid(6, 31.0, "h2")], host="h2",
               seen_counts={("bid", 0): 1, ("bid", 1): 1, ("bid", 3): 1}),
    ]
    _refused, held, _windows, stats = _assert_three_way(name, steps)
    assert stats.events_late == 2
    if name == "sliding":
        # seen_counts are in the agents' index space (window length), not
        # the tracker's (slide steps): never booked, so never late.
        assert stats.seen_counts_late == 0 and held[2] == 2 and held[5] == []
    else:
        assert stats.seen_counts_late == 3
        assert held[2] == 5  # late_since_close: the next window to close names them
    assert 0 not in held[5] and 0 not in held[6]  # nothing kept for closed window 0


def test_join_close_equals_the_per_row_oracle(monkeypatch):
    """``_close_window`` feeds a window's joined rows to ``process_batch``
    in slices (short ones here, so they cut through every group); the
    oracle feeds them one at a time.  Several groups, a residual that
    rejects some rows, requests with more than one event a side (cross
    products), and more distinct TOP items than the Space-Saving summary
    holds, so its evictions depend on update order."""
    monkeypatch.setattr("repro.core.central.engine._JOIN_SLICE", 64)
    events = []
    for rid in range(450):
        price = (rid * 7 % 100 + 1) / 100
        events.append(Event("bid", {"exchange_id": rid % 3, "bid_price": price, "user_id": rid},
                            rid, 1.0 + rid % 8, "h1"))
        for copy in range(1 + rid % 3):
            reason = f"r{(rid * rid + copy) % 211}" if rid % 4 else "budget"
            events.append(Event("exclusion", {"reason": reason, "weight": ((rid + copy) % 10) / 20},
                                rid, 2.0, "h2"))

    def close_the_window(engine: CentralEngine) -> tuple:
        engine.register(SPECS["join-grouped"])
        processor = engine._queries["q1"].processor
        make, made = processor.make_window_state, []

        def recording_make():
            made.append(make())
            return made[-1]

        processor.make_window_state = recording_make
        engine.ingest(_batch(events[::2]))
        engine.ingest(_batch(events[1::2], host="h2"))
        (window,) = engine.advance(20.0)
        (state,) = made  # a join window's state is built at close
        summaries = {
            key: [(t.item, t.count, t.error) for t in top.summary.top(10_000)]
            for key, (_count, _sum, top) in state.groups.items()
        }
        return repr(window), state.rows_processed, summaries, engine.stats

    batched = close_the_window(CentralEngine(grace_seconds=1.0))
    per_row = close_the_window(ReferenceEngine(grace_seconds=1.0))
    assert batched == per_row
    _window, rows_processed, summaries, _stats = batched
    assert len(summaries) == 3 and 0 < rows_processed < 900  # groups; the residual bit
    assert any(error for top in summaries.values() for _item, _count, error in top)  # evictions
