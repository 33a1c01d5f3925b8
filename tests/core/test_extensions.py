"""Tests for the two extensions: sliding windows and AGGREGATE ON HOSTS.

Sliding windows are the paper's explicitly-suggested extension
(Section 3.2); host-side pre-aggregation is the opt-in ablation mode
from DESIGN.md §7 that inverts the paper's central-execution default.
"""

import pytest

from repro.core import ManualClock, Scrub
from repro.core.events import EventRegistry
from repro.core.query import (
    ScrubSyntaxError,
    ScrubValidationError,
    parse_query,
    plan_query,
    unparse,
    validate_query,
)


@pytest.fixture
def registry():
    r = EventRegistry()
    r.define("bid", [("user_id", "long"), ("bid_price", "double")])
    r.define("click", [("user_id", "long")])
    return r


def validate(text, registry):
    return validate_query(parse_query(text), registry)


class TestSlidingWindowLanguage:
    def test_parse_and_round_trip(self):
        q = parse_query("select COUNT(*) from bid window 10s slide 5s;")
        assert q.window == 10.0 and q.slide == 5.0
        assert parse_query(unparse(q)) == q

    def test_slide_exceeding_window_rejected(self):
        with pytest.raises(ScrubSyntaxError, match="SLIDE"):
            parse_query("select COUNT(*) from bid window 5s slide 10s;")

    def test_plan_carries_slide(self, registry):
        plan = plan_query(
            validate("select COUNT(*) from bid window 10s slide 2s;", registry),
            "q1",
        )
        assert plan.central_object.slide_seconds == 2.0

    def test_tumbling_by_default(self, registry):
        plan = plan_query(
            validate("select COUNT(*) from bid window 10s;", registry), "q1"
        )
        assert plan.central_object.slide_seconds is None


class TestSlidingWindowExecution:
    def test_overlapping_counts(self):
        clock = ManualClock()
        scrub = Scrub(clock=clock, grace_seconds=0.0)
        scrub.define_event("bid", [("user_id", "long")])
        host = scrub.add_host("h0")
        handle = scrub.submit(
            "select COUNT(*) from bid window 10s slide 5s duration 30s;"
        )
        for t in range(20):
            clock.set(float(t))
            host.log("bid", user_id=1, request_id=t)
            scrub.tick()
        clock.set(31.0)
        results = scrub.finish(handle.query_id)
        by_start = {w.window_start: w.rows[0][0] for w in results.windows}
        # One event per second: full windows hold 10, the trailing
        # partially-filled window holds 5.
        assert by_start[0.0] == 10
        assert by_start[5.0] == 10
        assert by_start[10.0] == 10
        assert by_start[15.0] == 5
        # Overlap means total counted observations exceed events emitted.
        assert sum(by_start.values()) > 20

    def test_healthy_sliding_run_reports_nothing_late_and_holds_no_seen_state(self):
        """Agents key ``seen_counts`` by window *length* (at t = 1 000,
        window 100); the tracker of a SLIDE query counts slide steps
        (window 200, with 198 closed).  Reading one as the other called
        every healthy flush late — and before that was checked, kept a
        ``host_acc`` / ``hosts_by_window`` entry per flush that no close
        ever freed."""
        clock = ManualClock()
        clock.set(1_000.0)
        scrub = Scrub(clock=clock, grace_seconds=1.0)
        scrub.define_event("bid", [("user_id", "long")])
        hosts = [scrub.add_host("h0"), scrub.add_host("h1")]
        handle = scrub.submit("select COUNT(*) from bid window 10s slide 5s duration 60s;")
        rq = scrub.central._queries[handle.query_id]
        for t in range(1_000, 1_060):
            clock.set(float(t))
            for host in hosts:
                host.log("bid", user_id=1, request_id=t)
            scrub.tick()
            assert not rq.host_acc
            assert set(rq.hosts_by_window) <= set(rq.tracker.open_windows)
        clock.set(1_061.0)
        results = scrub.finish(handle.query_id)
        assert len(results.windows) > 10
        assert [w.late_events for w in results.windows] == [0] * len(results.windows)
        stats = scrub.central.stats
        assert stats.events_received == 120
        assert (stats.events_late, stats.seen_counts_late) == (0, 0)
        full = [w for w in results.windows if 1_000.0 <= w.window_start <= 1_050.0]
        assert full and all(w.rows[0][0] == 20 for w in full)

    def test_sampled_sliding_query_has_no_estimates(self):
        """Eqs. 1-3 estimation stays tumbling-only."""
        clock = ManualClock()
        scrub = Scrub(clock=clock, grace_seconds=0.0)
        scrub.define_event("bid", [("user_id", "long")])
        host = scrub.add_host("h0")
        handle = scrub.submit(
            "select COUNT(*) from bid sample events 50% "
            "window 10s slide 5s duration 20s;"
        )
        for t in range(10):
            clock.set(float(t))
            host.log("bid", user_id=1, request_id=t)
        clock.set(21.0)
        results = scrub.finish(handle.query_id)
        assert all(w.estimates == {} for w in results.windows)


class TestHostAggregationValidation:
    def test_requires_single_source(self, registry):
        with pytest.raises(ScrubValidationError, match="single event type"):
            validate(
                "select COUNT(*) from bid, click aggregate on hosts;", registry
            )

    def test_requires_aggregates(self, registry):
        with pytest.raises(ScrubValidationError, match="aggregate functions"):
            validate("select bid.user_id from bid aggregate on hosts;", registry)

    def test_sketches_rejected(self, registry):
        with pytest.raises(ScrubValidationError, match="COUNT_DISTINCT"):
            validate(
                "select COUNT_DISTINCT(bid.user_id) from bid aggregate on hosts;",
                registry,
            )
        with pytest.raises(ScrubValidationError, match="TOP"):
            validate(
                "select TOP(5, bid.user_id) from bid aggregate on hosts;",
                registry,
            )

    def test_event_sampling_rejected(self, registry):
        with pytest.raises(ScrubValidationError, match="sampling"):
            validate(
                "select COUNT(*) from bid sample events 50% aggregate on hosts;",
                registry,
            )

    def test_sliding_rejected(self, registry):
        with pytest.raises(ScrubValidationError, match="[Ss]liding"):
            validate(
                "select COUNT(*) from bid window 10s slide 5s aggregate on hosts;",
                registry,
            )

    def test_host_sampling_allowed(self, registry):
        validate(
            "select COUNT(*) from bid sample hosts 50% aggregate on hosts;",
            registry,
        )

    def test_plan_attaches_aggregation_spec(self, registry):
        plan = plan_query(
            validate(
                "select bid.user_id, COUNT(*), SUM(bid.bid_price) from bid "
                "window 10s aggregate on hosts group by bid.user_id;",
                registry,
            ),
            "q1",
        )
        spec = plan.host_objects[0].aggregation
        assert spec is not None
        assert len(spec.aggregates) == 2
        assert plan.central_object.host_aggregated


class TestHostAggregationExecution:
    def _run(self, mode_clause, hosts=3, events_per_tick=2, ticks=25):
        clock = ManualClock()
        scrub = Scrub(clock=clock, grace_seconds=0.0)
        scrub.define_event("bid", [("user_id", "long"), ("bid_price", "double")])
        agents = [scrub.add_host(f"h{i}") for i in range(hosts)]
        handle = scrub.submit(
            f"select bid.user_id, COUNT(*), SUM(bid.bid_price), "
            f"AVG(bid.bid_price), MIN(bid.bid_price), MAX(bid.bid_price) "
            f"from bid window 10s duration {ticks + 5}s {mode_clause} "
            f"group by bid.user_id;"
        )
        rid = 0
        for t in range(ticks):
            clock.set(float(t))
            for agent in agents:
                for _ in range(events_per_tick):
                    rid += 1
                    agent.log(
                        "bid", user_id=rid % 5,
                        bid_price=0.25 * (rid % 9) + 0.5, request_id=rid,
                    )
            scrub.tick()
        clock.set(float(ticks + 6))
        results = scrub.finish(handle.query_id)
        folded = {
            (w.window_start, r[0]): tuple(
                round(v, 9) if isinstance(v, float) else v for v in r.values[1:]
            )
            for w in results.windows
            for r in w.rows
        }
        return scrub, agents, folded

    def test_results_identical_to_central_execution(self):
        _s1, _a1, central = self._run("")
        _s2, _a2, preagg = self._run("aggregate on hosts")
        assert central == preagg

    def test_hosts_ship_fewer_bytes(self):
        s1, agents1, _ = self._run("", events_per_tick=6)
        s2, agents2, _ = self._run("aggregate on hosts", events_per_tick=6)
        central_bytes = sum(a.stats.bytes_shipped for a in agents1)
        preagg_bytes = sum(a.stats.bytes_shipped for a in agents2)
        assert preagg_bytes < central_bytes / 2

    def test_no_events_shipped_in_preagg_mode(self):
        _s, agents, _ = self._run("aggregate on hosts")
        assert all(a.stats.events_shipped == 0 for a in agents)
        assert all(a.stats.events_preaggregated > 0 for a in agents)

    def test_host_memory_grows_with_group_cardinality(self):
        """The minimal-impact violation central execution avoids: group
        state lives on the host, linear in the number of groups."""
        clock = ManualClock()
        scrub = Scrub(clock=clock, grace_seconds=0.0)
        scrub.define_event("bid", [("user_id", "long")])
        agent = scrub.add_host("h0")
        scrub.submit(
            "select bid.user_id, COUNT(*) from bid window 100s duration 100s "
            "aggregate on hosts group by bid.user_id;"
        )
        for rid in range(1, 501):
            agent.log("bid", user_id=rid, request_id=rid)  # all distinct
        assert agent.preagg_state_count == 500
        # Normal mode keeps nothing beyond the bounded buffer.

    def test_partials_flushed_per_completed_window(self):
        from repro.core.agent import RecordingTransport, ScrubAgent

        registry = EventRegistry()
        registry.define("bid", [("user_id", "long")])
        transport = RecordingTransport()
        clock = ManualClock()
        agent = ScrubAgent("h0", registry, transport, clock=clock)
        plan = plan_query(
            validate(
                "select bid.user_id, COUNT(*) from bid window 10s "
                "aggregate on hosts group by bid.user_id;",
                registry,
            ),
            "q1",
        )
        agent.install(plan.host_objects[0])
        clock.set(5.0)
        agent.log("bid", user_id=1, request_id=1)
        agent.flush()
        # Window 0 is still current: nothing shipped yet.
        assert all(not b.partials for b in transport.batches)
        clock.set(12.0)
        agent.flush()
        shipped = [p for b in transport.batches for p in b.partials]
        assert len(shipped) == 1
        assert shipped[0].window == 0
        assert shipped[0].group_key == (1,)
        assert agent.preagg_state_count == 0


class TestExtensionInteractions:
    def test_sliding_window_join(self):
        """Sliding windows compose with the request-id equi-join."""
        clock = ManualClock()
        scrub = Scrub(clock=clock, grace_seconds=0.0)
        scrub.define_event("bid", [("user_id", "long")])
        scrub.define_event("click", [("user_id", "long")])
        host = scrub.add_host("h0")
        handle = scrub.submit(
            "select COUNT(*) from bid, click window 10s slide 5s duration 30s;"
        )
        clock.set(7.0)
        host.log("bid", user_id=1, request_id=1)
        host.log("click", user_id=1, request_id=1)
        clock.set(31.0)
        results = scrub.finish(handle.query_id)
        counts = {w.window_start: w.rows[0][0] for w in results.windows}
        # The pair at t=7 joins in both covering windows: [0,10) and [5,15).
        assert counts.get(0.0) == 1
        assert counts.get(5.0) == 1

    def test_host_aggregation_with_host_sampling_scales(self):
        """Host sampling's N/n factor applies to pre-aggregated counts."""
        clock = ManualClock()
        scrub = Scrub(clock=clock, grace_seconds=0.0)
        scrub.define_event("bid", [("user_id", "long")])
        hosts = [scrub.add_host(f"h{i}", services=["S"]) for i in range(8)]
        handle = scrub.submit(
            "select COUNT(*) from bid @[Service in S] sample hosts 50% "
            "window 10s duration 20s aggregate on hosts;"
        )
        targeted = set(handle.targeted_hosts)
        assert len(targeted) == 4
        rid = 0
        for host in hosts:
            for _ in range(10):
                rid += 1
                host.log("bid", user_id=1, request_id=rid)
        clock.set(21.0)
        results = scrub.finish(handle.query_id)
        # 4 targeted hosts saw 10 each; scale 8/4 doubles to the fleet total.
        assert results.windows[0].rows[0][0] == 80

    def test_sliding_results_exportable(self):
        clock = ManualClock()
        scrub = Scrub(clock=clock, grace_seconds=0.0)
        scrub.define_event("bid", [("user_id", "long")])
        host = scrub.add_host("h0")
        handle = scrub.submit(
            "select COUNT(*) from bid window 10s slide 5s duration 15s;"
        )
        host.log("bid", user_id=1, request_id=1, timestamp=7.0)
        clock.set(16.0)
        results = scrub.finish(handle.query_id)
        assert "window_start" in results.to_csv()
        assert '"windows"' in results.to_json()
