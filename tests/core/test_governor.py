"""Host impact governor: budgets, the three-stage response, and the
end-to-end quarantine story.

The acceptance bar: a synthetic runaway query is downgraded → shed →
quarantined within its budget intervals, while co-installed queries'
results stay byte-identical to a run without the runaway; the
quarantine reason surfaces in STATS and in ``WindowCoverage``.
"""

import pytest

from repro.core.agent import ImpactBudget, QueryGovernor, RecordingTransport, ScrubAgent
from repro.core.agent.governor import (
    STAGE_DOWNGRADED,
    STAGE_HEALTHY,
    STAGE_QUARANTINED,
    STAGE_SHEDDING,
)
from repro.core.api import ManualClock, Scrub
from repro.core.events import EventRegistry
from repro.core.query import parse_query, plan_query, validate_query


def host_objects(text, registry, query_id="q1"):
    plan = plan_query(validate_query(parse_query(text), registry), query_id)
    return plan.host_objects


@pytest.fixture
def registry():
    r = EventRegistry()
    r.define("pv", [("url", "string"), ("latency_ms", "double")])
    r.define("flood", [("n", "long")])
    return r


# A budget where only bytes can realistically breach (wall ceiling huge),
# so tests drive the stage machine deterministically via flush volume.
BYTES_BUDGET = ImpactBudget(
    interval_seconds=5.0,
    max_wall_seconds=60.0,
    max_bytes=512,
    downgrade_factor=0.5,
    min_rate_factor=0.6,
    shed_intervals=1,
)


class TestStageMachine:
    def test_escalates_downgrade_shed_quarantine(self):
        gov = QueryGovernor(BYTES_BUDGET, "q1", started_at=0.0)
        assert gov.stage == STAGE_HEALTHY

        gov.charge(0.0, 10_000)
        assert gov.roll(5.0) is None
        assert gov.stage == STAGE_DOWNGRADED
        assert gov.rate_factor == 0.5

        gov.charge(0.0, 10_000)
        assert gov.roll(10.0) is None
        # 0.5 * 0.5 = 0.25 < min_rate_factor 0.6: downgrading gives way.
        assert gov.stage == STAGE_SHEDDING
        assert gov.shedding

        gov.charge(0.0, 10_000)
        reason = gov.roll(15.0)
        assert gov.stage == STAGE_QUARANTINED
        assert reason is not None and reason.startswith("impact-budget-exceeded:")
        assert "stage=shedding" in reason and "bytes=10000/512" in reason
        # The transition reports exactly once.
        gov.charge(0.0, 10_000)
        assert gov.roll(20.0) is None

    def test_clean_intervals_walk_back_down(self):
        gov = QueryGovernor(BYTES_BUDGET, "q1", started_at=0.0)
        gov.charge(0.0, 10_000)
        gov.roll(5.0)
        gov.charge(0.0, 10_000)
        gov.roll(10.0)
        assert gov.stage == STAGE_SHEDDING

        assert gov.roll(15.0) is None  # clean interval
        assert gov.stage == STAGE_DOWNGRADED
        assert gov.rate_factor == pytest.approx(0.6)  # restored to the floor
        assert gov.roll(20.0) is None
        assert gov.roll(25.0) is None
        assert gov.stage == STAGE_HEALTHY
        assert gov.rate_factor == 1.0

    def test_buffer_drop_is_a_breach(self):
        gov = QueryGovernor(BYTES_BUDGET, "q1", started_at=0.0)
        gov.note_drop()
        gov.roll(5.0)
        assert gov.stage == STAGE_DOWNGRADED

    def test_wall_budget_is_a_breach(self):
        budget = ImpactBudget(interval_seconds=1.0, max_wall_seconds=0.001)
        gov = QueryGovernor(budget, "q1", started_at=0.0)
        gov.charge(0.5)
        gov.roll(1.0)
        assert gov.stage == STAGE_DOWNGRADED

    def test_short_interval_does_not_roll(self):
        gov = QueryGovernor(BYTES_BUDGET, "q1", started_at=0.0)
        gov.charge(0.0, 10_000)
        assert gov.roll(1.0) is None
        assert gov.stage == STAGE_HEALTHY  # interval not yet elapsed

    def test_thinning_is_deterministic_and_roughly_proportional(self):
        gov = QueryGovernor(BYTES_BUDGET, "q1", started_at=0.0)
        assert all(gov.keep(rid) for rid in range(100))  # healthy: keep all
        gov.charge(0.0, 10_000)
        gov.roll(5.0)
        kept = [rid for rid in range(2000) if gov.keep(rid)]
        assert kept == [rid for rid in range(2000) if gov.keep(rid)]
        assert 800 <= len(kept) <= 1200  # ~0.5 of 2000

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ImpactBudget(interval_seconds=0)
        with pytest.raises(ValueError):
            ImpactBudget(downgrade_factor=1.5)
        with pytest.raises(ValueError):
            ImpactBudget(shed_intervals=0)


class TestAgentGovernor:
    def _agent(self, registry, clock):
        transport = RecordingTransport()
        agent = ScrubAgent(
            "h1", registry, transport, clock=clock,
            flush_batch_size=100_000, impact_budget=BYTES_BUDGET,
        )
        return agent, transport

    def _drive_to_stage(self, registry, stage):
        """Flood the runaway query, flushing every budget interval, until
        its governor reaches *stage*; returns (agent, transport, clock)."""
        clock = ManualClock(start=1.0)
        agent, transport = self._agent(registry, clock)
        (obj,) = host_objects("select flood.n from flood window 60s;", registry)
        agent.install(obj)
        for _step in range(10):
            for i in range(40):
                agent.log("flood", n=i, request_id=i)
            agent.flush()
            clock.advance(BYTES_BUDGET.interval_seconds)
            agent.log("flood", n=0, request_id=0)  # roll happens in log too
            state = agent.governor_state().get("q1") or {"stage": STAGE_QUARANTINED}
            if state["stage"] == stage or "q1" in agent.quarantined:
                break
        return agent, transport, clock

    def test_shedding_counts_ride_batches(self, registry):
        agent, transport, clock = self._drive_to_stage(registry, STAGE_SHEDDING)
        assert agent.governor_state()["q1"]["stage"] == STAGE_SHEDDING
        before = sum(b.shed for b in transport.batches)
        for i in range(25):
            agent.log("flood", n=i, request_id=100 + i)
        stats = agent.query_stats("q1")
        assert stats.shed == agent.stats.events_shed > 0
        agent.flush()
        shed_on_wire = sum(b.shed for b in transport.batches) - before
        assert shed_on_wire == stats.shed
        # Every matched event is shipped, dropped, shed, or was thinned by
        # the downgrade stage on the way here (thinning is plain sampling,
        # so it reduces shipped without its own counter).
        assert stats.seen >= stats.shipped + stats.dropped + stats.shed
        # While shedding, nothing ships: the last 25 events all shed.
        assert stats.shed >= 25

    def test_runaway_is_quarantined_with_structured_reason(self, registry):
        agent, transport, clock = self._drive_to_stage(registry, STAGE_QUARANTINED)
        assert "q1" in agent.quarantined
        reason = agent.quarantined["q1"]
        assert reason.startswith("impact-budget-exceeded:")
        assert agent.stats.queries_quarantined == 1
        # The query is gone from the agent: further events take the fast path.
        agent.flush()
        assert "q1" not in agent.active_query_ids
        # The reason rode exactly one batch.
        notices = [b for b in transport.batches if b.quarantined]
        assert len(notices) == 1
        assert notices[0].quarantined == reason

    def test_healthy_query_unaffected_by_governor(self, registry):
        """With a governor installed but never breached, accounting and
        shipped events are identical to an ungoverned agent."""
        def run(budget):
            clock = ManualClock(start=1.0)
            transport = RecordingTransport()
            agent = ScrubAgent(
                "h1", registry, transport, clock=clock,
                flush_batch_size=100_000, impact_budget=budget,
            )
            (obj,) = host_objects(
                "select pv.url, pv.latency_ms from pv window 60s;", registry
            )
            agent.install(obj)
            for i in range(50):
                agent.log("pv", url=f"/{i % 5}", latency_ms=i * 0.25,
                          request_id=i)
            agent.flush()
            return [
                (b.host, b.query_id, b.dropped, b.shed, b.quarantined,
                 [e.payload for e in b.events])
                for b in transport.batches
            ]

        generous = ImpactBudget(interval_seconds=1.0, max_wall_seconds=60.0,
                                max_bytes=1 << 30)
        assert run(generous) == run(None)


def _co_signature(results):
    return results.to_json()


def _run_scenario(include_runaway: bool):
    """One in-process deployment: a healthy COUNT query, optionally a
    runaway alongside; returns (co-query results, scrub stats surface)."""
    clock = ManualClock(start=1.0)
    # 1024 bytes/interval sits between the co-query's ~715-byte flushes
    # (healthy forever) and the runaway's ~4 KB ones (breaches even after
    # one 0.5 downgrade, so it must walk the whole staircase).
    budget = ImpactBudget(
        interval_seconds=5.0, max_wall_seconds=60.0, max_bytes=1024,
        downgrade_factor=0.5, min_rate_factor=0.6, shed_intervals=1,
    )
    with Scrub(clock=clock, grace_seconds=1.0, impact_budget=budget) as scrub:
        scrub.define_event("pv", [("url", "string"), ("latency_ms", "double")])
        scrub.define_event("flood", [("n", "long")])
        host = scrub.add_host("h1")
        co = scrub.submit("select COUNT(*) from pv window 30s;")
        runaway = None
        if include_runaway:
            runaway = scrub.submit("select flood.n from flood window 30s;")
        for step in range(8):
            now = clock.now
            for i in range(20):
                host.log("pv", url="/a", latency_ms=i * 0.25,
                         request_id=step * 100 + i)
            if include_runaway:
                for i in range(80):
                    host.log("flood", n=i, request_id=step * 100 + i)
            host.flush()
            scrub.central.advance(now)
            clock.advance(5.0)
        engine_stats = scrub.central.stats
        quarantines = dict(scrub.central.quarantines())
        runaway_results = (
            scrub.finish(runaway.query_id) if runaway is not None else None
        )
        co_results = scrub.finish(co.query_id)
        agent_quarantined = dict(host.quarantined)
    return co_results, runaway_results, engine_stats, quarantines, agent_quarantined


@pytest.mark.integration
def test_runaway_quarantine_end_to_end_and_co_query_byte_identical():
    co_with, runaway_results, stats, quarantines, agent_q = _run_scenario(True)
    co_without, _, _, _, _ = _run_scenario(False)

    # The runaway was quarantined on the host, with the reason recorded.
    assert any(q.startswith("impact-budget-exceeded:") for q in agent_q.values())
    # ... reported to ScrubCentral (the STATS surfaces).
    assert stats.quarantines_reported == 1
    assert stats.events_shed > 0
    (hosts,) = [quarantines[q] for q in quarantines]
    assert hosts["h1"].startswith("impact-budget-exceeded:")

    # ... and named in the runaway's WindowCoverage.
    covs = [w.coverage for w in runaway_results.windows if w.coverage]
    assert covs, "quarantine must surface in coverage"
    assert any(c.quarantined.get("h1", "").startswith("impact-budget") for c in covs)
    shed_named = [c for c in covs if c.shed.get("h1", 0) > 0]
    assert shed_named, "shed counts must be named per host in coverage"
    assert runaway_results.total_host_shed == sum(
        c.shed.get("h1", 0) for c in covs
    )
    assert runaway_results.coverage_summary()["hosts_quarantined"]["h1"].startswith(
        "impact-budget-exceeded:"
    )

    # Co-installed query: byte-identical to the run without the runaway.
    assert _co_signature(co_with) == _co_signature(co_without)


def test_quarantined_host_marked_missing_in_targeted_coverage(registry):
    """A targeted host whose governor quarantined the query is reported as
    ``missing: quarantined`` in later windows, not as silent/disconnected."""
    from repro.core.agent.transport import EventBatch
    from repro.core.central.engine import CentralEngine
    from repro.core.events import Event

    plan = plan_query(
        validate_query(parse_query("select COUNT(*) from pv window 10s;"), registry),
        "q1",
    )
    engine = CentralEngine(grace_seconds=0.0)
    engine.register(
        plan.central_object, planned_hosts=2, targeted_hosts=2,
        targeted_names=("h1", "h2"),
    )
    # Window 0: both hosts report; h1's batch carries its quarantine notice.
    engine.ingest(EventBatch(
        host="h1", query_id="q1",
        events=[Event("pv", {"url": "/a"}, 1, 1.0, "h1")],
        quarantined="impact-budget-exceeded: test",
    ))
    engine.ingest(EventBatch(
        host="h2", query_id="q1",
        events=[Event("pv", {"url": "/b"}, 2, 1.0, "h2")],
    ))
    # Window 1: only h2 can still report — h1 uninstalled the query.
    engine.ingest(EventBatch(
        host="h2", query_id="q1",
        events=[Event("pv", {"url": "/b"}, 3, 11.0, "h2")],
    ))
    results = engine.finish("q1")
    w0, w1 = results.windows
    assert w0.coverage.missing == {}
    assert w1.coverage.missing == {"h1": "quarantined"}
    assert w1.coverage.quarantined["h1"].startswith("impact-budget")
    assert w1.coverage.degraded


def test_scrubd_stats_surface_quarantines_and_pool_health():
    """The daemon's STATS reply names host quarantines and pool health."""
    from repro.core.agent.transport import EventBatch
    from repro.live.server import ScrubDaemon

    daemon = ScrubDaemon(port=0, workers=2)
    try:
        registry = EventRegistry()
        registry.define("pv", [("url", "string")])
        plan = plan_query(
            validate_query(parse_query("select COUNT(*) from pv window 60s;"),
                           registry),
            "q1",
        )
        daemon.engine.register(plan.central_object)
        daemon.engine.ingest(
            EventBatch(
                host="h1", query_id="q1", events=[],
                shed=7, quarantined="impact-budget-exceeded: test",
            )
        )
        stats = daemon.plane.stats(0.0)
        assert stats["engine"]["events_shed"] == 7
        assert stats["engine"]["quarantines_reported"] == 1
        assert stats["quarantines"]["q1"]["h1"].startswith("impact-budget")
        assert stats["pool"]["workers"] == 2
        assert stats["pool"]["alive"] == 2
        assert stats["pool"]["respawns"] == 0
    finally:
        daemon.engine.close()
