"""The host fast path: the two armed routes, the per-schema routing
index, and the armed-cost counters.

The contract under test is *behavioural equality*.  One deterministic
stream goes through three agents —

* **entry**: the generated whole-path ``_entry`` an ungoverned group gets;
* **walk**: ``_log_routed`` over the generated mask, forced by an
  :class:`ImpactBudget` too large to ever breach;
* **oracle**: the same walk fed by :class:`OracleAgent`'s mask — the
  closure compiler and ``EventSampler.keep``, no generated code —

and return values, every stat counter and the bytes put on the wire
must be indistinguishable.  Speed is the benchmark's concern; this file
pins correctness.
"""

import math
from dataclasses import replace
from functools import partial

import pytest

from repro.core.agent import RecordingTransport, ScrubAgent
from repro.core.agent.buffer import BoundedBuffer
from repro.core.agent.governor import ImpactBudget
from repro.core.agent.transport import encode_full_batch
from repro.core.central import CentralEngine
from repro.core.events import Event, EventRegistry
from repro.core.query import parse_query, plan_query, validate_query
from repro.core.query.ast import BoolOp, Comparison, FieldRef, Literal
from repro.core.query.codegen import ArmedQuery, CodegenUnsupported, build_entry
from repro.core.query.errors import ScrubError

from .closure_oracle import compile_predicate
from .test_compile_properties import MAX_EXPR_DEPTH, _deepest


@pytest.fixture
def registry():
    r = EventRegistry()
    r.define("bid", [
        ("exchange_id", "long"), ("city", "string"), ("bid_price", "double"),
        ("user_id", "long"),
    ])
    r.define("click", [("user_id", "long")])
    return r


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _host_objects(text, registry, query_id="q1"):
    plan = plan_query(validate_query(parse_query(text), registry), query_id)
    return plan.host_objects


class OracleAgent(ScrubAgent):
    """The reference: every group takes the governed walk, and the mask
    it walks comes from the closure compiler over a real ``Event`` plus
    ``EventSampler.keep`` — what generated selection + sampling must
    equal, decided with no generated code."""

    def _build_group(self, event_type, entries, calls):
        group, _ = super()._build_group(event_type, entries, calls)
        predicates = [
            compile_predicate(iq.spec.predicate, lambda _t, f: lambda ev: ev.get(f))
            for iq in entries
        ]
        host, stats = self.host, self.stats

        def process(data, rid, now):
            stats.events_checked += len(entries)
            event = Event(event_type, data, rid, now, host)
            mask = 0
            for i, (iq, predicate) in enumerate(zip(entries, predicates)):
                if iq.activates_at <= now < iq.expires_at and predicate(event):
                    mask |= 1 << (2 * i)
                    if iq.sample_always or iq.sampler.keep(rid):
                        mask |= 2 << (2 * i)
            return mask

        group.process = process
        return group, partial(self._log_routed, group, event_type)


#: Governs every query — so its group is walked — without ever thinning,
#: shedding or quarantining: the first interval never ends, so nothing
#: (not even a buffer drop) is ever judged a breach.
UNBREACHABLE = ImpactBudget(interval_seconds=1e12, max_wall_seconds=1e9, max_bytes=10**18)

ROUTES = ("entry", "walk", "oracle")


def _agent(route, registry, **kwargs):
    if route == "walk":
        kwargs.setdefault("impact_budget", UNBREACHABLE)
    cls = OracleAgent if route == "oracle" else ScrubAgent
    transport = RecordingTransport()
    return cls("h1", registry, transport, clock=FakeClock(), **kwargs), transport


def _trio(registry, **kwargs):
    """Identically configured agents, one per route."""
    return [_agent(route, registry, **kwargs) for route in ROUTES]


def _armed_via(agent, event_type="bid"):
    """Which route ``log()`` takes for *event_type*."""
    entry = agent._armed[event_type]
    if isinstance(entry, partial):
        assert entry.func == agent._log_routed
        return "walk"
    assert entry.__name__ == "_entry"
    return "entry"


QUERIES = [
    "select COUNT(*) from bid;",
    "select COUNT(*) from bid where bid.exchange_id = 5;",
    "select COUNT(*) from bid where bid.exchange_id = 99;",
    "select bid.city, COUNT(*) from bid where bid.bid_price > 1.0 "
    "group by bid.city;",
    "select COUNT(*) from bid sample events 25%;",
    "select COUNT(*) from bid where bid.city LIKE 'San%';",
    "select COUNT(*) from bid where bid.exchange_id IN (1, 5, 9);",
    "select COUNT(*) from bid where bid.user_id BETWEEN 5 AND 9 "
    "and bid.city != 'Lisbon';",
]

EVENTS = [
    {"exchange_id": 5, "city": "San Jose", "bid_price": 1.25, "user_id": 7},
    {"exchange_id": 99, "city": "Porto", "bid_price": 0.5, "user_id": 4},
    {"exchange_id": 1, "city": "San Mateo", "bid_price": 2.0},
    {"city": "Lisbon", "user_id": 9},
    {},
]


def _run_workload(agent, transport, clock_step=0.3):
    returns = []
    for rid in range(60):
        payload = EVENTS[rid % len(EVENTS)]
        returns.append(agent.log("bid", payload, request_id=rid))
        returns.append(agent.log("click", {"user_id": rid}, request_id=rid))
        agent.clock.now += clock_step
    agent.flush()
    return returns, [encode_full_batch(b) for b in transport.batches]


def _assert_all_equal(outcomes):
    first = outcomes[0]
    for route, outcome in zip(ROUTES[1:], outcomes[1:]):
        assert outcome == first, f"{route} diverges from {ROUTES[0]}"


class TestCodegenClosureEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_single_query_byte_identical(self, registry, query):
        outcomes = []
        for agent, transport in _trio(registry):
            for obj in _host_objects(query, registry):
                agent.install(obj)
            outcomes.append((*_run_workload(agent, transport), agent.stats))
        _assert_all_equal(outcomes)

    def test_all_queries_armed_together(self, registry):
        """Eight queries on one type: one generated entry must equal
        eight walked mask-bit pairs, generated or oracle."""
        outcomes = []
        for agent, transport in _trio(registry):
            for i, query in enumerate(QUERIES):
                for obj in _host_objects(query, registry, query_id=f"q{i}"):
                    agent.install(obj)
            ret, wire = _run_workload(agent, transport)
            outcomes.append((ret, sorted(wire), agent.stats))
        _assert_all_equal(outcomes)

    def test_the_three_routes_are_the_three_routes(self, registry):
        """The trio is what it says: no budget arms the generated entry,
        a budget or a host aggregation arms the walk."""
        via = []
        for agent, _ in _trio(registry):
            agent.install(*_host_objects(QUERIES[0], registry))
            via.append(_armed_via(agent))
        assert via == ["entry", "walk", "walk"]
        agent, _ = _agent("entry", registry)
        agent.install(*_host_objects(
            "select bid.city, COUNT(*) from bid group by bid.city aggregate on hosts;",
            registry, "qa",
        ))
        assert _armed_via(agent) == "walk"
        # A plain query sharing the event type is walked with it...
        agent.install(*_host_objects(QUERIES[0], registry, "qb"))
        assert _armed_via(agent) == "walk"
        # ...and gets the generated entry back once it is alone again.
        agent.uninstall("qa")
        assert _armed_via(agent) == "entry"

    def test_host_aggregation_shares_a_type_with_plain_shipping(self, registry):
        """A walked group holding an aggregating query and a plain one
        ships the plain query's events exactly as its own entry would."""
        plain = "select COUNT(*) from bid where bid.exchange_id IN (1, 5) sample events 50%;"
        wires = []
        for with_aggregation in (False, True):
            agent, transport = _agent("entry", registry)
            agent.install(*_host_objects(plain, registry, "qp"))
            if with_aggregation:
                agent.install(*_host_objects(
                    "select bid.city, SUM(bid.bid_price) from bid group by bid.city "
                    "aggregate on hosts;", registry, "qa",
                ))
            _run_workload(agent, transport)
            wires.append(sorted(
                encode_full_batch(b) for b in transport.batches if b.query_id == "qp"
            ))
        assert wires[0] == wires[1] and wires[0]

    def test_span_gated_query(self, registry):
        outcomes = []
        for agent, transport in _trio(registry):
            (obj,) = _host_objects("select COUNT(*) from bid;", registry)
            agent.install(obj, activates_at=5.0, expires_at=10.0)
            outcomes.append(_run_workload(agent, transport))
        _assert_all_equal(outcomes)
        # Matched only while 5.0 <= now < 10.0.
        ret = outcomes[0][0]
        assert any(r == 1 for r in ret) and any(r == 0 for r in ret)

    def test_governed_overload_escalates_identically(self, registry):
        """Byte-budget breaches (deterministic, unlike wall time) must
        walk the same downgrade → shed → quarantine ladder whether the
        mask is generated or the oracle's, with identical shed/drop
        conservation on the wire."""
        budget = ImpactBudget(
            interval_seconds=1.0, max_bytes=1, min_rate_factor=0.6,
            shed_intervals=2,
        )
        results, quarantined = [], []
        for route in ("walk", "oracle"):
            agent, transport = _agent(
                route, registry, impact_budget=budget, flush_batch_size=5
            )
            (obj,) = _host_objects("select COUNT(*) from bid;", registry)
            agent.install(obj)
            results.append(_run_workload(agent, transport, clock_step=0.11))
            quarantined.append(dict(agent.quarantined))
        assert results[0] == results[1]
        assert quarantined[0] == quarantined[1]
        assert "q1" in quarantined[0]

    def test_timed_every_call_equals_untimed(self, registry):
        """timing_sample_every=1 measures every call; the measurements
        must be observation-only — identical wire output either way, on
        either route."""
        for route in ("entry", "walk"):
            wires = []
            for every in (1, 1_000_000):
                agent, transport = _agent(route, registry, timing_sample_every=every)
                (obj,) = _host_objects("select COUNT(*) from bid;", registry)
                agent.install(obj)
                _, wire = _run_workload(agent, transport)
                wires.append(wire)
            assert wires[0] == wires[1]


# -- the benchmark's armed shapes ------------------------------------------------

#: E12's six fast-path regimes (benchmarks/test_perf_fastpath.py): (name,
#: buffer capacity, queries, events logged before the stream starts).
BENCH_SCENARIOS = [
    ("disabled_probe", 1_000_000, ["select COUNT(*) from click;"], 0),
    ("selection_rejects", 1_000_000,
     ["select COUNT(*) from bid where bid.exchange_id = 99;"], 0),
    ("match_and_ship", 1_000_000, ["select COUNT(*) from bid;"], 0),
    ("match_sampled_out", 1_000_000, ["select COUNT(*) from bid sample events 1%;"], 0),
    ("eight_queries", 1_000_000,
     [f"select COUNT(*) from bid where bid.exchange_id = {i};" for i in range(8)], 0),
    ("overload_drop", 4, ["select COUNT(*) from bid;"], 4),
]

#: Matches, rejects, sampling decisions, missing fields and the drop path.
_DIFF_PAYLOADS = [
    {"exchange_id": 5, "city": "San Jose", "bid_price": 1.25, "user_id": 7},
    {"exchange_id": 99, "city": "Porto", "bid_price": 0.5, "user_id": 2},
    {"exchange_id": 3, "city": "San Mateo", "bid_price": 2.0},
    {"city": "Lisbon"},
    {},
]


@pytest.mark.parametrize(
    "capacity, queries, prefill", [s[1:] for s in BENCH_SCENARIOS],
    ids=[s[0] for s in BENCH_SCENARIOS],
)
def test_bench_scenarios_agree_on_every_route(registry, capacity, queries, prefill):
    """Every route agrees on each regime E12 times, replayed with pinned
    timestamps."""
    outcomes = []
    for route in ROUTES:
        agent, transport = _agent(
            route, registry, buffer_capacity=capacity, flush_batch_size=10**9
        )
        for i, query in enumerate(queries):
            agent.install(*_host_objects(query, registry, f"q{i}"))
        for rid in range(prefill):
            agent.log("bid", _DIFF_PAYLOADS[0], request_id=rid, timestamp=0.0)
        returns = [
            agent.log(
                "bid", _DIFF_PAYLOADS[rid % len(_DIFF_PAYLOADS)],
                request_id=rid, timestamp=rid * 1e-3,
            )
            for rid in range(500)
        ]
        agent.flush()
        wire = sorted(encode_full_batch(b) for b in transport.batches)
        outcomes.append((returns, wire, agent.stats))
    _assert_all_equal(outcomes)


# -- wide and unsupported predicates ---------------------------------------------


def _with_predicate(registry, predicate, query_id="q1"):
    (obj,) = _host_objects("select COUNT(*) from bid;", registry, query_id)
    return replace(obj, predicate=predicate)


@pytest.mark.parametrize("op", ["AND", "OR"])
def test_wide_predicate_arms_the_same_entry_as_a_narrow_one(registry, op):
    """A 200-term chain used to overflow the emitter's indentation and
    silently drop its query onto the closure route for the whole span."""
    term = Comparison("<" if op == "AND" else ">=", FieldRef("bid", "user_id"), Literal(8))
    wide = BoolOp(op, tuple(
        Comparison("!=" if op == "AND" else "=", FieldRef("bid", "exchange_id"), Literal(1000 + i))
        for i in range(199)
    ) + (term,))
    outcomes = []
    for predicate in (term, wide):
        agent, transport = _agent("entry", registry)
        agent.install(_with_predicate(registry, predicate))
        assert _armed_via(agent) == "entry"
        outcomes.append(_run_workload(agent, transport))
    assert outcomes[0] == outcomes[1]
    assert any(outcomes[0][0])


def test_deepest_predicate_compiles_inside_the_span_gated_entry(registry):
    """Where generated indentation peaks: a full-depth AND/OR alternation
    under the entry's try/if/span-gate levels — still inside CPython's
    100, and still equal to the oracle."""
    exchange = FieldRef("bid", "exchange_id")
    predicate = _deepest(
        lambda e, k: BoolOp("AND" if k % 2 else "OR", (Comparison(">", exchange, Literal(k)), e)),
        exchange,
        MAX_EXPR_DEPTH,
    )
    predicate = Comparison("=", predicate, Literal(True))  # one past what parses: headroom
    outcomes = []
    for agent, transport in _trio(registry):
        agent.install(_with_predicate(registry, predicate), activates_at=1.0, expires_at=15.0)
        outcomes.append((*_run_workload(agent, transport), agent.stats))
    _assert_all_equal(outcomes)
    assert any(outcomes[0][0])


class TestUnsupportedExpressionRefusesInstall:
    """An operator only a hand-built AST can carry: the query is refused
    with a structured error and nothing of it is armed — it does not get
    a slower route."""

    BAD = Comparison("~", FieldRef("bid", "user_id"), Literal(1))

    @pytest.mark.parametrize("route", ["entry", "walk"])
    def test_agent_install(self, registry, route):
        agent, _ = _agent(route, registry)
        agent.install(*_host_objects(QUERIES[1], registry, "good"))
        armed = agent._armed["bid"]
        with pytest.raises(CodegenUnsupported, match="comparison operator '~'") as info:
            agent.install(_with_predicate(registry, self.BAD, "bad"))
        assert isinstance(info.value, ScrubError)
        assert agent.active_query_ids == ("good",)
        assert agent._armed["bid"] is armed
        assert "bad" not in agent.governor_state()
        assert agent.log("bid", EVENTS[0], request_id=1) == 1

    def test_central_register(self, registry):
        plan = plan_query(validate_query(parse_query(QUERIES[3]), registry), "q1")
        engine = CentralEngine()
        with pytest.raises(CodegenUnsupported, match="comparison operator '~'"):
            engine.register(replace(plan.central_object, residual_predicate=self.BAD))
        having = Comparison("~", FieldRef("bid", "city"), Literal("x"))
        with pytest.raises(CodegenUnsupported, match="comparison operator '~'"):
            engine.register(replace(plan.central_object, having=having))
        # A leaf the post-aggregation shape cannot read is the same refusal.
        with pytest.raises(CodegenUnsupported, match="neither a group key nor an aggregate"):
            engine.register(replace(plan.central_object, having=self.BAD))
        assert not engine.is_registered("q1")


class TestGoneNotIgnored:
    def test_use_codegen_is_not_an_option(self, registry):
        with pytest.raises(TypeError, match="use_codegen"):
            ScrubAgent("h1", registry, RecordingTransport(), use_codegen=False)

    def test_the_closure_compiler_left_src(self):
        with pytest.raises(ImportError):
            import repro.core.query.compile  # noqa: F401

    def test_central_exports_no_field_getters(self):
        import repro.core.central as central
        import repro.core.central.groupby as groupby

        for name in ("make_field_getter", "make_row_getter", "compile_cached"):
            assert not hasattr(central, name) and not hasattr(groupby, name)


class TestRoutingIndex:
    def test_log_on_unarmed_type_never_examined(self, registry):
        for agent, _ in _trio(registry):
            (obj,) = _host_objects("select COUNT(*) from bid;", registry)
            agent.install(obj)
            agent.log("click", {"user_id": 1}, request_id=1)
            assert agent.stats.events_examined == 0
            assert agent.stats.events_checked == 0

    def test_uninstall_removes_route(self, registry):
        agent = ScrubAgent("h1", registry, RecordingTransport(), clock=FakeClock())
        (obj,) = _host_objects("select COUNT(*) from bid;", registry)
        agent.install(obj)
        assert "bid" in agent._routes
        agent.uninstall("q1")
        assert "bid" not in agent._routes
        assert agent.log("bid", EVENTS[0], request_id=1) == 0

    def test_expiry_removes_route_on_flush(self, registry):
        agent = ScrubAgent("h1", registry, RecordingTransport(), clock=FakeClock())
        (obj,) = _host_objects("select COUNT(*) from bid;", registry)
        agent.install(obj, expires_at=1.0)
        agent.clock.now = 2.0
        agent.flush()
        assert "bid" not in agent._routes

    def test_quarantine_rebuilds_routes(self, registry):
        budget = ImpactBudget(
            interval_seconds=1.0, max_bytes=1, min_rate_factor=0.6,
            shed_intervals=1,
        )
        agent = ScrubAgent(
            "h1", registry, RecordingTransport(), clock=FakeClock(),
            impact_budget=budget, flush_batch_size=1,
        )
        (obj,) = _host_objects("select COUNT(*) from bid;", registry)
        agent.install(obj)
        for rid in range(40):
            agent.log("bid", EVENTS[0], request_id=rid)
            agent.clock.now += 0.3
        agent.flush()
        assert "q1" in agent.quarantined
        assert "bid" not in agent._routes

    def test_two_types_route_independently(self, registry):
        agent = ScrubAgent("h1", registry, RecordingTransport(), clock=FakeClock())
        (obj_bid,) = _host_objects("select COUNT(*) from bid;", registry, "qb")
        (obj_click,) = _host_objects("select COUNT(*) from click;", registry, "qc")
        agent.install(obj_bid)
        agent.install(obj_click)
        assert agent.log("bid", EVENTS[0], request_id=1) == 1
        assert agent.log("click", {"user_id": 2}, request_id=2) == 1
        assert agent.stats.events_checked == 2  # one entry per routed call
        agent.uninstall("qb")
        assert set(agent._routes) == {"click"}


class TestArmedCostCounters:
    def test_routed_and_skipped(self, registry):
        agent = ScrubAgent(
            "h1", registry, RecordingTransport(), clock=FakeClock(),
            timing_sample_every=1,
        )
        (obj,) = _host_objects("select COUNT(*) from bid;", registry)
        agent.install(obj)
        for rid in range(3):
            agent.log("bid", EVENTS[0], request_id=rid)
        for rid in range(2):
            agent.log("click", {"user_id": rid}, request_id=rid)
        costs = agent.query_costs()
        assert costs["q1"]["routed"] == 3
        assert costs["q1"]["skipped"] == 2
        assert costs["q1"]["ewma_ns"] > 0.0

    def test_install_baseline_excludes_prior_traffic(self, registry):
        agent = ScrubAgent("h1", registry, RecordingTransport(), clock=FakeClock())
        for rid in range(5):
            agent.log("bid", EVENTS[0], request_id=rid)
        (obj,) = _host_objects("select COUNT(*) from bid;", registry)
        agent.install(obj)
        agent.log("bid", EVENTS[0], request_id=9)
        costs = agent.query_costs()
        assert costs["q1"]["routed"] == 1
        assert costs["q1"]["skipped"] == 0

    def test_counters_survive_rebuild(self, registry):
        agent = ScrubAgent("h1", registry, RecordingTransport(), clock=FakeClock())
        (obj,) = _host_objects("select COUNT(*) from bid;", registry, "qa")
        agent.install(obj)
        agent.log("bid", EVENTS[0], request_id=1)
        # Installing a second query rebuilds the bid route group.
        (obj2,) = _host_objects(
            "select COUNT(*) from bid where bid.exchange_id = 5;", registry, "qb"
        )
        agent.install(obj2)
        agent.log("bid", EVENTS[0], request_id=2)
        costs = agent.query_costs()
        assert costs["qa"]["routed"] == 2
        assert costs["qb"]["routed"] == 1


class TestAutoFlush:
    @pytest.mark.parametrize("walked", [True, False])
    def test_flush_due_at_batch_size(self, registry, walked):
        agent, transport = _agent(
            "walk" if walked else "entry", registry, flush_batch_size=3
        )
        (obj,) = _host_objects("select COUNT(*) from bid;", registry)
        agent.install(obj)
        for rid in range(3):
            agent.log("bid", EVENTS[0], request_id=rid)
        # The third buffered event crossed the threshold: flushed without
        # an explicit flush() call.
        assert transport.batches_sent == 1
        assert len(transport.events) == 3
        assert agent.buffered == 0


class TestGeneratedProcessorDirect:
    """The generated fused body driven standalone (through build_entry,
    with stand-ins for the agent's objects), for shapes the SQL layer
    cannot currently produce (dotted payload paths)."""

    class _IQ:
        def __init__(self):
            self.seen_by_window = {}
            self.pending_dropped = 0

    class _QS:
        def __init__(self):
            self.seen = 0
            self.shipped = 0
            self.dropped = 0

    class _ST:
        def __init__(self):
            self.events_examined = 0
            self.events_checked = 0
            self.events_matched = 0
            self.events_shipped = 0
            self.events_dropped = 0

    class _Group:
        calls = 0

    def _entry(self, predicate, buffer, *, project=None, flush_batch_size=10**9):
        iq, qs, st = self._IQ(), self._QS(), self._ST()
        armed = ArmedQuery(
            predicate=predicate, sampler_seed=0, sampler_threshold=0,
            sample_always=True, activates_at=-math.inf, expires_at=math.inf,
            iq=iq, qstats=qs, window_seconds=1.0, project=project,
        )
        flushes = []
        entry = build_entry(
            (armed,), event_type="evt", host="h1", stats=st, buffer=buffer,
            flush_batch_size=flush_batch_size, group=self._Group(),
            clock=lambda: 0.0, lock_acquire=lambda: None, lock_release=lambda: None,
            flush=flushes.append, timing_every=1 << 30, ewma_alpha=0.2,
        )
        return (lambda data, rid, now: entry(data, rid, now, {})), iq, qs, st, flushes

    def test_dotted_field_path(self):
        predicate = Comparison("=", FieldRef(None, "meta.os"), Literal("linux"))
        process, iq, qs, _, _ = self._entry(predicate, BoundedBuffer(8))
        assert process({"meta": {"os": "linux"}}, 1, 0.0) == 1
        assert process({"meta": {"os": "mac"}}, 2, 0.0) == 0
        assert process({}, 3, 0.0) == 0
        # A flat key spelled with a dot wins over the nested path.
        assert process({"meta.os": "linux", "meta": {}}, 4, 0.0) == 1
        assert qs.seen == 2 and qs.shipped == 2

    def test_flush_due_bit_and_count_mask(self):
        buffer = BoundedBuffer(8)
        process, _, _, st, flushes = self._entry(None, buffer, flush_batch_size=2)
        assert process({}, 1, 0.0) == 1
        assert flushes == []
        # The second append reaches the batch size: the entry flushes on
        # its way out, and the flag bit reaches neither the caller...
        assert process({}, 2, 7.5) == 1
        assert flushes == [7.5]
        # ...nor the counter.
        assert st.events_matched == 2

    def test_drop_accounting_when_full(self):
        buffer = BoundedBuffer(1)
        process, iq, qs, st, _ = self._entry(None, buffer)
        process({}, 1, 0.0)
        process({}, 2, 0.0)
        assert qs.shipped == 1 and qs.dropped == 1
        assert iq.pending_dropped == 1
        assert buffer.dropped == 1 and buffer.offered == 2
        assert st.events_shipped == 1 and st.events_dropped == 1

    def test_projection_subset(self):
        buffer = BoundedBuffer(8)
        process, _, _, _, _ = self._entry(None, buffer, project=("a", "b"))
        process({"a": 1, "c": 3}, 1, 0.5)
        ((iq, payload, rid, ts),) = buffer.drain()
        assert payload == {"a": 1}
        assert (rid, ts) == (1, 0.5)
