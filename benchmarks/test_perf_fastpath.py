"""E12 — host-agent fast-path microbenchmarks (anchors E7's cost model).

Measures the actual wall-clock cost of the ``log()`` call — the only
Scrub code on the application's request path — across the regimes that
matter for the minimal-impact claim:

* disabled probe (no query on the event type): the cost every
  instrumented call site pays all the time;
* active query, selection rejects;
* active query, match + projection + buffering;
* aggressive event sampling (matched but mostly not shipped);
* eight concurrent queries on one event type;
* overload (full buffer): the drop path must not be slower than the
  ship path.

The Python prototype's absolute numbers are larger than a native
agent's by a language-constant factor; the *ratios* between these
regimes are what the overhead experiment's cost model encodes.
"""

import math

import pytest

from repro.core.agent import RecordingTransport, ScrubAgent
from repro.core.agent.transport import EventBatch
from repro.core.events import EventRegistry
from repro.core.query import parse_query, plan_query, validate_query
from repro.reporting import ExperimentReport


class NullTransport:
    def send(self, batch: EventBatch) -> None:
        pass


def make_agent(buffer_capacity=1_000_000, flush_batch_size=10**9):
    registry = EventRegistry()
    registry.define("bid", [
        ("exchange_id", "long"), ("city", "string"), ("bid_price", "double"),
        ("user_id", "long"),
    ])
    registry.define("click", [("user_id", "long")])
    agent = ScrubAgent(
        "h1", registry, NullTransport(),
        buffer_capacity=buffer_capacity, flush_batch_size=flush_batch_size,
    )
    return registry, agent


def install(agent, registry, text, query_id="q1"):
    plan = plan_query(validate_query(parse_query(text), registry), query_id)
    for obj in plan.host_objects:
        agent.install(obj)


PAYLOAD = {"exchange_id": 5, "city": "San Jose", "bid_price": 1.25, "user_id": 7}


@pytest.mark.benchmark(group="fastpath")
def test_log_disabled_probe(benchmark):
    _registry, agent = make_agent()
    # A query exists, but on a different event type: the 'bid' call site
    # still takes the fast path.
    install(agent, agent.registry, "select COUNT(*) from click;")
    benchmark(lambda: agent.log("bid", PAYLOAD, request_id=1))
    assert agent.stats.events_examined == 0


@pytest.mark.benchmark(group="fastpath")
def test_log_no_query_at_all(benchmark):
    _registry, agent = make_agent()
    benchmark(lambda: agent.log("bid", PAYLOAD, request_id=1))


@pytest.mark.benchmark(group="fastpath")
def test_log_selection_rejects(benchmark):
    registry, agent = make_agent()
    install(agent, registry,
            "select COUNT(*) from bid where bid.exchange_id = 99;")
    benchmark(lambda: agent.log("bid", PAYLOAD, request_id=1))
    assert agent.stats.events_matched == 0


@pytest.mark.benchmark(group="fastpath")
def test_log_match_and_ship(benchmark):
    registry, agent = make_agent()
    install(agent, registry,
            "select bid.user_id, COUNT(*) from bid "
            "where bid.exchange_id = 5 group by bid.user_id;")
    counter = iter(range(10**9))
    benchmark(lambda: agent.log("bid", PAYLOAD, request_id=next(counter)))
    assert agent.stats.events_shipped > 0


@pytest.mark.benchmark(group="fastpath")
def test_log_match_sampled_out(benchmark):
    registry, agent = make_agent()
    install(agent, registry,
            "select COUNT(*) from bid sample events 1%;")
    counter = iter(range(10**9))
    benchmark(lambda: agent.log("bid", PAYLOAD, request_id=next(counter)))
    assert agent.stats.events_shipped < agent.stats.events_matched


@pytest.mark.benchmark(group="fastpath")
def test_log_eight_concurrent_queries(benchmark):
    registry, agent = make_agent()
    for i in range(8):
        install(
            agent, registry,
            f"select COUNT(*) from bid where bid.exchange_id = {i};",
            query_id=f"q{i}",
        )
    counter = iter(range(10**9))
    benchmark(lambda: agent.log("bid", PAYLOAD, request_id=next(counter)))


@pytest.mark.benchmark(group="fastpath")
def test_log_overload_drop_path(benchmark):
    registry, agent = make_agent(buffer_capacity=16)
    install(agent, registry, "select COUNT(*) from bid;")
    for i in range(16):
        agent.log("bid", PAYLOAD, request_id=i)  # fill the buffer
    counter = iter(range(100, 10**9))
    benchmark(lambda: agent.log("bid", PAYLOAD, request_id=next(counter)))
    assert agent.stats.events_dropped > 0


def _measure(setup_agent, n=20_000):
    import timeit

    agent = setup_agent()
    counter = iter(range(10**9))
    return timeit.timeit(
        lambda: agent.log("bid", PAYLOAD, request_id=next(counter)),
        number=n,
    ) / n


def _shipping():
    registry, agent = make_agent()
    install(agent, registry, "select COUNT(*) from bid;")
    return agent


def _sampled():
    registry, agent = make_agent()
    install(agent, registry, "select COUNT(*) from bid sample events 1%;")
    return agent


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP, queued 'Measure what the paper measured': a 1%-sampled "
    "call costs more than shipping one (two Python _splitmix64 rounds per "
    "call; 2 194 vs 1 807 ns in E12's report on a 2-core Intel Xeon VM, "
    "CPython 3.11.7).  Strict on purpose: the day the hash stops being the "
    "dearest regime this turns the run red, and the marker goes.",
)
def test_sampled_out_is_not_dearer_than_shipping():
    # In Python, the sampling hash should cost about as much as the
    # avoided buffer append, so the sampled-out call is merely
    # not-slower; the saving that matters (bytes shipped, flushes,
    # central work) shows in E7/E9.  A native agent's hash is tens of ns.
    assert _measure(_sampled) < _measure(_shipping) * 1.2


def test_fastpath_ratio_report(benchmark):
    """Summarises the regimes into the E12 artifact and checks the
    orderings the minimal-impact design relies on."""
    measure, shipping, sampled = _measure, _shipping, _sampled

    def disabled():
        _r, agent = make_agent()
        return agent

    def rejecting():
        registry, agent = make_agent()
        install(agent, registry,
                "select COUNT(*) from bid where bid.exchange_id = 99;")
        return agent

    def dropping():
        registry, agent = make_agent(buffer_capacity=4)
        install(agent, registry, "select COUNT(*) from bid;")
        for i in range(4):
            agent.log("bid", PAYLOAD, request_id=i)
        return agent

    def run_all():
        return {
            "disabled probe": measure(disabled),
            "selection rejects": measure(rejecting),
            "match + ship": measure(shipping),
            "match, sampled out": measure(sampled),
            "overload (drop)": measure(dropping),
        }

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = times["disabled probe"]
    report = ExperimentReport(
        "E12_fastpath", "log() wall-clock cost per regime (Python prototype)"
    )
    report.table(
        "per-call cost",
        ["regime", "ns/call", "x disabled-probe"],
        [[k, f"{v * 1e9:,.0f}", f"{v / base:,.1f}x"] for k, v in times.items()],
    )
    report.note(
        "the E7 cost model encodes these ratios at native-agent absolute "
        "scale (see repro.cluster.host.CostModel)."
    )
    report.emit()

    # The orderings the design depends on:
    assert times["disabled probe"] < times["selection rejects"]
    assert times["selection rejects"] < times["match + ship"]
    # ("match, sampled out" vs "match + ship" is asserted — as a strict
    # xfail until ROADMAP item 2 — by the test above.)
    # Dropping must not cost more than shipping (never block, never slow).
    assert times["overload (drop)"] < times["match + ship"] * 1.5
    # The disabled probe is cheap in absolute terms too (< 3 µs even in
    # Python; a native agent is tens of ns).
    assert base < 3e-6
