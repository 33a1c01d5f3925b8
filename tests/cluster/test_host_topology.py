"""Tests for simulated hosts (CPU accounting) and topology/directory."""

import pytest

from repro.cluster.host import CostModel, SimHost
from repro.cluster.metrics import percentile, summarize_latencies, summarize_overhead
from repro.cluster.topology import ClusterDirectory, Topology
from repro.core.query.targets import target_matches
from repro.core.agent import RecordingTransport, ScrubAgent
from repro.core.events import EventRegistry
from repro.core.query import parse_query, plan_query, validate_query


@pytest.fixture
def registry():
    r = EventRegistry()
    r.define("bid", [("exchange_id", "long")])
    return r


def attach_agent(host, registry):
    agent = ScrubAgent(host.name, registry, RecordingTransport())
    host.attach_agent(agent)
    return agent


def install(agent, registry, text="select COUNT(*) from bid;"):
    plan = plan_query(validate_query(parse_query(text), registry), "q1")
    for obj in plan.host_objects:
        agent.install(obj)


class TestSimHostAccounting:
    def test_app_cpu_ledger(self):
        host = SimHost("h1", "dc1")
        host.charge_app(0.5)
        host.charge_app(0.25)
        assert host.app_cpu_seconds == 0.75
        with pytest.raises(ValueError):
            host.charge_app(-1.0)

    def test_scrub_cpu_zero_without_agent(self):
        assert SimHost("h1", "dc1").scrub_cpu_seconds == 0.0

    def test_scrub_cpu_grows_with_agent_work(self, registry):
        host = SimHost("h1", "dc1")
        agent = attach_agent(host, registry)
        install(agent, registry)
        before = host.scrub_cpu_seconds
        for i in range(100):
            agent.log("bid", exchange_id=1, request_id=i)
        assert host.scrub_cpu_seconds > before

    def test_overhead_ratio(self, registry):
        host = SimHost("h1", "dc1")
        agent = attach_agent(host, registry)
        install(agent, registry)
        host.charge_app(1.0)
        for i in range(1000):
            agent.log("bid", exchange_id=1, request_id=i)
        assert 0.0 < host.cpu_overhead() < 0.05

    def test_overhead_zero_without_app_work(self):
        assert SimHost("h1", "dc1").cpu_overhead() == 0.0

    def test_double_agent_attach_rejected(self, registry):
        host = SimHost("h1", "dc1")
        attach_agent(host, registry)
        with pytest.raises(RuntimeError):
            attach_agent(host, registry)

    def test_measure_request_latency(self, registry):
        host = SimHost("h1", "dc1")
        agent = attach_agent(host, registry)
        install(agent, registry)
        with host.measure_request() as m:
            host.charge_app(0.002)
            agent.log("bid", exchange_id=1, request_id=1)
        assert m.app_cost == pytest.approx(0.002)
        assert m.scrub_cost > 0
        assert m.latency == m.app_cost + m.scrub_cost
        assert host.latencies == [m.latency]

    def test_measure_request_without_scrub_activity(self, registry):
        host = SimHost("h1", "dc1")
        with host.measure_request() as m:
            host.charge_app(0.001)
        assert m.scrub_cost == 0.0

    def test_cost_model_monotone(self):
        from repro.core.agent.agent import AgentStats

        model = CostModel()
        light = AgentStats(events_logged=10)
        heavy = AgentStats(events_logged=10, events_examined=10,
                           events_checked=10, events_matched=10,
                           events_shipped=10, bytes_shipped=1000,
                           batches_flushed=1)
        assert model.agent_cost(heavy, 1) > model.agent_cost(light, 1)

    def test_cost_scales_with_per_query_checks(self):
        from repro.core.agent.agent import AgentStats

        model = CostModel()
        one = AgentStats(events_logged=10, events_examined=10, events_checked=10)
        four = AgentStats(events_logged=10, events_examined=10, events_checked=40)
        assert model.agent_cost(four) > model.agent_cost(one)


class TestTopology:
    def test_add_service_names_and_services(self):
        topo = Topology()
        hosts = topo.add_service("BidServers", "dc1", 3)
        assert [h.name for h in hosts] == [
            "bidservers-dc1-0", "bidservers-dc1-1", "bidservers-dc1-2",
        ]
        assert all(h.services == frozenset({"BidServers"}) for h in hosts)

    def test_add_service_twice_continues_numbering(self):
        topo = Topology()
        topo.add_service("BidServers", "dc1", 2)
        more = topo.add_service("BidServers", "dc1", 2)
        assert [h.name for h in more] == ["bidservers-dc1-2", "bidservers-dc1-3"]

    def test_duplicate_host_rejected(self):
        topo = Topology()
        topo.add_host("h1", "dc1")
        with pytest.raises(ValueError):
            topo.add_host("h1", "dc2")

    def test_lookups(self):
        topo = Topology()
        topo.add_service("BidServers", "dc1", 2)
        topo.add_service("AdServers", "dc2", 1)
        assert len(topo.hosts_in_service("bidservers")) == 2
        assert len(topo.hosts_in_datacenter("dc2")) == 1
        assert topo.datacenters() == ("dc1", "dc2")
        assert topo.services() == ("AdServers", "BidServers")
        assert len(topo) == 3
        with pytest.raises(KeyError):
            topo.host("nope")


class TestClusterDirectory:
    def test_resolves_only_hosts_with_agents(self, registry):
        topo = Topology()
        h1 = topo.add_host("h1", "dc1", ["BidServers"])
        topo.add_host("h2", "dc1", ["BidServers"])  # no agent
        attach_agent(h1, registry)
        directory = ClusterDirectory(topo)
        assert [d.name for d, _agent in directory.hosts()] == ["h1"]

    def test_resolves_target_expression(self, registry):
        topo = Topology()
        for name, dc, svc in [("b1", "dc1", "BidServers"), ("a1", "dc1", "AdServers"),
                              ("b2", "dc2", "BidServers")]:
            attach_agent(topo.add_host(name, dc, [svc]), registry)
        directory = ClusterDirectory(topo)
        target = parse_query(
            "select COUNT(*) from bid @[Service in BidServers and Datacenter = dc1];"
        ).target
        # The directory describes each host the way @[...] targeting reads it.
        assert [
            d.name for d, _a in directory.hosts() if target_matches(target, d)
        ] == ["b1"]


class TestMetrics:
    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile([42.0], 99) == 42.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_latency_summary(self):
        summary = summarize_latencies([0.001, 0.002, 0.003, 0.010])
        assert summary.count == 4
        assert summary.max == 0.010
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        assert "ms" in str(summary)

    def test_overhead_summary(self, registry):
        hosts = []
        for i in range(3):
            host = SimHost(f"h{i}", "dc1")
            host.charge_app(1.0)
            hosts.append(host)
        agent = attach_agent(hosts[0], registry)
        install(agent, registry)
        for i in range(10_000):
            agent.log("bid", exchange_id=1, request_id=i)
        summary = summarize_overhead(hosts)
        assert summary.hosts == 3
        assert summary.max_overhead > summary.mean_overhead > 0
        assert 0 < summary.aggregate_overhead < summary.max_overhead
