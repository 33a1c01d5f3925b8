"""SimCluster: the assembled simulated deployment.

One object owns the event loop, the network, the topology, ScrubCentral
(placed in its own small datacenter, mirroring the paper's "dedicated
centralized facility"), and the query server.  Applications — the ad
platform, tests, examples — add services, log events through the hosts'
agents, and drive virtual time.

Agent flushes and window closes are periodic loop tasks, so event flow
host → central pays simulated network latency like the real system.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.agent.agent import ScrubAgent
from ..core.agent.governor import ImpactBudget
from ..core.agent.transport import EventBatch
from ..core.central.engine import CentralEngine
from ..core.central.pool import ShardPool
from ..core.central.results import ResultSet, WindowResult
from ..core.events import EventRegistry
from ..core.server import QueryHandle, ScrubQueryServer
from .host import DEFAULT_COST_MODEL, CostModel, SimHost
from .metrics import OverheadSummary, summarize_overhead
from .simclock import EventLoop
from .simnet import LinkSpec, SimNetwork
from .topology import ClusterDirectory, Topology

__all__ = ["SimCluster", "SimTransport", "CENTRAL_DATACENTER", "run_to_completion"]

#: Name of the datacenter hosting the ScrubCentral facility.
CENTRAL_DATACENTER = "scrub-central"


class SimTransport:
    """Per-host transport: ships each batch's frame over the simulated
    network to ScrubCentral, which ingests it on delivery."""

    def __init__(
        self,
        network: SimNetwork,
        source_datacenter: str,
        central: CentralEngine,
        central_datacenter: str = CENTRAL_DATACENTER,
    ) -> None:
        self._network = network
        self._source_dc = source_datacenter
        self._central = central
        self._central_dc = central_datacenter
        self.batches_sent = 0
        self.bytes_sent = 0

    def send(self, batch: EventBatch) -> None:
        frame = batch.frame
        self.batches_sent += 1
        self.bytes_sent += len(frame)
        self._network.deliver(
            self._source_dc, self._central_dc, len(frame), self._central.ingest_frame, frame
        )


class SimCluster:
    """A complete simulated Scrub deployment."""

    def __init__(
        self,
        registry: EventRegistry,
        flush_interval: float = 1.0,
        grace_seconds: Optional[float] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        buffer_capacity: int = 10_000,
        flush_batch_size: int = 2_000,
        intra_dc: Optional[LinkSpec] = None,
        inter_dc: Optional[LinkSpec] = None,
        central_workers: int = 0,
        impact_budget: Optional[ImpactBudget] = None,
    ) -> None:
        self.registry = registry
        self.loop = EventLoop()
        net_kwargs = {}
        if intra_dc is not None:
            net_kwargs["intra_dc"] = intra_dc
        if inter_dc is not None:
            net_kwargs["inter_dc"] = inter_dc
        self.network = SimNetwork(self.loop, **net_kwargs)
        self.topology = Topology(cost_model)
        # Grace must cover flush interval + WAN latency, or windows close
        # before their last batches arrive.
        if grace_seconds is None:
            grace_seconds = 2.0 * flush_interval + 0.5
        # central_workers > 0 places the central facility on a process-
        # parallel ShardPool (docs/SCALING.md); call close() to reap it.
        self.central: CentralEngine
        if central_workers > 0:
            self.central = ShardPool(
                workers=central_workers, grace_seconds=grace_seconds
            )
        else:
            self.central = CentralEngine(grace_seconds=grace_seconds)
        self.directory = ClusterDirectory(self.topology)
        self.server = ScrubQueryServer(
            self.registry, self.directory, self.central, clock=self.loop.clock
        )
        # Expired queries are reaped only after in-flight flushes could land.
        self.server.plane.drain_margin = 2.0 * flush_interval + 0.5
        self._flush_interval = flush_interval
        self._buffer_capacity = buffer_capacity
        self._flush_batch_size = flush_batch_size
        self._impact_budget = impact_budget
        self._ticking = False

    # -- topology -----------------------------------------------------------------

    def add_service(
        self, service: str, datacenter: str, count: int
    ) -> list[SimHost]:
        """Add *count* hosts for *service*, each with a live Scrub agent."""
        hosts = self.topology.add_service(service, datacenter, count)
        for host in hosts:
            self._attach_agent(host)
        return hosts

    def add_host(
        self, name: str, datacenter: str, services: Iterable[str] = ()
    ) -> SimHost:
        host = self.topology.add_host(name, datacenter, services)
        self._attach_agent(host)
        return host

    def _attach_agent(self, host: SimHost) -> None:
        transport = SimTransport(self.network, host.datacenter, self.central)
        agent = ScrubAgent(
            host=host.name,
            registry=self.registry,
            transport=transport,
            clock=self.loop.clock,
            buffer_capacity=self._buffer_capacity,
            flush_batch_size=self._flush_batch_size,
            impact_budget=self._impact_budget,
        )
        host.attach_agent(agent)

    def host(self, name: str) -> SimHost:
        return self.topology.host(name)

    def hosts(self) -> list[SimHost]:
        return self.topology.hosts()

    # -- queries --------------------------------------------------------------------

    def submit(self, query_text: str) -> QueryHandle:
        self._ensure_ticking()
        return self.server.submit(query_text)

    def poll(self, query_id: str) -> ResultSet:
        return self.server.poll(query_id)

    def finish(self, query_id: str) -> ResultSet:
        """Finish a query cleanly: let in-flight batches land first."""
        # One extra flush interval plus worst-case WAN transfer drains the pipe.
        self.loop.run_for(self._flush_interval + 0.5)
        return self.server.finish(query_id)

    def _ensure_ticking(self) -> None:
        if self._ticking:
            return
        self.loop.call_every(self._flush_interval, self.server.tick)
        self._ticking = True

    # -- time -----------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.now

    def run_until(self, deadline: float) -> None:
        self.loop.run_until(deadline)

    def run_for(self, duration: float) -> None:
        self.loop.run_for(duration)

    # -- metrics -----------------------------------------------------------------------

    def overhead_summary(self, service: Optional[str] = None) -> OverheadSummary:
        hosts = (
            self.topology.hosts_in_service(service)
            if service is not None
            else self.topology.hosts()
        )
        return summarize_overhead(hosts)

    def scrub_bytes_shipped(self) -> int:
        """Total bytes host agents shipped toward ScrubCentral."""
        total = 0
        for host in self.topology:
            agent = host.agent
            if agent is not None:
                total += agent.stats.bytes_shipped
        return total

    def on_window(self, callback) -> None:
        """Install a window-result callback on the central engine."""
        self.central._on_window = callback  # noqa: SLF001 - deliberate wiring

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Release central engine resources (shard workers, if any)."""
        close = getattr(self.central, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "SimCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_to_completion(cluster: SimCluster, handle: QueryHandle) -> ResultSet:
    """Run the simulation until the query's span ends, then collect.

    Advances virtual time past the query deadline plus a drain margin
    (in-flight flushes and WAN deliveries), lets the periodic tick reap
    the query, and returns the stored result set.
    """
    margin = cluster.server.plane.drain_margin + cluster._flush_interval + 0.5  # noqa: SLF001
    cluster.run_until(handle.expires_at + margin)
    return cluster.server.finish(handle.query_id)
