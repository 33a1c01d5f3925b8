"""Convenience façade: a complete in-process Scrub deployment.

:class:`Scrub` wires together an event registry, host agents, the
central engine and the query server so library users (and the examples)
can run real queries in a few lines::

    scrub = Scrub()
    scrub.define_event("bid", [("user_id", "long"), ("bid_price", "double")])
    host = scrub.add_host("host1", services=["BidServers"])

    handle = scrub.submit(
        "Select bid.user_id, COUNT(*) from bid "
        "@[Service in BidServers] window 10s group by bid.user_id;"
    )
    host.log("bid", user_id=7, bid_price=1.25, request_id=42)
    results = scrub.finish(handle.query_id)

Production deployments replace the pieces individually (a simulated
cluster does so in ``repro.cluster``); this façade is the smallest
faithful assembly of the architecture in paper Fig. 3.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Optional

from .agent.agent import ScrubAgent
from .agent.governor import ImpactBudget
from .agent.transport import DirectTransport
from .central.engine import CentralEngine
from .central.pool import ShardPool
from .central.results import ResultSet
from .events import EventRegistry, EventSchema
from .server import QueryHandle, ScrubQueryServer, StaticDirectory

__all__ = ["Scrub", "ManualClock"]


class ManualClock:
    """An explicitly-advanced clock for deterministic runs and tests."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot move the clock backwards")
        self._now += seconds
        return self._now

    def set(self, now: float) -> None:
        if now < self._now:
            raise ValueError("cannot move the clock backwards")
        self._now = now


class Scrub:
    """An in-process Scrub: registry + agents + ScrubCentral + server."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        grace_seconds: float = 2.0,
        buffer_capacity: int = 10_000,
        flush_batch_size: int = 500,
        workers: int = 0,
        impact_budget: Optional[ImpactBudget] = None,
    ) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else time.time
        self.registry = EventRegistry()
        # workers > 0 swaps in the process-parallel ShardPool (same
        # results, multi-core ingest — docs/SCALING.md); call close()
        # (or use the instance as a context manager) to reap workers.
        self.central: CentralEngine
        if workers > 0:
            self.central = ShardPool(workers=workers, grace_seconds=grace_seconds)
        else:
            self.central = CentralEngine(grace_seconds=grace_seconds)
        self.directory = StaticDirectory()
        self.server = ScrubQueryServer(
            self.registry, self.directory, self.central, clock=self.clock
        )
        self._buffer_capacity = buffer_capacity
        self._flush_batch_size = flush_batch_size
        # Per-query host impact budget handed to every agent this facade
        # creates; None disables the governor (docs/LIVE_MODE.md).
        self._impact_budget = impact_budget

    # -- setup -------------------------------------------------------------------

    def define_event(self, name: str, fields: Any, doc: str = "") -> EventSchema:
        """Declare an event type (paper Section 3.1)."""
        return self.registry.define(name, fields, doc=doc)

    def register_schema(self, schema: EventSchema) -> EventSchema:
        return self.registry.register(schema)

    def add_host(
        self,
        name: str,
        services: Iterable[str] = (),
        datacenter: str = "dc1",
    ) -> ScrubAgent:
        """Create a host agent wired directly into ScrubCentral."""
        agent = ScrubAgent(
            host=name,
            registry=self.registry,
            transport=DirectTransport(self.central.ingest_frame),
            clock=self.clock,
            buffer_capacity=self._buffer_capacity,
            flush_batch_size=self._flush_batch_size,
            impact_budget=self._impact_budget,
        )
        self.directory.add_host(name, agent, services=services, datacenter=datacenter)
        return agent

    # -- query lifecycle -----------------------------------------------------------

    def submit(self, query_text: str) -> QueryHandle:
        return self.server.submit(query_text)

    def poll(self, query_id: str) -> ResultSet:
        return self.server.poll(query_id)

    def tick(self, now: Optional[float] = None) -> None:
        self.server.tick(now)

    def finish(self, query_id: str) -> ResultSet:
        return self.server.finish(query_id)

    def cancel(self, query_id: str) -> None:
        self.server.cancel(query_id)

    def close(self) -> None:
        """Release engine resources (shard worker processes, if any)."""
        close = getattr(self.central, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Scrub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run_closed_world(self, query_text: str, drive: Callable[["Scrub"], None]) -> ResultSet:
        """Submit a query, run *drive* to generate traffic, then finish.

        A convenience for examples and tests where all traffic is
        produced by a callable rather than a live system.
        """
        handle = self.submit(query_text)
        drive(self)
        return self.finish(handle.query_id)
