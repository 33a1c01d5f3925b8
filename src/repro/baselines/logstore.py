"""The log-everything baseline: collector and accounting.

The paper's main argument against logging (Sections 1, 8.1): queries
are not known a priori, so *all* data must be logged, shipped over
cross-continental links to a central location, and retained — and the
analysis then runs as an offline batch job while the problem keeps
costing money.

:class:`LoggingBaseline` reproduces that regime on the simulated
cluster *using Scrub's own machinery as the shipper*: a catch-all host
query object (no selection, full projection, no sampling) is installed
on every agent for every event type, and its batches are diverted to a
:class:`LogStore` instead of the central engine.  Bytes shipped per
link then come from the same accounting as the Scrub runs, making the
comparison apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster.runtime import SimCluster
from ..core.agent.transport import EventBatch, _read_full_batch_header, decode_full_batch
from ..core.events import Event
from ..core.events.encoding import encode_json
from ..core.query.planner import HostQueryObject

__all__ = ["LogStore", "LoggingBaseline", "LOG_ALL_QUERY_ID"]

LOG_ALL_QUERY_ID = "__log_all__"


@dataclass
class LogStoreStats:
    events: int = 0
    json_bytes: int = 0  # what a production log file would hold
    batches: int = 0


class LogStore:
    """Central log sink: retains events (optionally) and counts bytes."""

    def __init__(self, retain_events: bool = True) -> None:
        self.retain_events = retain_events
        self.stats = LogStoreStats()
        self._events: list[Event] = []

    def ingest(self, batch: EventBatch) -> None:
        self.stats.batches += 1
        for event in batch.events:
            self.stats.events += 1
            self.stats.json_bytes += len(encode_json(event))
            if self.retain_events:
                self._events.append(event)

    @property
    def events(self) -> list[Event]:
        if not self.retain_events:
            raise RuntimeError("LogStore was created with retain_events=False")
        return self._events

    def events_of_type(self, event_type: str) -> list[Event]:
        return [e for e in self.events if e.event_type == event_type]


class LoggingBaseline:
    """Installs the log-everything regime on a simulated cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        store: LogStore | None = None,
        flush_interval: float = 1.0,
    ) -> None:
        self.cluster = cluster
        self.store = store if store is not None else LogStore()
        self._installed = False
        self._flush_interval = flush_interval
        # Divert LOG_ALL frames before they reach the query engine.
        self._orig_ingest_frame = cluster.central.ingest_frame
        cluster.central.ingest_frame = self._dispatch  # type: ignore[method-assign]

    def _dispatch(self, frame: bytes) -> None:
        if _read_full_batch_header(memoryview(frame))[1] == LOG_ALL_QUERY_ID:
            self.store.ingest(decode_full_batch(frame))
        else:
            self._orig_ingest_frame(frame)

    def install(self) -> None:
        """Arm the catch-all collection on every host, every event type."""
        if self._installed:
            raise RuntimeError("logging baseline already installed")
        self._installed = True
        registry = self.cluster.registry
        for host in self.cluster.hosts():
            agent = host.agent
            if agent is None:
                continue
            for schema in registry:
                agent.install(
                    HostQueryObject(
                        query_id=LOG_ALL_QUERY_ID,
                        event_type=schema.name,
                        predicate=None,
                        projection=schema.field_names,  # everything
                        event_sampling_rate=1.0,
                        # Coarse bins: the tap needs no per-window estimator
                        # metadata, just not an unbounded counter dict.
                        window_seconds=3600.0,
                    ),
                    activates_at=-math.inf,
                    expires_at=math.inf,
                )
        # The query server only flushes agents with *queries* running;
        # the tap needs its own flush cadence.
        self.cluster.loop.call_every(self._flush_interval, self._flush_all)

    def _flush_all(self) -> None:
        now = self.cluster.loop.now
        for host in self.cluster.hosts():
            if host.agent is not None:
                host.agent.flush(now)

    def uninstall(self) -> None:
        for host in self.cluster.hosts():
            if host.agent is not None:
                host.agent.uninstall(LOG_ALL_QUERY_ID)
        self._installed = False
