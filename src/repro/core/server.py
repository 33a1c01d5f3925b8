"""The in-process Scrub query server: a shell over the control plane.

What happens to a query (paper Section 4, Fig. 3) — parse, validate,
plan, place the host objects on the targeted hosts and only those,
register the central object, collect, uninstall at span end — is decided
by :class:`~repro.core.control.plane.ControlPlane`, the same object
``scrubd`` runs.  :class:`ScrubQueryServer` performs the effects it
returns where the hosts are in-process :class:`ScrubAgent` objects: each
host in the :class:`HostDirectory` is a control-plane session, and an
``INSTALL`` / ``UNINSTALL`` is applied by the handler every kind of host
shares (``repro.core.control.hostside``).  Nothing here can be lost in
transit, so there is no lease, no journal and no reconciling ``SYNC``;
the reap margin is ``server.plane.drain_margin``.

The in-process :class:`StaticDirectory` suffices for a single process,
and ``repro.cluster`` provides a simulated-cluster implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol

from .agent.agent import ScrubAgent
from .central.engine import CentralEngine
from .central.results import ResultSet
from .control import ControlPlane, MsgType, Push, SamplingController, Session
from .control.hostside import apply_control
from .events import EventRegistry
from .query.planner import QueryPlan
from .query.targets import HostDescription

__all__ = ["ScrubQueryServer", "HostDirectory", "StaticDirectory", "QueryHandle"]

_APPLIED = (MsgType.INSTALL, MsgType.UNINSTALL)


class HostDirectory(Protocol):
    """The hosts a query server can place query objects on."""

    def hosts(self) -> Iterable[tuple[HostDescription, ScrubAgent]]:
        """Every host that currently has an agent."""
        ...  # pragma: no cover - protocol


class StaticDirectory:
    """A directory over in-process agents, for tests and single-host use."""

    def __init__(self) -> None:
        self._hosts: dict[str, tuple[HostDescription, ScrubAgent]] = {}

    def add_host(
        self, name: str, agent: ScrubAgent, services: Iterable[str] = (), datacenter: str = "dc1"
    ) -> None:
        if name in self._hosts:
            raise ValueError(f"host {name!r} already in directory")
        self._hosts[name] = (HostDescription(name, services, datacenter), agent)

    def hosts(self) -> list[tuple[HostDescription, ScrubAgent]]:
        return list(self._hosts.values())


@dataclass
class QueryHandle:
    """What ``submit`` returns: identity, plan, and host placement."""

    query_id: str
    plan: QueryPlan
    planned_hosts: tuple[str, ...]   # matched the target (N)
    targeted_hosts: tuple[str, ...]  # chosen after host sampling (n)
    activates_at: float
    expires_at: float
    finished: bool = field(default=False)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.plan.central_object.column_names


class ScrubQueryServer:
    """Front-end: parse, validate, plan, dispatch, collect."""

    def __init__(
        self, registry: EventRegistry, directory: HostDirectory, central: CentralEngine,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.registry = registry
        self.directory = directory
        self.central = central
        self.clock = clock
        self.plane = ControlPlane(registry, central)
        self._handles: dict[str, QueryHandle] = {}

    # -- the shell -------------------------------------------------------------

    def _register_hosts(self, now: float) -> None:
        """Every directory host gets a control-plane session (one added
        mid-query late-joins like any agent)."""
        for description, agent in self.directory.hosts():
            if self.plane.fleet.conn(description.name) is None:
                if self.plane.impact_budget is None:
                    # Controllers clamp against the agents' governor budget.
                    self.plane.impact_budget = agent.impact_budget
                services = sorted(description.services)
                hello = {"host": description.name, "services": services,
                         "datacenter": description.datacenter}
                self._perform(self.plane.hello(Session(agent), hello, now))

    def _perform(self, effects: list) -> None:
        for push in effects:
            if isinstance(push, Push) and push.msg_type in _APPLIED:
                apply_control(push.session.peer, self.registry, push.msg_type, push.message)

    def _sessions(self, query_id: Optional[str] = None) -> list[Session]:
        """Attached sessions of the hosts running *query_id* (or any query)."""
        running = self.plane.running
        lives = running.values() if query_id is None else [running[query_id]]
        names = dict.fromkeys(name for live in lives for name in live.targeted)
        return [s for name in names if (s := self.plane.fleet.conn(name)) is not None]

    def _settle(self) -> None:
        for query_id in self._handles.keys() - self.plane.running.keys():
            self._handles.pop(query_id).finished = True

    # -- submission -------------------------------------------------------------

    def submit(self, query_text: str) -> QueryHandle:
        """Parse, validate, plan and dispatch a query; returns its handle."""
        now = self.clock()
        self._register_hosts(now)
        *effects, reply = self.plane.submit(query_text, now)
        placed, query_id = reply.message, reply.message["query_id"]
        try:
            self._perform(effects)
        except Exception:
            # No half-installed query lingers on the fleet.
            self._perform(self.plane.finish(query_id, now, drain=False))
            del self.plane.results[query_id]
            raise
        handle = QueryHandle(
            query_id=query_id,
            plan=self.plane.running[query_id].plan,
            planned_hosts=tuple(placed["planned_hosts"]),
            targeted_hosts=tuple(placed["targeted_hosts"]),
            activates_at=placed["activates_at"],
            expires_at=placed["expires_at"],
        )
        self._handles[query_id] = handle
        return handle

    def controller(self, query_id: str) -> Optional[SamplingController]:
        """The rate controller of a running TARGET CI query, else None."""
        live = self.plane.running.get(query_id)
        return live.controller if live is not None else None

    # -- collection ------------------------------------------------------------

    def poll(self, query_id: str) -> ResultSet:
        """Windows closed so far; the complete set once the span ended."""
        return self.plane.poll(query_id)

    def tick(self, now: Optional[float] = None) -> None:
        """Periodic maintenance: flush agents of running queries, close
        due windows, retune, reap.  Drive it from your scheduler."""
        if now is None:
            now = self.clock()
        for session in self._sessions():
            session.peer.flush(now)
        # No heartbeats in-process: read the cost counters of just the
        # hosts this tick's controllers will consult.
        for session in self.plane.cost_watch():
            session.query_costs = session.peer.query_costs()
        self._perform(self.plane.tick(now))
        self._settle()

    def finish(self, query_id: str) -> ResultSet:
        """End a query now: uninstall from hosts (flushing), close all its
        windows, return the full result set.  Idempotent once finished."""
        return self._end(query_id, drain=True)

    def cancel(self, query_id: str) -> None:
        """Abort a query, discarding any un-emitted windows."""
        self._end(query_id, drain=False)

    def _end(self, query_id: str, drain: bool) -> ResultSet:
        if drain and query_id in self.plane.running:
            # Synchronous data path: uninstalling first lands every host's
            # final flush before the windows close (over sockets the
            # client drains, then sends FINISH).
            for session in self._sessions(query_id):
                session.peer.uninstall(query_id)
        *effects, reply = self.plane.finish(query_id, self.clock(), drain=drain)
        self._perform(effects)
        self._settle()
        return reply.message

    @property
    def running_query_ids(self) -> tuple[str, ...]:
        return tuple(self.plane.running)
