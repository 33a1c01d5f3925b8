"""A third shell for the control plane: the deterministic simulator.

``ScrubDaemon`` performs the plane's effects over sockets and
``ScrubQueryServer`` applies them to in-process agents; :class:`ControlSim`
performs them on ``repro.cluster``'s virtual-time :class:`EventLoop` —
the real :class:`ControlPlane`, real :class:`ScrubAgent` hosts, the real
:class:`CentralEngine` and an in-memory journal (a list), with no process,
thread or socket.  Time moves only when a test moves it, so a lease
expires because ``advance(2.1)`` was called, not because a sleep was long
enough.

Faults are injected where the effects are performed — ``live.chaos``'s
``FaultPlan`` vocabulary without the proxy: a :class:`Faults` plan drops,
duplicates or delays (and so reorders) pushed frames; a host can be
partitioned (its socket dead, silently or noticed) or killed and
restarted; and :meth:`ControlSim.crash_after` kills the plane at an effect
boundary, after which :meth:`ControlSim.recover` rebuilds it — and a fresh
engine, like a restarted ``scrubd`` — from the journal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster.simclock import EventLoop
from repro.core.agent.agent import ScrubAgent
from repro.core.agent.transport import EventBatch
from repro.core.central.engine import CentralEngine
from repro.core.control import ControlPlane, Evict, Journal, MsgType, Push, Reply, Session
from repro.core.control.hostside import apply_control
from repro.core.control.journal import JournalState
from repro.core.events import EventRegistry
from repro.core.query.errors import ScrubError

PV_FIELDS = [("url", "string"), ("latency_ms", "double")]

QUERY = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 10s group by pv.url duration 600s;"
)

TARGET_QUERY = (
    "select COUNT(*) from pv @[Service in Frontends] "
    "window 5s duration 600s target ci 10%;"
)


@dataclass(frozen=True)
class Faults:
    """Per-frame fault probabilities for pushes to agents."""

    drop: float = 0.0
    dup: float = 0.0
    delay: tuple[float, float] = (0.0, 0.0)


def replay(records) -> JournalState:
    """What a restarted scrubd reads back from its journal."""
    state = JournalState()
    for record in records:
        state.apply(record)
    return state


class PlaneCrashed(Exception):
    """The simulated plane died at an effect boundary (``crash_after``)."""


class SimHost:
    """One application host: a real agent, its control session with the
    plane, and its data link to the engine (the agent's transport)."""

    def __init__(self, sim: "ControlSim", name: str, services=("Frontends",)) -> None:
        self.sim = sim
        self.name = name
        self.services = list(services)
        self.registry = EventRegistry()
        self.registry.define("pv", PV_FIELDS)
        self.agent = self._new_agent()
        self.session: Optional[Session] = None
        #: False while partitioned: pushes to it fail, its batches are
        #: lost (and carried, like ``SocketTransport``), it sends nothing.
        self.link_up = True
        #: Every control frame delivered to this host, in order.
        self.frames: list[tuple[MsgType, dict]] = []
        self.installs_applied = 0
        self.last_error: Optional[dict] = None
        self._carry: dict[str, EventBatch] = {}
        #: query_id -> window -> [seen, shipped]; and query_id -> lost.
        self.windows: dict[str, dict[int, list[int]]] = {}
        self.lost: dict[str, int] = {}

    def _new_agent(self) -> ScrubAgent:
        return ScrubAgent(
            self.name, self.registry, self, clock=self.sim.loop.clock,
            flush_batch_size=10**9,
        )

    # -- control channel -----------------------------------------------------------

    def connect(self, epoch: Optional[int] = None, schemas=None) -> bool:
        """Dial and register.  True when the plane accepted the hello."""
        if not self.link_up:
            return False
        session = Session(self)
        hello = {
            "host": self.name,
            "epoch": self.sim.next_epoch() if epoch is None else epoch,
            "services": self.services,
            "datacenter": "dc1",
            "schemas": schemas if schemas is not None else [
                {"name": "pv", "fields": [list(f) for f in PV_FIELDS], "doc": ""}
            ],
        }
        self.session = session
        self.sim.perform(self.sim.plane.hello(session, hello, self.sim.now), requester=self)
        if self.sim.plane.fleet.conn(self.name) is not session:
            if self.session is session:
                self.session = None
            return False
        return True

    def heartbeat(self) -> None:
        if self.session is not None and self.link_up:
            self.sim.perform(
                self.sim.plane.agent_message(
                    self.session,
                    MsgType.HEARTBEAT,
                    {"host": self.name, "query_costs": self.agent.query_costs()},
                    self.sim.now,
                )
            )

    def hang_up(self) -> None:
        """This end's socket closes and the plane sees the EOF."""
        session, self.session = self.session, None
        if session is not None:
            self.sim.perform(self.sim.plane.disconnected(session, self.sim.now))

    def restart(self) -> None:
        """The application process dies and comes back: installed queries
        and buffered events are gone, the next hello has a newer epoch."""
        self.hang_up()
        self.agent = self._new_agent()
        self.installs_applied = 0
        self._carry.clear()

    def deliver(self, session: Session, msg_type: MsgType, message: dict) -> None:
        """A frame pushed on *session* arrives (if that connection still
        exists by now)."""
        if session is not self.session or not self.link_up:
            return
        self.frames.append((msg_type, message))
        if msg_type == MsgType.ERROR:
            self.last_error = message
        elif msg_type in (MsgType.INSTALL, MsgType.UNINSTALL, MsgType.SYNC):
            try:
                if apply_control(self.agent, self.registry, msg_type, message):
                    self.installs_applied += 1
            except (ScrubError, KeyError, ValueError):
                pass  # a host that cannot plan a query contributes nothing

    def received(self, msg_type: MsgType) -> list[dict]:
        return [message for kind, message in self.frames if kind == msg_type]

    # -- data channel (the agent's Transport) ------------------------------------------

    def log(self, latency_ms: float = 1.0, timestamp: Optional[float] = None) -> int:
        self.sim.request_ids += 1
        return self.agent.log(
            "pv", url=self.name, latency_ms=latency_ms,
            request_id=self.sim.request_ids,
            timestamp=self.sim.now if timestamp is None else timestamp,
        )

    def send(self, batch: EventBatch) -> None:
        per_window = self.windows.setdefault(batch.query_id, {})
        for (_etype, window), count in batch.seen_counts.items():
            per_window.setdefault(window, [0, 0])[0] += count
        window_seconds = self.sim.window_seconds.get(batch.query_id, 1.0)
        for event in batch.events:
            per_window.setdefault(int(event.timestamp // window_seconds), [0, 0])[1] += 1
        self.lost[batch.query_id] = self.lost.get(batch.query_id, 0) + batch.dropped + batch.shed
        carried = self._carry.pop(batch.query_id, None)
        if carried is not None:
            # What SocketTransport carries past an outage: how much was
            # lost and how much was seen, never the events themselves.
            batch.dropped += carried.dropped
            batch.shed += carried.shed
            for key, count in carried.seen_counts.items():
                batch.seen_counts[key] = batch.seen_counts.get(key, 0) + count
        if self.link_up:
            self.sim.loop.call_later(self.sim.data_delay(), self.sim.ingest, batch)
        else:
            batch.dropped += len(batch.events)
            batch.events = []
            self._carry[batch.query_id] = batch


class ControlSim:
    """The control plane, a fleet and an engine on one virtual clock."""

    def __init__(
        self,
        seed: int = 0,
        lease_seconds: float = 2.0,
        grace_seconds: float = 1.0,
        drain_margin: float = 1.0,
        faults: Faults = Faults(),
        impact_budget=None,
    ) -> None:
        self.rng = random.Random(seed)
        self.loop = EventLoop(start=1000.0)
        self.faults = faults
        self._grace = grace_seconds
        self._plane_options = dict(
            lease_seconds=lease_seconds,
            drain_margin=drain_margin,
            impact_budget=impact_budget,
        )
        #: The durable medium: what a real scrubd would have fsync'd.
        self.journal: list[dict] = []
        self.log: list[str] = []
        #: What was actually done, in order — ("journal", record),
        #: ("push", Push), ("evict", Evict) — for order invariants.
        self.trace: list[tuple[str, Any]] = []
        self.hosts: dict[str, SimHost] = {}
        self.window_seconds: dict[str, float] = {}
        self.request_ids = 0
        self._epoch = 0
        self._crash_countdown: Optional[int] = None
        self.crashes = 0
        self._boot(recovering=False)

    def _boot(self, recovering: bool) -> None:
        self.engine = CentralEngine(grace_seconds=self._grace)
        self.plane = ControlPlane(
            EventRegistry(), self.engine, say=self.log.append, **self._plane_options
        )
        if recovering:
            self.plane.recover(replay(self.journal))

    # -- time ------------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.now

    def advance(self, seconds: float) -> None:
        self.loop.run_for(seconds)

    def next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def data_delay(self) -> float:
        lo, hi = self.faults.delay
        return self.rng.uniform(lo, hi) if hi > 0 else 0.0

    # -- fleet -----------------------------------------------------------------------

    def add_host(self, name: str, services=("Frontends",), connect: bool = True) -> SimHost:
        host = self.hosts[name] = SimHost(self, name, services)
        if connect:
            assert host.connect(), f"{name}: hello refused"
        return host

    def partition(self, host: SimHost, noticed: bool = True) -> None:
        """Sever *host*'s links.  *noticed*: the plane sees the EOF now;
        otherwise it finds out by a failed push or an expired lease."""
        host.link_up = False
        if noticed:
            host.hang_up()

    def heal(self, host: SimHost) -> None:
        host.link_up = True
        host.session = None  # whatever it had died with the partition
        host.connect()

    # -- performing effects ------------------------------------------------------------

    def perform(self, effects: list, requester: Optional[SimHost] = None) -> Optional[Reply]:
        """Do what the plane returned, in order; returns the reply."""
        reply = None
        pending = list(reversed(effects))
        while pending:
            effect = pending.pop()
            if self._crash_countdown is not None:
                if self._crash_countdown == 0:
                    self._crash_countdown = None
                    raise PlaneCrashed
                self._crash_countdown -= 1
            if isinstance(effect, Journal):
                self.journal.append(effect.record)
                self.trace.append(("journal", effect.record))
            elif isinstance(effect, Push):
                self.trace.append(("push", effect))
                if not self._push(effect):
                    pending += reversed(self.plane.push_failed(effect, self.now))
            elif isinstance(effect, Evict):
                self.trace.append(("evict", effect))
                host = effect.session.peer
                host.deliver(
                    effect.session, MsgType.ERROR,
                    {"error": effect.error, "message": effect.message},
                )
                if host.session is effect.session:
                    host.session = None  # the plane closed the channel
            else:
                reply = effect
                if requester is not None and effect.msg_type == MsgType.ERROR:
                    requester.last_error = effect.message
        return reply

    def _push(self, push: Push) -> bool:
        host: SimHost = push.session.peer
        if not host.link_up:
            return False  # a write on a dead socket
        if host.session is not push.session:
            return True  # that connection is gone; the bytes go nowhere
        faults = self.faults
        if faults.drop and self.rng.random() < faults.drop:
            return True
        copies = 2 if faults.dup and self.rng.random() < faults.dup else 1
        for _ in range(copies):
            lo, hi = faults.delay
            if hi > 0:
                self.loop.call_later(
                    self.rng.uniform(lo, hi), host.deliver,
                    push.session, push.msg_type, push.message,
                )
            else:
                host.deliver(push.session, push.msg_type, push.message)
        return True

    def ingest(self, batch: EventBatch) -> None:
        self.engine.ingest(batch)

    # -- requests ------------------------------------------------------------------------

    def request(self, msg_type: MsgType, message: Any) -> Reply:
        reply = self.perform(self.plane.request(msg_type, message, self.now))
        assert reply is not None
        return reply

    def submit(self, text: str, rollout: Optional[dict] = None) -> dict:
        message: dict[str, Any] = {"query": text}
        if rollout is not None:
            message["rollout"] = rollout
        reply = self.request(MsgType.SUBMIT, message)
        assert reply.msg_type == MsgType.SUBMIT_OK, reply.message
        query_id = reply.message["query_id"]
        central = self.plane.running[query_id].plan.central_object
        self.window_seconds[query_id] = central.window_seconds
        return reply.message

    def poll(self, query_id: str):
        return self.request(MsgType.POLL, {"query_id": query_id}).message

    def finish(self, query_id: str):
        return self.request(MsgType.FINISH, {"query_id": query_id}).message

    def stats(self) -> dict:
        return self.plane.stats(self.now)

    def tick(self) -> None:
        self.perform(self.plane.tick(self.now))

    def run(self, seconds: float, tick: float = 0.25) -> None:
        """Advance *seconds*, ticking the plane every *tick*."""
        for _ in range(round(seconds / tick)):
            self.advance(tick)
            self.tick()

    # -- plane crash and recovery ----------------------------------------------------------

    def crash_after(self, effects: int) -> None:
        """Kill the plane once *effects* more effects have been performed:
        the next one is never done, and :class:`PlaneCrashed` propagates
        out of whatever was performing."""
        self._crash_countdown = effects

    def recover(self) -> None:
        """A restarted scrubd: every connection died with the old
        process, the new one knows what its journal says."""
        self.crashes += 1
        self._crash_countdown = None
        for host in self.hosts.values():
            host.session = None
        self._boot(recovering=True)
