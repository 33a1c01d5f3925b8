"""``scrubd`` — the standalone ScrubCentral daemon.

A single asyncio process that plays the roles the in-process façade
(`repro.core.api.Scrub`) and the simulated cluster play elsewhere:

* accepts **agent control** connections (``AGENT_HELLO``): each
  registers a host (name, services, datacenter, event schemas) in the
  daemon's directory and then receives ``INSTALL``/``UNINSTALL`` pushes
  when queries target it;
* accepts **agent data** connections (``DATA_HELLO``): every ``BATCH``
  payload goes, still undecoded, onto one bounded queue that a single
  ingest task feeds to ``engine.ingest_frame`` (the serial
  :class:`CentralEngine` reads it as wire rows or decodes it, a
  :class:`ShardPool` slices it to its workers); the queue is bounded, so a
  slow engine backpressures the socket instead of ballooning memory,
  and a corrupt payload is logged and counted, not fatal;
* accepts **query control** connections: ``SUBMIT`` parses/validates/
  plans against the schemas agents announced, resolves the target over
  the *live* fleet membership (``repro.live.fleet``), samples hosts by
  rendezvous hash (churn-stable), registers the central query object
  and pushes installs — all at once, or as a health-gated canary
  rollout when the submit carries a rollout policy; ``POLL``/``FINISH``
  collect results; ``STATS`` exposes the engine, fleet and rollout
  counters;
* runs the periodic **advance/reap tick** on the real clock: windows
  close as wall time passes their end plus grace, and queries whose span
  has elapsed are uninstalled everywhere and their results retained for
  later collection.

Run it: ``scrubd --port 7421`` (or ``python -m repro.live.server``).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TextIO

from ..core.agent.governor import ImpactBudget
from ..core.central.engine import DEFAULT_GRACE_SECONDS, CentralEngine
from ..core.central.pool import ShardPool
from ..core.central.shm_ring import DEFAULT_RING_CAPACITY
from ..core.central.results import ResultSet
from ..core.control import RateUpdate, SamplingController
from ..core.events import EventRegistry
from ..core.query.errors import (
    QueryNotFoundError,
    ScrubError,
    ScrubValidationError,
)
from ..core.query.parser import parse_query
from ..core.query.planner import QueryPlan, plan_query
from ..core.query.targets import (
    HostDescription,
    rendezvous_sample,
    target_matches,
)
from ..core.query.validator import validate_query
from ..core.server import _seed_from
from .fleet import (
    MEMBER_STALE,
    ROLLOUT_ABORTED,
    ROLLOUT_CANARY,
    FleetManager,
    QueryRollout,
    RolloutAbort,
    RolloutPolicy,
)
from .journal import QueryJournal
from .protocol import (
    MsgType,
    ProtocolError,
    decode_message,
    encode_message_frame,
    read_frame,
    resultset_to_payload,
    schema_from_payload,
)

__all__ = ["ScrubDaemon", "main"]

DEFAULT_PORT = 7421

#: Seconds without a control-channel frame (heartbeats included) before
#: a registration is considered dead and its lease expires.
DEFAULT_LEASE_SECONDS = 10.0


class _AgentConn:
    """One registered host: its description, the control writer used to
    push installs/uninstalls to it, and its liveness lease."""

    __slots__ = (
        "description",
        "writer",
        "lock",
        "epoch",
        "last_seen",
        "query_costs",
    )

    def __init__(
        self,
        description: HostDescription,
        writer: asyncio.StreamWriter,
        epoch: int = 0,
        last_seen: float = 0.0,
    ):
        self.description = description
        self.writer = writer
        self.lock = asyncio.Lock()
        #: Session epoch from the agent's hello; a reconnect carries a
        #: larger one and takes the registration over.
        self.epoch = epoch
        #: Wall time of the last frame received on the control channel.
        self.last_seen = last_seen
        #: Latest per-query armed-cost counters from the agent heartbeat
        #: ({query_id: {"ewma_ns", "routed", "skipped"}}).
        self.query_costs: dict[str, Any] = {}

    async def push(self, msg_type: MsgType, message: dict[str, Any]) -> None:
        async with self.lock:
            self.writer.write(encode_message_frame(msg_type, message))
            await self.writer.drain()


@dataclass
class _LiveQuery:
    """Daemon-side record of one running query."""

    plan: QueryPlan
    text: str
    activates_at: float
    expires_at: float
    planned: tuple[str, ...]
    targeted: tuple[str, ...]
    #: Per targeted host: delivery health — "connected", "disconnected",
    #: "lease-expired", "unreachable" (install push failed), "stale"
    #: (silent past the fleet age-out threshold), or "never-seen"
    #: (journal recovery; host not re-attached yet).  The engine reads
    #: this dict live when it closes a window, so coverage names the
    #: state the host was in at close time.
    delivery: dict[str, str] = field(default_factory=dict)
    #: Incremental-rollout state machine when the SUBMIT carried a
    #: rollout policy; ``None`` installs everywhere at once.  For
    #: rollout queries ``targeted`` tracks the installed-so-far set.
    rollout: Optional[QueryRollout] = None
    #: Closed-loop rate controller when the query carries ``TARGET CI``;
    #: ``None`` runs the submitted rates open-loop.  scrubd applies
    #: event-rate retunes only (``can_widen=False``) — the host set is
    #: the rollout machinery's business.
    controller: Optional[SamplingController] = None


class ScrubDaemon:
    """The ScrubCentral facility as a network daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
        tick_interval: float = 0.25,
        queue_depth: int = 64,
        drain_margin: float = 1.0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        stale_after: Optional[float] = None,
        journal_path: Optional[str] = None,
        workers: int = 0,
        ring_kib: int = DEFAULT_RING_CAPACITY // 1024,
        impact_budget: Optional[ImpactBudget] = None,
        clock: Callable[[], float] = time.time,
        log: Optional[TextIO] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._tick_interval = tick_interval
        self._drain_margin = drain_margin
        self._lease_seconds = lease_seconds
        self._journal_path = journal_path
        self._journal: Optional[QueryJournal] = None
        #: The governor budget TARGET CI controllers clamp against (the
        #: agents enforce their own copies locally; the daemon's clamp
        #: backs off *before* theirs trips).  ``None`` disables the
        #: clamp, not the accuracy loop.
        self.impact_budget = impact_budget
        self._clock = clock
        self._log = log

        self.registry = EventRegistry()
        #: workers > 0 swaps the serial engine for the process-parallel
        #: ShardPool (docs/SCALING.md); the data plane is the same for both.
        self.workers = max(0, workers)
        self.engine: CentralEngine
        if self.workers > 0:
            # Shared-memory ring transport by default; the pool falls
            # back to pipe-bytes on its own if the platform can't do it.
            self.engine = ShardPool(
                workers=self.workers,
                grace_seconds=grace_seconds,
                ring_capacity=max(1, ring_kib) * 1024,
            )
        else:
            self.engine = CentralEngine(grace_seconds=grace_seconds)
        #: Dynamic membership + stale age-out.  One clock end to end:
        #: the age-out threshold derives from the lease unless set.
        self.fleet = FleetManager(lease_seconds, stale_after=stale_after)
        self._sequence = 0
        self._running: dict[str, _LiveQuery] = {}
        self._results: dict[str, ResultSet] = {}
        #: INSTALL pushes that failed to reach an agent (SUBMIT-time or
        #: reconnect-time); exposed via STATS.
        self.push_failures = 0
        #: BATCH payloads the decoder refused (torn or corrupt); STATS.
        self.batches_rejected = 0

        #: Undecoded BATCH payloads (and PING drain futures) awaiting the
        #: ingest task; bounded, so a saturated engine backpressures the
        #: socket (the sending host drops, never blocks).
        self._ingest_queue: "asyncio.Queue[Any]" = asyncio.Queue(
            maxsize=queue_depth
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._tasks: list[asyncio.Task] = []
        self._stopping = asyncio.Event()
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        if self._journal_path is not None:
            self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self._clock()
        self._tasks.append(asyncio.create_task(self._ingest_loop()))
        self._tasks.append(asyncio.create_task(self._tick_loop()))
        self._say(f"scrubd listening on {self.host}:{self.port}")

    def _recover(self) -> None:
        """Replay the query journal: restore schemas and re-register every
        open span so agents can re-attach and POLL/FINISH keep working."""
        self._journal = QueryJournal(self._journal_path)
        state = self._journal.state
        for schema in state.schemas:
            try:
                self.registry.register(schema)
            except ValueError as exc:
                self._say(f"journal: conflicting schema {schema.name!r}: {exc}")
        self._sequence = state.max_sequence
        resumed = []
        for query_id, record in state.open_queries.items():
            try:
                self._resume(
                    query_id,
                    record,
                    state.rollouts.get(query_id),
                    state.rates.get(query_id),
                )
            except ScrubError as exc:
                self._say(f"journal: cannot resume {query_id}: {exc}")
                continue
            resumed.append(query_id)
        if resumed or state.finished:
            self._say(
                f"scrubd resumed {len(resumed)} open span(s) from journal "
                f"({sorted(resumed)}; {len(state.finished)} already finished)"
            )
        if state.torn_records:
            self._say("journal: dropped a torn trailing record (crash mid-append)")

    def _resume(
        self,
        query_id: str,
        record: dict[str, Any],
        rollout_record: Optional[dict[str, Any]] = None,
        rates_record: Optional[dict[str, Any]] = None,
    ) -> None:
        """Re-register one journalled query.  Planning is deterministic in
        (text, query id), so the central object is identical to the one
        the crashed daemon ran; windows open at crash time are lost.  A
        journalled rollout resumes in its last recorded stage with the
        same installed set — the bake timer restarts, the placement does
        not.  A journalled rate retune resumes at exactly the last
        journalled version: the recovered controller starts there and
        reconnecting agents receive it in their INSTALL replay, so a
        SIGKILL mid-retune never forks the fleet's sampling."""
        query = parse_query(record["query"])
        validated = validate_query(query, self.registry)
        plan = plan_query(validated, query_id)
        targeted = tuple(record["targeted"])
        rollout: Optional[QueryRollout] = None
        policy = RolloutPolicy.from_payload(record.get("rollout"))
        if policy is not None:
            ro_rec = rollout_record or {}
            order = tuple(ro_rec.get("order", targeted))
            installed = tuple(
                ro_rec.get("installed", order[: policy.quota(0)])
            )
            rollout = QueryRollout(
                query_id,
                policy,
                order=order,
                installed=installed,
                stage=int(ro_rec.get("stage", 0)),
                state=ro_rec.get("state", ROLLOUT_CANARY),
                abort=RolloutAbort.from_dict(ro_rec.get("abort")),
            )
            targeted = installed
        # Nobody has re-attached yet; reconnects flip hosts to "connected".
        delivery = {name: "never-seen" for name in targeted}
        self.engine.register(
            plan.central_object,
            planned_hosts=max(len(record["planned"]), len(targeted)),
            targeted_hosts=len(targeted),
            targeted_names=targeted,
            delivery_state=lambda d=delivery: d,
        )
        controller = self._make_controller(
            query_id,
            plan,
            max(len(record["planned"]), len(targeted)),
            max(len(targeted), 1),
        )
        if controller is not None and rates_record is not None:
            try:
                controller.version = int(rates_record["version"])
                controller.event_rate = float(rates_record["event_rate"])
            except (KeyError, TypeError, ValueError) as exc:
                self._say(f"journal: bad rates record for {query_id}: {exc!r}")
        self._running[query_id] = _LiveQuery(
            plan=plan,
            text=record["query"],
            activates_at=record["activates_at"],
            expires_at=record["expires_at"],
            planned=tuple(record["planned"]),
            targeted=targeted,
            delivery=delivery,
            rollout=rollout,
            controller=controller,
        )

    async def run(self) -> None:
        """Start, serve until told to stop (SHUTDOWN, SIGTERM or SIGINT),
        then shut down cleanly — pool workers joined, rings unlinked."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._stopping.set)
        await self.start()
        try:
            await self._stopping.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = list(self._tasks) + list(self._conn_tasks)
        for task in pending:
            task.cancel()
        for task in pending:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._conn_tasks.clear()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def _say(self, message: str) -> None:
        if self._log is not None:
            print(message, file=self._log, flush=True)

    # -- connection dispatch -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            frame = await read_frame(reader)
            if frame is None:
                return
            msg_type, payload = frame
            if msg_type == MsgType.AGENT_HELLO:
                await self._serve_agent(reader, writer, decode_message(payload))
            elif msg_type == MsgType.DATA_HELLO:
                await self._serve_data(reader, writer, decode_message(payload))
            else:
                await self._serve_control(reader, writer, msg_type, payload)
        except ProtocolError as exc:
            self._say(f"protocol error: {exc}")
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Daemon shutdown cancelled this handler mid-read; swallow it
            # so asyncio's streams callback doesn't log a traceback for
            # every open connection.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError, asyncio.CancelledError):
                pass

    # -- agent control channel ------------------------------------------------------

    async def _serve_agent(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict[str, Any],
    ) -> None:
        name = hello["host"]
        epoch = int(hello.get("epoch", 0))
        existing = self.fleet.conn(name)
        if existing is not None:
            if epoch > existing.epoch:
                # A newer session of the same host (crash + restart, or a
                # reconnect racing lease expiry): the newer epoch wins and
                # the stale registration is evicted, not the newcomer.
                await self._evict(
                    name,
                    existing,
                    "superseded",
                    f"host {name!r} re-registered with newer epoch {epoch}",
                )
            else:
                writer.write(
                    encode_message_frame(
                        MsgType.ERROR,
                        {
                            "error": "duplicate-host",
                            "message": (
                                f"host {name!r} already registered with an equal or "
                                f"newer session epoch"
                            ),
                        },
                    )
                )
                await writer.drain()
                return
        try:
            for schema_payload in hello.get("schemas", []):
                schema = schema_from_payload(schema_payload)
                known = schema.name in self.registry
                self.registry.register(schema)
                if not known and self._journal is not None:
                    self._journal.record_schema(schema)
        except ValueError as exc:
            writer.write(
                encode_message_frame(
                    MsgType.ERROR, {"error": "schema-conflict", "message": str(exc)}
                )
            )
            await writer.drain()
            return
        description = HostDescription(
            name,
            tuple(hello.get("services", [])),
            hello.get("datacenter", "dc1"),
        )
        now = self._clock()
        conn = _AgentConn(description, writer, epoch=epoch, last_seen=now)
        # A rejoin (even from "stale") flips the member back to live with
        # its new session epoch; a first registration creates the member.
        self.fleet.attach(description, conn, epoch, now)
        async with conn.lock:
            writer.write(encode_message_frame(MsgType.HELLO_OK, {"epoch": epoch}))
            await writer.drain()
        self._say(
            f"agent {name} registered "
            f"(epoch {epoch}, {len(self.fleet.live())} live hosts)"
        )
        try:
            await self._sync_queries(name, conn)
        except (ConnectionError, OSError, RuntimeError):
            # RuntimeError is what an asyncio StreamWriter raises once its
            # transport is closed; all three mean the same thing here — the
            # read loop below will see the dead socket and clean up.
            pass
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                conn.last_seen = self._clock()
                msg_type, payload = frame
                if msg_type == MsgType.PING:
                    await conn.push(MsgType.PONG, decode_message(payload))
                elif msg_type == MsgType.HEARTBEAT:
                    # The lease renewal is the last_seen update above;
                    # the payload also carries the host's per-query
                    # armed-cost counters for STATS.
                    costs = decode_message(payload).get("query_costs")
                    if isinstance(costs, dict):
                        conn.query_costs = costs
        finally:
            # Only tear down our own registration: a takeover has already
            # replaced it, and the new session must not be unregistered by
            # the old connection's exit.
            if self.fleet.conn(name) is conn:
                self.fleet.detach(name, self._clock())
                self._mark_delivery(name, "disconnected")
                self._say(f"agent {name} disconnected")

    async def _sync_queries(self, name: str, conn: _AgentConn) -> None:
        """After HELLO_OK: push every open query span targeting this host,
        then a SYNC of the full live set so the agent reconciles — installs
        it lacks, uninstalls anything stale it still runs.  This is what
        makes a span survive an agent restart.

        A host the query does *not* yet target is a potential late
        joiner: matching queries pull it in at the current rollout stage
        (:meth:`_admit_late_joiner`), so registration order stops
        mattering — including after a journal recovery where the
        original hosts never came back."""
        now = self._clock()
        active: list[str] = []
        for query_id, live in list(self._running.items()):
            if now >= live.expires_at:
                continue
            if name not in live.targeted:
                if not self._admit_late_joiner(query_id, live, name, conn):
                    continue
                # Admitted to an active rollout: installed when widening
                # reaches it, nothing to push yet.
                if name not in live.targeted:
                    continue
            try:
                await conn.push(MsgType.INSTALL, self._install_message(query_id, live))
            except (ConnectionError, OSError, RuntimeError):
                self.push_failures += 1
                live.delivery[name] = "unreachable"
                raise
            live.delivery[name] = "connected"
            active.append(query_id)
        await conn.push(MsgType.SYNC, {"query_ids": active})

    def _admit_late_joiner(
        self, query_id: str, live: _LiveQuery, name: str, conn: _AgentConn
    ) -> bool:
        """Should a newly registered host join this running query?

        * Rollout queries admit every matching host into the rank order:
          an active rollout installs it when widening reaches its slot, a
          completed one immediately; an aborted one never.
        * Plain queries re-run the rendezvous pick over the *live*
          matching membership — rendezvous ranks are per-host-stable, so
          a newcomer joins exactly when it would have been chosen at
          submit time, and nobody else's placement moves.

        Returns True when the host is now part of the query (caller
        pushes the INSTALL if ``live.targeted`` gained it)."""
        if not target_matches(live.plan.target, conn.description):
            return False
        rollout = live.rollout
        if rollout is not None:
            if rollout.state == ROLLOUT_ABORTED:
                return False
            if not rollout.admit(name):
                return False
            if self._journal is not None:
                self._journal.record_rollout(
                    query_id, rollout.state, rollout.stage,
                    tuple(rollout.order), tuple(rollout.installed),
                )
            if name not in rollout.installed:
                return rollout.active  # queued for a future widen stage
        else:
            rate = live.plan.host_sampling_rate
            if rate < 1.0:
                matching = [
                    m.name
                    for m in self.fleet.live()
                    if target_matches(live.plan.target, m.description)
                ]
                picked = rendezvous_sample(
                    matching, rate, _seed_from(query_id)
                )
                if name not in picked:
                    return False
        self._join_query(query_id, live, name)
        return True

    def _join_query(self, query_id: str, live: _LiveQuery, name: str) -> None:
        """Commit one host into a running query's targeted set (central
        coverage included); the caller delivers the INSTALL."""
        live.targeted = live.targeted + (name,)
        live.delivery.setdefault(name, "connected")
        planned_delta = 0
        if name not in live.planned:
            live.planned = live.planned + (name,)
            planned_delta = 1
        try:
            self.engine.extend_targets(query_id, (name,), planned_delta)
        except Exception as exc:
            self._say(f"late join: extend_targets({query_id}) failed: {exc!r}")
        controller = live.controller
        if controller is not None:
            # Keep the controller's population model honest: the error
            # inversion needs the real (N, n), not the submit-time pair.
            controller.total_hosts += planned_delta
            controller.host_count = min(
                controller.host_count + 1, controller.total_hosts
            )

    async def _evict(
        self, name: str, conn: _AgentConn, error: str, message: str
    ) -> None:
        """Drop a registration: tell the old session why (a structured
        ERROR frame, never a silent close), then close its channel."""
        if self.fleet.conn(name) is conn:
            self.fleet.detach(name, self._clock())
        try:
            await asyncio.wait_for(
                conn.push(MsgType.ERROR, {"error": error, "message": message}),
                timeout=1.0,
            )
        except (ConnectionError, OSError, RuntimeError, asyncio.TimeoutError):
            pass
        try:
            conn.writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass

    def _mark_delivery(self, name: str, state: str) -> None:
        """Record a host's delivery-health transition on every open query
        that targets it (the engine reads these when windows close)."""
        for live in self._running.values():
            if name in live.targeted:
                live.delivery[name] = state

    def _install_message(self, query_id: str, live: _LiveQuery) -> dict[str, Any]:
        """The INSTALL payload for one query.  Every push path — submit,
        reconnect sync, late join, rollout widen, retune fan-out — goes
        through here so the current closed-loop rates always ride along:
        agents compare versions, so a replayed install converges a
        laggard and can never roll an up-to-date host back."""
        message: dict[str, Any] = {
            "query_id": query_id,
            "query": live.text,
            "activates_at": live.activates_at,
            "expires_at": live.expires_at,
        }
        controller = live.controller
        if controller is not None and controller.version > 0:
            message["rates"] = {
                "version": controller.version,
                "host_rate": controller.host_count / controller.total_hosts,
                "event_rate": controller.event_rate,
            }
        return message

    def _make_controller(
        self, query_id: str, plan: QueryPlan, total_hosts: int, targeted_hosts: int
    ) -> Optional[SamplingController]:
        """A closed-loop rate controller when the plan carries a
        ``TARGET CI`` clause; None runs the submitted rates open-loop."""
        target_ci = plan.central_object.target_ci
        if target_ci is None:
            return None
        return SamplingController(
            query_id,
            target_ci,
            total_hosts=max(total_hosts, targeted_hosts, 1),
            targeted_hosts=max(targeted_hosts, 1),
            window_seconds=plan.central_object.window_seconds,
            event_rate=plan.query.sampling.event_rate,
            budget=self.impact_budget,
            # scrubd never widens the host set mid-query: placement is
            # the rendezvous/rollout machinery's job, so the solver
            # holds n' fixed and retunes the event rate only.
            can_widen=False,
        )

    # -- data channel -----------------------------------------------------------------

    async def _serve_data(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict[str, Any],
    ) -> None:
        del hello  # identity is informational; batches carry their host
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            msg_type, payload = frame
            if msg_type == MsgType.BATCH:
                await self._ingest_queue.put(payload)
            elif msg_type == MsgType.PING:
                drained = asyncio.get_running_loop().create_future()
                await self._ingest_queue.put(drained)
                await drained
                writer.write(encode_message_frame(MsgType.PONG, decode_message(payload)))
                await writer.drain()
            else:
                raise ProtocolError(f"unexpected {msg_type.name} on data channel")

    async def _ingest_loop(self) -> None:
        """The one door into the engine: wire frames in arrival order.
        ``CentralEngine.ingest_frame`` reads fixed-layout frames as rows and
        decodes the rest; ``ShardPool.ingest_frame`` scans and ships byte slices
        (docs/SCALING.md §"Fixed-layout row ingest", §"Zero-copy shard ingest")."""
        while True:
            item = await self._ingest_queue.get()
            if isinstance(item, asyncio.Future):
                # A PING's drain marker: everything queued before it is in.
                if not item.done():
                    item.set_result(None)
                continue
            try:
                self.engine.ingest_frame(item)
            except ValueError as exc:
                # The decoder's structured error for a torn or corrupt
                # payload.  Framing is intact (the length prefix was
                # valid), so the connection stays up.
                self.batches_rejected += 1
                self._say(f"data: batch rejected: {exc}")
            except Exception as exc:  # keep ingesting; one bad batch ≠ outage
                self._say(f"data: ingest failed: {exc!r}")

    # -- query control channel ---------------------------------------------------------

    async def _serve_control(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        msg_type: MsgType,
        payload: bytes,
    ) -> None:
        while True:
            try:
                reply_type, reply = await self._control_request(msg_type, payload)
            except (ScrubError, QueryNotFoundError) as exc:
                reply_type = MsgType.ERROR
                reply = {"error": type(exc).__name__, "message": str(exc)}
            except ProtocolError:
                raise  # corrupt peer; tear the connection down
            except Exception as exc:
                # An unexpected failure (e.g. a dead agent writer raising
                # from deep inside a push) must reach the submitter as a
                # structured ERROR, not a silently closed socket.
                reply_type = MsgType.ERROR
                reply = {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
                self._say(f"control: request failed: {exc!r}")
            writer.write(encode_message_frame(reply_type, reply))
            await writer.drain()
            if reply_type == MsgType.SHUTDOWN_OK:
                return
            frame = await read_frame(reader)
            if frame is None:
                return
            msg_type, payload = frame

    async def _control_request(
        self, msg_type: MsgType, payload: bytes
    ) -> tuple[MsgType, dict[str, Any]]:
        message = decode_message(payload) if payload else {}
        if msg_type == MsgType.SUBMIT:
            return MsgType.SUBMIT_OK, await self._submit(message)
        if msg_type == MsgType.POLL:
            return MsgType.RESULTS, resultset_to_payload(
                self._poll(message["query_id"])
            )
        if msg_type == MsgType.FINISH:
            return MsgType.RESULTS, resultset_to_payload(
                await self._finish(message["query_id"])
            )
        if msg_type == MsgType.STATS:
            return MsgType.STATS_OK, self._stats()
        if msg_type == MsgType.SHUTDOWN:
            self._stopping.set()
            return MsgType.SHUTDOWN_OK, {}
        raise ProtocolError(f"unexpected {msg_type.name} on control channel")

    async def _submit(self, message: dict[str, Any]) -> dict[str, Any]:
        text = message["query"]
        try:
            policy = RolloutPolicy.from_payload(message.get("rollout"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScrubValidationError(f"bad rollout policy: {exc}") from exc
        query = parse_query(text)
        validated = validate_query(query, self.registry)
        query_id = self._next_query_id()
        plan = plan_query(validated, query_id)

        resolved = [
            (member.name, member.conn)
            for member in self.fleet.live()
            if target_matches(plan.target, member.description)
        ]
        if not resolved:
            raise ScrubValidationError(
                "query target matches no registered host; check the @[...] "
                "expression and that agents are connected"
            )
        # Rendezvous (highest-random-weight) sampling: each host's rank
        # depends only on (query seed, host name), so fleet churn moves
        # at most the churned host — and the same ranking doubles as the
        # rollout's widening order.
        chosen = rendezvous_sample(
            resolved,
            plan.host_sampling_rate,
            seed=_seed_from(query_id),
            key=lambda pair: pair[0],
        )

        now = self._clock()
        activates_at = plan.start if plan.start is not None else now
        expires_at = activates_at + plan.duration

        planned_names = tuple(name for name, _conn in resolved)
        order_names = tuple(name for name, _conn in chosen)
        rollout: Optional[QueryRollout] = None
        if policy is not None:
            rollout = QueryRollout(query_id, policy, order=order_names)
            initial = list(order_names[: rollout.quota()])
            rollout.note_installed(initial)
            install_now = [(n, c) for n, c in chosen if n in set(initial)]
        else:
            install_now = chosen
        targeted_names = tuple(name for name, _conn in install_now)
        delivery = {name: "connected" for name in targeted_names}
        self.engine.register(
            plan.central_object,
            planned_hosts=len(resolved),
            targeted_hosts=len(install_now),
            targeted_names=targeted_names,
            delivery_state=lambda d=delivery: d,
        )
        if self._journal is not None:
            self._journal.record_submit(
                query_id, text, activates_at, expires_at,
                planned_names, order_names,
                rollout=policy.as_dict() if policy is not None else None,
            )
            if rollout is not None:
                self._journal.record_rollout(
                    query_id, rollout.state, rollout.stage,
                    tuple(rollout.order), tuple(rollout.installed),
                )
        live = _LiveQuery(
            plan=plan,
            text=text,
            activates_at=activates_at,
            expires_at=expires_at,
            planned=planned_names,
            targeted=targeted_names,
            delivery=delivery,
            rollout=rollout,
            controller=self._make_controller(
                query_id, plan, len(resolved), len(install_now)
            ),
        )
        self._running[query_id] = live
        install = self._install_message(query_id, live)
        install_failures: list[str] = []
        for name, conn in install_now:
            try:
                await conn.push(MsgType.INSTALL, install)
            except (ConnectionError, OSError, RuntimeError):
                # The agent died between registration and install.  Count
                # it, flag the host unreachable (so its windows read as
                # degraded, not merely quiet), evict the dead session so
                # a restarted agent can re-register, and tell the
                # submitter in the reply — never fail the whole SUBMIT.
                self.push_failures += 1
                delivery[name] = "unreachable"
                install_failures.append(name)
                await self._evict(
                    name, conn, "install-push-failed",
                    f"install of {query_id} could not be delivered",
                )
        if rollout is not None:
            self._say(
                f"query {query_id} canary on "
                f"{len(install_now) - len(install_failures)}/{len(order_names)} "
                f"host(s) (policy {policy.as_dict()})"
            )
        else:
            self._say(
                f"query {query_id} installed on "
                f"{len(install_now) - len(install_failures)}/{len(resolved)} host(s)"
                + (
                    f" ({len(install_failures)} push failure(s))"
                    if install_failures
                    else ""
                )
            )
        return {
            "query_id": query_id,
            "columns": list(plan.central_object.column_names),
            "planned_hosts": list(planned_names),
            "targeted_hosts": list(targeted_names),
            "install_failures": install_failures,
            "activates_at": activates_at,
            "expires_at": expires_at,
            "rollout": rollout.as_dict() if rollout is not None else None,
            # Central execution mode, so the submitter can interpret any
            # later shard_gaps coverage entries: a pooled daemon names its
            # worker count and how often the supervisor has respawned one.
            "central": {
                "workers": self.workers,
                "worker_respawns": (
                    self.engine.worker_respawns
                    if isinstance(self.engine, ShardPool)
                    else 0
                ),
            },
        }

    def _next_query_id(self) -> str:
        self._sequence += 1
        return f"q{self._sequence:05d}"

    def _poll(self, query_id: str) -> ResultSet:
        done = self._results.get(query_id)
        if done is not None:
            return done
        live = self._running.get(query_id)
        if live is None:
            raise QueryNotFoundError(query_id)
        results = self.engine.results_so_far(query_id)
        if live.rollout is not None:
            results.rollout = live.rollout.as_dict()
        if live.controller is not None:
            results.sampling = live.controller.status()
        return results

    async def _finish(self, query_id: str) -> ResultSet:
        done = self._results.get(query_id)
        if done is not None:
            return done
        live = self._running.pop(query_id, None)
        if live is None:
            raise QueryNotFoundError(query_id)
        for name in live.targeted:
            conn = self.fleet.conn(name)
            if conn is None:
                continue
            try:
                await conn.push(MsgType.UNINSTALL, {"query_id": query_id})
            except (ConnectionError, OSError):
                pass  # agent gone; its query objects expire on their own
        results = self.engine.finish(query_id)
        if live.rollout is not None:
            results.rollout = live.rollout.as_dict()
        if live.controller is not None:
            results.sampling = live.controller.status()
        self._results[query_id] = results
        if self._journal is not None:
            self._journal.record_finish(query_id)
        degraded = len(results.degraded_windows)
        self._say(
            f"query {query_id} finished: {len(results.windows)} window(s)"
            + (f", {degraded} degraded" if degraded else "")
        )
        return results

    def _stats(self) -> dict[str, Any]:
        stats = self.engine.stats
        now = self._clock()
        return {
            # "hosts" stays live-connections-only (what can receive a
            # push right now); "fleet" below is the full membership view
            # including disconnected and stale hosts.
            "hosts": [
                {
                    "host": member.description.name,
                    "services": sorted(member.description.services),
                    "datacenter": member.description.datacenter,
                    "epoch": member.epoch,
                    "lease_age": now - member.last_seen,
                    "query_costs": member.query_costs(),
                }
                for member in self.fleet.live()
            ],
            "fleet": self.fleet.stats(now),
            "running": sorted(self._running),
            "finished": sorted(self._results),
            "queries": {
                query_id: {
                    "targeted": list(live.targeted),
                    "delivery": dict(live.delivery),
                    "activates_at": live.activates_at,
                    "expires_at": live.expires_at,
                }
                for query_id, live in self._running.items()
            },
            # Rollout state machines for running queries; a finished
            # query's final rollout state rides its stored ResultSet.
            "rollouts": {
                query_id: live.rollout.as_dict()
                for query_id, live in self._running.items()
                if live.rollout is not None
            },
            # Closed-loop sampling controllers for running TARGET CI
            # queries (the scrub-shell ``\\rates`` view reads this); a
            # finished query's final state rides its stored ResultSet.
            "controllers": {
                query_id: live.controller.status()
                for query_id, live in self._running.items()
                if live.controller is not None
            },
            "workers": self.workers,
            "lease_seconds": self._lease_seconds,
            "stale_after": self.fleet.stale_after,
            "push_failures": self.push_failures,
            "journal": self._journal_path,
            "uptime": now - self._started_at,
            "engine": {
                "batches_received": stats.batches_received,
                "events_received": stats.events_received,
                "events_rowed": stats.events_rowed,
                "events_late": stats.events_late,
                "bytes_received": stats.bytes_received,
                "batches_rejected": self.batches_rejected,
                "windows_emitted": stats.windows_emitted,
                "rows_emitted": stats.rows_emitted,
                "events_shed": stats.events_shed,
                "quarantines_reported": stats.quarantines_reported,
            },
            # Host-governor quarantines per running query (query -> host ->
            # structured reason) and, when pooled, supervisor health.
            "quarantines": self.engine.quarantines(),
            "pool": (
                self.engine.pool_health()
                if isinstance(self.engine, ShardPool)
                else None
            ),
        }

    # -- the real-clock tick -------------------------------------------------------------

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self._tick_interval)
            now = self._clock()
            await self._expire_leases(now)
            await self._rollout_tick(now)
            emitted: list = []
            try:
                emitted = self.engine.advance(now) or []
            except Exception as exc:
                self._say(f"tick: advance failed: {exc!r}")
            try:
                await self._control_tick(emitted, now)
            except Exception as exc:
                self._say(f"tick: control failed: {exc!r}")
            for query_id, live in list(self._running.items()):
                if now >= live.expires_at + self._drain_margin:
                    try:
                        await self._finish(query_id)
                    except Exception as exc:
                        self._say(f"tick: reap of {query_id} failed: {exc!r}")

    async def _expire_leases(self, now: float) -> None:
        """Unregister agents whose lease lapsed (no heartbeat within the
        window).  The dead session is told why — a structured ERROR, not
        a silent close — so a *slow* (not dead) agent knows to redial.
        Past the (lease-derived) age-out threshold the silent host then
        leaves membership entirely: coverage names it ``stale`` and
        pending rollouts stop waiting for it."""
        for member in self.fleet.lease_lapsed(now):
            name, conn = member.name, member.conn
            self._mark_delivery(name, "lease-expired")
            self._say(
                f"agent {name}: lease expired "
                f"({now - member.last_seen:.1f}s > {self._lease_seconds:g}s silent)"
            )
            await self._evict(
                name,
                conn,
                "lease-expired",
                f"no heartbeat for {now - member.last_seen:.1f}s; re-register to resume",
            )
        for member in self.fleet.age_out(now):
            self._mark_delivery(member.name, "stale")
            for query_id, live in self._running.items():
                rollout = live.rollout
                if (
                    rollout is not None
                    and rollout.active
                    and rollout.retire(member.name)
                    and self._journal is not None
                ):
                    self._journal.record_rollout(
                        query_id, rollout.state, rollout.stage,
                        tuple(rollout.order), tuple(rollout.installed),
                    )
            self._say(
                f"agent {member.name}: aged out of the fleet "
                f"({self.fleet.stale_after:g}s silent)"
            )

    # -- rollout lifecycle ----------------------------------------------------------

    async def _rollout_tick(self, now: float) -> None:
        """Drive every active rollout one health-gated step: abort on a
        canary quarantine or cost regression, otherwise bake — and widen
        once the stage has been healthy for ``bake_intervals`` ticks."""
        active = [
            (query_id, live)
            for query_id, live in list(self._running.items())
            if live.rollout is not None
            and live.rollout.active
            and now < live.expires_at
        ]
        if not active:
            return
        try:
            quarantines = self.engine.quarantines()
        except Exception:
            quarantines = {}
        for query_id, live in active:
            rollout = live.rollout
            assert rollout is not None
            abort = rollout.check_health(
                quarantines.get(query_id, {}),
                self.fleet.ewma_by_host(query_id),
            )
            if abort is not None:
                await self._abort_rollout(query_id, live, abort)
                continue
            # A detached (but not aged-out) canary is not evidence of
            # health: freeze the bake until it reconnects or goes stale.
            waiting = [
                name
                for name in rollout.installed
                if (member := self.fleet.member(name)) is not None
                and member.state != MEMBER_STALE
            ]
            if not waiting or any(
                self.fleet.conn(name) is None for name in waiting
            ):
                continue
            if rollout.tick_healthy():
                await self._widen_rollout(query_id, live)

    async def _abort_rollout(
        self, query_id: str, live: _LiveQuery, abort: RolloutAbort
    ) -> None:
        """Kill a rollout: journal the abort, uninstall everywhere, and
        keep the structured reason for POLL/STATS.  The query object
        stays registered so the troubleshooter can still collect what
        the canaries saw."""
        rollout = live.rollout
        assert rollout is not None
        rollout.record_abort(abort)
        if self._journal is not None:
            self._journal.record_rollout(
                query_id, rollout.state, rollout.stage,
                tuple(rollout.order), tuple(rollout.installed),
                abort=abort.as_dict(),
            )
        self._say(
            f"query {query_id} rollout aborted at stage {abort.stage}: "
            f"{abort.reason} on {abort.host} ({abort.detail})"
        )
        for name in rollout.installed:
            conn = self.fleet.conn(name)
            if conn is None:
                continue
            try:
                await conn.push(MsgType.UNINSTALL, {"query_id": query_id})
            except (ConnectionError, OSError, RuntimeError):
                pass  # agent gone; its query objects expire on their own

    async def _widen_rollout(self, query_id: str, live: _LiveQuery) -> None:
        """The stage baked healthy: advance and install the next tranche
        of the rendezvous order."""
        rollout = live.rollout
        assert rollout is not None
        tranche = rollout.widen_tranche()
        if tranche:
            rollout.note_installed(tranche)
            for name in tranche:
                self._join_query(query_id, live, name)
                live.delivery[name] = (
                    "connected" if self.fleet.conn(name) is not None
                    else "disconnected"
                )
            # The helper includes the current rate version, so a tranche
            # installed mid-retune starts at the steady-state rates —
            # canaries and latecomers never sample divergently.
            install = self._install_message(query_id, live)
            for name in tranche:
                conn = self.fleet.conn(name)
                if conn is None:
                    # Currently detached: the INSTALL replays from
                    # _sync_queries when it re-registers (it is in
                    # live.targeted now), so nothing is skipped.
                    continue
                try:
                    await conn.push(MsgType.INSTALL, install)
                except (ConnectionError, OSError, RuntimeError):
                    self.push_failures += 1
                    live.delivery[name] = "unreachable"
                    await self._evict(
                        name, conn, "install-push-failed",
                        f"install of {query_id} could not be delivered",
                    )
        if self._journal is not None:
            self._journal.record_rollout(
                query_id, rollout.state, rollout.stage,
                tuple(rollout.order), tuple(rollout.installed),
            )
        self._say(
            f"query {query_id} rollout {rollout.state}: stage {rollout.stage}, "
            f"{len(rollout.installed)}/{len(rollout.order)} host(s) installed"
        )

    # -- closed-loop sampling --------------------------------------------------------

    async def _control_tick(self, emitted: list, now: float) -> None:
        """Drive every TARGET CI query's rate controller one step: feed
        the windows the engine just closed and the cost counters from
        agent heartbeats, then fan out any retune it issues."""
        with_controller = [
            (query_id, live)
            for query_id, live in list(self._running.items())
            if live.controller is not None
        ]
        if not with_controller:
            return
        for window in emitted:
            live = self._running.get(window.query_id)
            if live is not None and live.controller is not None:
                live.controller.observe_window(window, now)
        for query_id, live in with_controller:
            controller = live.controller
            assert controller is not None
            if now >= live.expires_at:
                continue
            costs: dict[str, Any] = {}
            for name in live.targeted:
                conn = self.fleet.conn(name)
                if conn is None:
                    # A detached host must not freeze the loop on its
                    # last heartbeat forever; it re-reports on rejoin.
                    controller.forget_host(name)
                    continue
                per_query = conn.query_costs.get(query_id)
                if isinstance(per_query, dict):
                    costs[name] = per_query
            controller.observe_costs(costs, now)
            update = controller.tick(now)
            if update is not None:
                await self._apply_rates(query_id, live, update)

    async def _apply_rates(
        self, query_id: str, live: _LiveQuery, update: RateUpdate
    ) -> None:
        """Fan one versioned retune out to the query's hosts.  The
        journal append comes *first*: a daemon killed between journal
        and fan-out recovers with this exact version and replays it over
        the INSTALL path, and agents' version compare makes the replay
        idempotent — laggards converge, up-to-date hosts ignore it."""
        if self._journal is not None:
            self._journal.record_rates(
                query_id,
                update.version,
                update.host_rate,
                update.event_rate,
                update.reason,
            )
        message = {
            "query_id": query_id,
            "rates": {
                "version": update.version,
                "host_rate": update.host_rate,
                "event_rate": update.event_rate,
            },
            # Agents treat a RETUNE for an installed query as a rates
            # refresh; the full INSTALL replay path stays reserved for
            # reconnects.
            "query": live.text,
            "activates_at": live.activates_at,
            "expires_at": live.expires_at,
        }
        for name in live.targeted:
            conn = self.fleet.conn(name)
            if conn is None:
                continue  # replayed by _sync_queries when it re-registers
            try:
                await conn.push(MsgType.INSTALL, message)
            except (ConnectionError, OSError, RuntimeError):
                self.push_failures += 1
                live.delivery[name] = "unreachable"
        self._say(
            f"query {query_id} retuned to v{update.version}: "
            f"event_rate={update.event_rate:.4g} ({update.reason})"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scrubd", description="Standalone ScrubCentral daemon."
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="shard worker processes for the central engine "
        "(0 = single-process serial engine)",
    )
    parser.add_argument(
        "--ring-kib", type=int, default=DEFAULT_RING_CAPACITY // 1024,
        metavar="KIB",
        help="per-worker shared-memory ring size in KiB for --workers "
        "ingest; full rings spill to the pipe, and unsupported "
        "platforms fall back to pipe-bytes entirely",
    )
    parser.add_argument(
        "--grace", type=float, default=DEFAULT_GRACE_SECONDS,
        help="seconds past a window end before it closes",
    )
    parser.add_argument("--tick", type=float, default=0.25, help="advance/reap interval (s)")
    parser.add_argument("--queue-depth", type=int, default=64, help="ingest queue bound (batches)")
    parser.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS,
        help="seconds without an agent heartbeat before its lease expires",
    )
    parser.add_argument(
        "--stale-after", type=float, default=None, metavar="SECONDS",
        help="silence before a host ages out of fleet membership as "
        "'stale' (default: 2x the lease window, so both run on one clock)",
    )
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="append-only query journal; open spans resume on restart",
    )
    parser.add_argument(
        "--budget-wall-ms", type=float, default=None, metavar="MS",
        help="per-host wall budget (ms per second) that TARGET CI rate "
        "controllers clamp against, backing off before the agents' own "
        "governors engage (default: no daemon-side clamp)",
    )
    args = parser.parse_args(argv)

    daemon = ScrubDaemon(
        host=args.host,
        port=args.port,
        grace_seconds=args.grace,
        tick_interval=args.tick,
        queue_depth=args.queue_depth,
        lease_seconds=args.lease,
        stale_after=args.stale_after,
        journal_path=args.journal,
        workers=args.workers,
        ring_kib=args.ring_kib,
        impact_budget=(
            ImpactBudget(max_wall_seconds=args.budget_wall_ms / 1000.0)
            if args.budget_wall_ms is not None
            else None
        ),
        log=sys.stdout,
    )
    try:
        asyncio.run(daemon.run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
