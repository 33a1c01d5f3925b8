"""``scrubd`` — the standalone ScrubCentral daemon: a shell that moves bytes.

What the daemon *decides* — registration and epoch takeover, leases,
SUBMIT admission and rendezvous placement, install replay and late
join, canary rollout, closed-loop retunes, POLL / FINISH / reap,
``STATS``, journal recovery — is
:class:`~repro.core.control.plane.ControlPlane`, a synchronous object
that returns its I/O as an ordered list of effects.  This module is the
asyncio process around it, and keeps only what touches a socket, a file
or the clock:

* **agent control** connections (``AGENT_HELLO``): every frame goes to
  the plane; the effects that come back are performed, in order, by
  :meth:`ScrubDaemon._perform`, whose one ``_push`` is the only place an
  agent's socket is written;
* **agent data** connections (``DATA_HELLO``): every ``BATCH`` payload
  goes, still undecoded, onto one bounded queue that a single ingest
  task feeds to ``engine.ingest_frame`` — a slow engine backpressures
  the socket instead of ballooning memory, and a corrupt payload is
  logged and counted, not fatal;
* **query control** connections: ``SUBMIT`` / ``POLL`` / ``FINISH`` /
  ``STATS`` go to the plane, its reply comes back on the same
  connection; ``SHUTDOWN`` stops the process;
* the **tick** on the real clock: sleep, ``plane.tick(now)``, perform;
* the **journal** file: ``Journal`` effects are appended (fsync'd) in
  list order — always ahead of the pushes they describe — and replayed
  into the plane at startup.

Run it: ``scrubd --port 7421`` (or ``python -m repro.live.server``).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from typing import Any, Callable, Optional, TextIO

from ..core.agent.governor import ImpactBudget
from ..core.central.engine import DEFAULT_GRACE_SECONDS, CentralEngine
from ..core.central.pool import ShardPool
from ..core.central.shm_ring import DEFAULT_RING_CAPACITY
from ..core.control import ControlPlane, Evict, Journal, Push, Session
from ..core.events import EventRegistry
from .journal import open_journal
from .protocol import (
    MsgType,
    ProtocolError,
    decode_message,
    encode_message_frame,
    read_frame,
    resultset_to_payload,
)

__all__ = ["ScrubDaemon", "main"]

DEFAULT_PORT = 7421

#: Seconds without a control-channel frame (heartbeats included) before
#: a registration is considered dead and its lease expires.
DEFAULT_LEASE_SECONDS = 10.0

class _Peer:
    """The socket half of an agent session: the control writer pushes go
    out on, and the lock that keeps their frames whole."""

    __slots__ = ("writer", "lock")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()


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
        self._journal_path = journal_path
        self._journal = None
        self._clock = clock
        self._log = log

        #: workers > 0 swaps the serial engine for the process-parallel
        #: ShardPool (docs/SCALING.md); the data plane is the same for both.
        self.engine: CentralEngine
        if workers > 0:
            self.engine = ShardPool(
                workers=workers,
                grace_seconds=grace_seconds,
                ring_capacity=max(1, ring_kib) * 1024,
            )
        else:
            self.engine = CentralEngine(grace_seconds=grace_seconds)
        self.plane = ControlPlane(
            EventRegistry(),
            self.engine,
            lease_seconds=lease_seconds,
            stale_after=stale_after,
            drain_margin=drain_margin,
            impact_budget=impact_budget,
            say=self._say,
        )
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
        self._journal = open_journal(self._journal_path)
        if self._journal is not None:
            self.plane.recover(self._journal.state)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self._clock()
        self._tasks.append(asyncio.create_task(self._ingest_loop()))
        self._tasks.append(asyncio.create_task(self._tick_loop()))
        self._say(f"scrubd listening on {self.host}:{self.port}")

    async def run(self) -> None:
        """Start, serve until told to stop (SHUTDOWN, SIGTERM or SIGINT),
        then shut down cleanly — pool workers joined, rings unlinked."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._stopping.set)
        await self.start()
        try:
            await self.stopped()
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

    def request_stop(self) -> None:
        self._stopping.set()

    async def stopped(self) -> None:
        await self._stopping.wait()

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
        session = Session(_Peer(writer))
        await self._perform(self.plane.hello(session, hello, self._clock()), writer)
        if self.plane.fleet.conn(session.host) is not session:
            return  # refused (the ERROR went out), or evicted mid-replay
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                msg_type, payload = frame
                message = (
                    decode_message(payload)
                    if msg_type in (MsgType.PING, MsgType.HEARTBEAT)
                    else {}
                )
                await self._perform(
                    self.plane.agent_message(session, msg_type, message, self._clock())
                )
        finally:
            await self._perform(self.plane.disconnected(session, self._clock()))

    # -- performing effects -----------------------------------------------------------

    async def _perform(
        self, effects: list, reply_to: Optional[asyncio.StreamWriter] = None
    ) -> None:
        """Do what the plane returned, in the order it returned it."""
        pending = list(reversed(effects))
        while pending:
            effect = pending.pop()
            if isinstance(effect, Journal):
                if self._journal is not None:
                    self._journal.append(effect.record)
            elif isinstance(effect, Push):
                if not await self._push(effect.session.peer, effect.msg_type, effect.message):
                    pending += reversed(self.plane.push_failed(effect, self._clock()))
            elif isinstance(effect, Evict):
                peer = effect.session.peer
                await self._push(
                    peer,
                    MsgType.ERROR,
                    {"error": effect.error, "message": effect.message},
                    timeout=1.0,
                )
                peer.writer.close()
            elif reply_to is not None:
                reply_to.write(self._reply_frame(effect.msg_type, effect.message))
                await reply_to.drain()

    async def _push(
        self,
        peer: _Peer,
        msg_type: MsgType,
        message: dict[str, Any],
        timeout: Optional[float] = None,
    ) -> bool:
        """The one write to an agent's socket.  False when it could not
        be delivered: ``ConnectionError`` / ``OSError`` from a dead link,
        ``RuntimeError`` from an asyncio transport already closed, or
        *timeout* seconds of a peer that stopped reading."""
        try:
            async with peer.lock:
                if peer.writer.is_closing():
                    return False
                peer.writer.write(encode_message_frame(msg_type, message))
                await asyncio.wait_for(peer.writer.drain(), timeout)
            return True
        except (ConnectionError, OSError, RuntimeError, asyncio.TimeoutError):
            return False

    def _reply_frame(self, msg_type: MsgType, message: Any) -> bytes:
        if msg_type == MsgType.RESULTS:
            message = resultset_to_payload(message)
        elif msg_type == MsgType.STATS_OK:
            # The shell's own counters ride along with the plane's.
            message["journal"] = self._journal_path
            message["uptime"] = self._clock() - self._started_at
            message["engine"]["batches_rejected"] = self.batches_rejected
        return encode_message_frame(msg_type, message)

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
            if msg_type == MsgType.SHUTDOWN:
                self._stopping.set()
                writer.write(encode_message_frame(MsgType.SHUTDOWN_OK, {}))
                await writer.drain()
                return
            message = decode_message(payload) if payload else {}
            await self._perform(
                self.plane.request(msg_type, message, self._clock()), writer
            )
            frame = await read_frame(reader)
            if frame is None:
                return
            msg_type, payload = frame

    # -- the real-clock tick -------------------------------------------------------------

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self._tick_interval)
            try:
                await self._perform(self.plane.tick(self._clock()))
            except Exception as exc:  # a failed append or push must not end the ticking
                self._say(f"tick failed: {exc!r}")


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
