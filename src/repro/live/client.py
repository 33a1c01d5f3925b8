"""Live-mode clients: embed an agent in an application, or drive queries.

:class:`LiveAgent` is what an application process creates: a real
``ScrubAgent`` (same hot path, same drop-not-block buffer) whose
batches ship over a :class:`SocketTransport`, plus a control channel on
which ``scrubd`` pushes query installs; each push is applied by the
handler every kind of host shares (``repro.core.control.hostside``).

:class:`ControlClient` is the troubleshooter side: submit a query to a
running ``scrubd``, poll or finish it, read daemon stats.  The
``scrub-submit`` console entrypoint wraps it.
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
import time
from typing import Any, Callable, Iterable, Mapping, Optional

from ..core.agent.agent import ScrubAgent
from ..core.agent.governor import ImpactBudget
from ..core.central.results import ResultSet
from ..core.control.hostside import apply_control
from ..core.events import EventRegistry, EventSchema
from ..core.query.errors import ScrubError
from .protocol import (
    MsgType,
    ProtocolError,
    decode_message,
    encode_message_frame,
    recv_frame,
    resultset_from_payload,
    schema_to_payload,
)
from .transport import JitteredBackoff, SocketTransport

__all__ = ["ControlClient", "LiveAgent", "main"]


class LiveAgentError(ScrubError):
    """A live agent could not register with or talk to scrubd."""

    def __init__(self, message: str, reason: Optional[str] = None) -> None:
        super().__init__(message)
        #: The daemon's structured error code (e.g. ``"duplicate-host"``),
        #: when the failure came from an ERROR frame.
        self.reason = reason


#: Rejection reasons that re-registering with the same hello cannot cure:
#: redialing would hammer the daemon with doomed registrations forever.
#: (``duplicate-host`` is handled separately — it means another live
#: session owns the name, which is a stand-down, not an error.)
_PERMANENT_REJECTIONS = frozenset({"schema-conflict"})


class LiveAgent:
    """A Scrub host agent connected to a remote ``scrubd``.

    Usage::

        live = LiveAgent(("127.0.0.1", 7421), "web-7", services=["Frontends"])
        live.define_event("pv", [("url", "string"), ("latency_ms", "double")])
        live.start()
        ...
        live.log("pv", url="/", latency_ms=12.5, request_id=rid)
    """

    def __init__(
        self,
        address: tuple[str, int],
        host: str,
        services: Iterable[str] = (),
        datacenter: str = "dc1",
        registry: Optional[EventRegistry] = None,
        clock: Callable[[], float] = time.time,
        buffer_capacity: int = 10_000,
        flush_batch_size: int = 500,
        outbox_capacity: int = 256,
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 1.0,
        reconnect: bool = True,
        reconnect_backoff_base: float = 0.1,
        reconnect_backoff_cap: float = 2.0,
        impact_budget: Optional[ImpactBudget] = None,
    ) -> None:
        self.address = address
        self.host = host
        self.services = tuple(services)
        self.datacenter = datacenter
        self.registry = registry if registry is not None else EventRegistry()
        self._connect_timeout = connect_timeout
        self._heartbeat_interval = heartbeat_interval
        self._reconnect = reconnect
        self._backoff_base = reconnect_backoff_base
        self._backoff_cap = reconnect_backoff_cap
        self._backoff = JitteredBackoff(
            host, reconnect_backoff_base, reconnect_backoff_cap, salt="control"
        )
        self.transport = SocketTransport(
            address, host, outbox_capacity=outbox_capacity
        )
        self.agent = ScrubAgent(
            host=host,
            registry=self.registry,
            transport=self.transport,
            clock=clock,
            buffer_capacity=buffer_capacity,
            flush_batch_size=flush_batch_size,
            impact_budget=impact_budget,
        )
        self._control: Optional[socket.socket] = None
        self._reader: Optional[threading.Thread] = None
        self._heartbeater: Optional[threading.Thread] = None
        self._started = False
        self._closed = threading.Event()
        #: Session epoch: strictly increasing across (re)connections, so a
        #: restarted agent always supersedes its own stale registration.
        self.epoch = 0
        #: Another session of this host took the name over; stop redialing.
        self._superseded = False
        #: Set when redialing stopped for good on a permanent rejection
        #: (e.g. ``schema-conflict``): the error the application should
        #: see instead of a silent retry loop.  ``None`` while healthy.
        self.fatal_error: Optional[LiveAgentError] = None
        #: Control-channel re-registrations after the initial start().
        self.control_reconnects = 0
        self.heartbeats_sent = 0
        #: Effective installs: INSTALL pushes that actually armed a new
        #: query here (reconnect replays of an already-running query are
        #: deduplicated and not counted) — what rollout conservation
        #: tests assert on.
        self.installs_applied = 0

    # -- setup -------------------------------------------------------------------

    def define_event(self, name: str, fields: Any, doc: str = "") -> EventSchema:
        """Declare an event type; must happen before :meth:`start` so the
        schema rides along in the registration hello."""
        if self._started:
            raise LiveAgentError(
                "define events before start(); scrubd learns schemas from the hello"
            )
        return self.registry.define(name, fields, doc=doc)

    def start(self) -> None:
        """Register with scrubd and begin serving install pushes.

        The first registration is synchronous so callers see a rejection
        (duplicate host, schema conflict) immediately; afterwards a
        background thread serves pushes, renews the liveness lease with
        periodic heartbeats, and — unless ``reconnect=False`` — redials
        and re-registers whenever the control channel dies, at which
        point scrubd replays the installs this host should be running.
        A permanent rejection while redialing (e.g. ``schema-conflict``)
        ends the retry loop and is surfaced in :attr:`fatal_error`.
        """
        if self._started:
            return
        self._control = self._connect_control()
        self._started = True
        self._reader = threading.Thread(
            target=self._control_loop, name=f"scrub-control-{self.host}", daemon=True
        )
        self._reader.start()
        self._heartbeater = threading.Thread(
            target=self._heartbeat_loop,
            name=f"scrub-heartbeat-{self.host}",
            daemon=True,
        )
        self._heartbeater.start()

    def _connect_control(self) -> socket.socket:
        """Dial scrubd and register; returns the live control socket.
        Raises :class:`LiveAgentError` (with the daemon's error code in
        ``.reason``) on rejection."""
        epoch = time.time_ns()
        sock = socket.create_connection(self.address, timeout=self._connect_timeout)
        try:
            sock.sendall(
                encode_message_frame(
                    MsgType.AGENT_HELLO,
                    {
                        "host": self.host,
                        "epoch": epoch,
                        "services": list(self.services),
                        "datacenter": self.datacenter,
                        "schemas": [schema_to_payload(s) for s in self.registry],
                    },
                )
            )
            frame = recv_frame(sock)
            if frame is None:
                raise LiveAgentError("scrubd closed the connection during hello")
            msg_type, payload = frame
            if msg_type == MsgType.ERROR:
                message = decode_message(payload)
                raise LiveAgentError(
                    f"scrubd rejected agent {self.host!r}: {message.get('message')}",
                    reason=message.get("error"),
                )
            if msg_type != MsgType.HELLO_OK:
                raise LiveAgentError(f"unexpected {msg_type.name} during hello")
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        sock.settimeout(None)
        self.epoch = epoch
        return sock

    # -- application-facing API -----------------------------------------------------

    def log(
        self,
        event_type: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        request_id: int,
        timestamp: Optional[float] = None,
        **fields: Any,
    ) -> int:
        return self.agent.log(
            event_type, payload, request_id=request_id, timestamp=timestamp, **fields
        )

    def flush(self, now: Optional[float] = None) -> int:
        return self.agent.flush(now)

    def drain(self, timeout: float = 10.0) -> bool:
        """Flush and wait until scrubd has ingested everything shipped so
        far (False on timeout or a down link)."""
        self.agent.flush()
        return self.transport.drain(timeout)

    @property
    def installed_query_ids(self) -> tuple[str, ...]:
        return self.agent.active_query_ids

    def close(self) -> None:
        self._closed.set()
        sock = self._control  # the reader may null the attr concurrently
        if sock is not None:
            # shutdown() first: it sends the FIN and wakes the reader
            # thread blocked in recv(); a bare close() would do neither
            # while that syscall pins the kernel socket.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._reader is not None:
            self._reader.join(timeout=2.0)
        if self._heartbeater is not None:
            self._heartbeater.join(timeout=2.0)
        self.transport.close()

    # -- control channel (install pushes, reconnect) ---------------------------------

    def _control_loop(self) -> None:
        """Serve one control connection; when it dies, redial forever
        (capped backoff) unless closed, superseded by a newer session of
        the same host, or permanently rejected (``fatal_error``)."""
        while (
            not self._closed.is_set()
            and not self._superseded
            and self.fatal_error is None
        ):
            sock = self._control
            if sock is None:
                return
            self._serve(sock)
            try:
                sock.close()
            except OSError:
                pass
            self._control = None
            if (
                self._closed.is_set()
                or self._superseded
                or self.fatal_error is not None
                or not self._reconnect
            ):
                return
            self._control = self._redial()

    def _serve(self, sock: socket.socket) -> None:
        """Read frames until the connection dies or we are told to stop."""
        try:
            while not self._closed.is_set():
                frame = recv_frame(sock)
                if frame is None:
                    return  # scrubd went away; redial (queries expire locally)
                msg_type, payload = frame
                if msg_type in (MsgType.INSTALL, MsgType.UNINSTALL, MsgType.SYNC):
                    self._apply(msg_type, decode_message(payload))
                elif msg_type == MsgType.ERROR:
                    message = decode_message(payload)
                    reason = message.get("error")
                    if reason in ("superseded", "duplicate-host"):
                        # Another session owns this host name now; redialing
                        # would only evict it in turn.  Stand down.
                        self._superseded = True
                        return
                    if reason in _PERMANENT_REJECTIONS:
                        self.fatal_error = LiveAgentError(
                            f"scrubd rejected agent {self.host!r}: "
                            f"{message.get('message')}",
                            reason=reason,
                        )
                        return
                    # Anything else (e.g. lease-expired after a long stall)
                    # is cured by re-registering: fall out and redial.
                    return
        except (OSError, ProtocolError):
            return

    def _redial(self) -> Optional[socket.socket]:
        """Reconnect + re-register with full-jitter capped exponential
        backoff (seeded from the host name: a scrubd restart must not
        make the whole fleet redial in lockstep, yet each host's delay
        sequence stays reproducible).  A new epoch per attempt means our
        fresh session supersedes the stale registration scrubd may still
        hold for us."""
        self._backoff.reset()
        while not self._closed.is_set():
            try:
                sock = self._connect_control()
            except LiveAgentError as exc:
                if exc.reason == "duplicate-host":
                    self._superseded = True
                    return None
                if exc.reason in _PERMANENT_REJECTIONS:
                    # The same hello can only be rejected the same way
                    # again; stop redialing and surface the error.
                    self.fatal_error = exc
                    return None
                self._closed.wait(self._backoff.next_delay())
            except OSError:
                self._closed.wait(self._backoff.next_delay())
            else:
                self.control_reconnects += 1
                return sock
        return None

    def _apply(self, msg_type: MsgType, message: dict[str, Any]) -> None:
        """One INSTALL / UNINSTALL / SYNC push, through the handler every
        kind of host shares (``repro.core.control.hostside``)."""
        try:
            if apply_control(self.agent, self.registry, msg_type, message):
                self.installs_applied += 1
        except Exception as exc:
            # A query this host cannot plan (e.g. stale schema) must not
            # kill the control loop; the host simply contributes nothing.
            print(
                f"scrub[{self.host}]: {msg_type.name} of "
                f"{message.get('query_id')} failed: {exc}",
                file=sys.stderr,
            )

    def _heartbeat_loop(self) -> None:
        """Renew the liveness lease; scrubd expires agents it has not
        heard from within its lease window."""
        while not self._closed.wait(self._heartbeat_interval):
            if self._superseded or self.fatal_error is not None:
                return
            sock = self._control
            if sock is None:
                continue
            try:
                sock.sendall(
                    encode_message_frame(
                        MsgType.HEARTBEAT,
                        {
                            "host": self.host,
                            "epoch": self.epoch,
                            "sent_at": time.time(),
                            # Per-query armed-cost counters so scrubd's
                            # STATS can show what each live query costs
                            # on this host (ewma_ns/routed/skipped).
                            "query_costs": self.agent.query_costs(),
                        },
                    )
                )
                self.heartbeats_sent += 1
            except OSError:
                continue  # the reader notices the dead socket and redials


class ControlClient:
    """Submit/poll/finish queries against a running ``scrubd``."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0) -> None:
        self.address = address
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None

    # -- plumbing -----------------------------------------------------------------

    def _request(
        self, msg_type: MsgType, message: dict[str, Any]
    ) -> tuple[MsgType, dict[str, Any]]:
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=self._timeout)
        try:
            self._sock.sendall(encode_message_frame(msg_type, message))
            frame = recv_frame(self._sock)
        except OSError:
            self.close()
            raise
        if frame is None:
            self.close()
            raise ConnectionError("scrubd closed the control connection")
        reply_type, payload = frame
        reply = decode_message(payload) if payload else {}
        if reply_type == MsgType.ERROR:
            raise ScrubError(f"{reply.get('error')}: {reply.get('message')}")
        return reply_type, reply

    # -- commands ------------------------------------------------------------------

    def submit(
        self, query_text: str, rollout: Optional[dict[str, Any]] = None
    ) -> dict[str, Any]:
        """Returns the handle payload: query_id, columns, host placement,
        activates_at/expires_at.

        *rollout* opts the query into an incremental canary rollout:
        ``{"canary_hosts": N, "widen_factor": F, "bake_intervals": K,
        "max_ewma_ns": C}`` (only ``canary_hosts`` is required) — the
        daemon installs on N hosts first and widens geometrically while
        the canaries stay healthy (see ``repro.core.control.fleet``).
        """
        message: dict[str, Any] = {"query": query_text}
        if rollout is not None:
            message["rollout"] = rollout
        _type, reply = self._request(MsgType.SUBMIT, message)
        return reply

    def poll(self, query_id: str) -> ResultSet:
        _type, reply = self._request(MsgType.POLL, {"query_id": query_id})
        return resultset_from_payload(reply)

    def finish(self, query_id: str) -> ResultSet:
        _type, reply = self._request(MsgType.FINISH, {"query_id": query_id})
        return resultset_from_payload(reply)

    def stats(self) -> dict[str, Any]:
        _type, reply = self._request(MsgType.STATS, {})
        return reply

    def shutdown(self) -> None:
        self._request(MsgType.SHUTDOWN, {})
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def parse_address(text: str) -> tuple[str, int]:
    """``host:port`` (or bare ``:port`` / ``port``) → address tuple."""
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", text
    return (host or "127.0.0.1", int(port))


def main(argv: Optional[list[str]] = None) -> int:
    """``scrub-submit``: run one query against a live scrubd."""
    parser = argparse.ArgumentParser(
        prog="scrub-submit",
        description="Submit a Scrub query to a running scrubd and print results.",
    )
    parser.add_argument("query", nargs="?", help="query text ('-' or omitted = stdin)")
    parser.add_argument(
        "--address", default="127.0.0.1:7421", help="scrubd host:port"
    )
    parser.add_argument(
        "--no-wait", action="store_true",
        help="submit and exit immediately (collect later with --finish)",
    )
    parser.add_argument(
        "--finish", metavar="QUERY_ID",
        help="collect (and end) a previously submitted query instead of submitting",
    )
    parser.add_argument(
        "--format", choices=("pretty", "csv", "json"), default="pretty"
    )
    parser.add_argument(
        "--margin", type=float, default=3.0,
        help="extra seconds past the span end before collecting",
    )
    parser.add_argument(
        "--canary", type=int, metavar="N", default=None,
        help="roll the query out incrementally: install on N canary "
        "hosts, bake, then widen while they stay healthy",
    )
    parser.add_argument(
        "--widen-factor", type=float, default=2.0,
        help="geometric growth per rollout stage (with --canary)",
    )
    parser.add_argument(
        "--bake-intervals", type=int, default=2,
        help="healthy daemon ticks per stage before widening (with --canary)",
    )
    parser.add_argument(
        "--max-ewma-ns", type=float, default=None,
        help="abort the rollout if any installed host's per-event cost "
        "EWMA exceeds this ceiling (with --canary)",
    )
    args = parser.parse_args(argv)

    rollout: Optional[dict[str, Any]] = None
    if args.canary is not None:
        rollout = {
            "canary_hosts": args.canary,
            "widen_factor": args.widen_factor,
            "bake_intervals": args.bake_intervals,
        }
        if args.max_ewma_ns is not None:
            rollout["max_ewma_ns"] = args.max_ewma_ns

    client = ControlClient(parse_address(args.address))
    try:
        if args.finish:
            _print_results(client.finish(args.finish), args.format)
            return 0
        text = args.query
        if text is None or text == "-":
            text = sys.stdin.read()
        handle = client.submit(text, rollout=rollout)
        span = handle["expires_at"] - handle["activates_at"]
        placement = f"installed on {len(handle['targeted_hosts'])} host(s)"
        if handle.get("rollout"):
            ro = handle["rollout"]
            placement = (
                f"canary on {len(ro['installed'])}/{len(ro['order'])} host(s)"
            )
        print(
            f"{handle['query_id']}: {placement}, span {span:g}s",
            file=sys.stderr,
        )
        if args.no_wait:
            print(handle["query_id"])
            return 0
        wait = max(0.0, handle["expires_at"] - time.time()) + args.margin
        time.sleep(wait)
        _print_results(client.finish(handle["query_id"]), args.format)
        return 0
    except (ScrubError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _print_results(results: ResultSet, fmt: str) -> None:
    if fmt == "csv":
        print(results.to_csv().rstrip())
    elif fmt == "json":
        print(results.to_json(indent=2))
    else:
        print(results.pretty())
        if results.total_host_dropped:
            print(f"! {results.total_host_dropped} events dropped on hosts")


if __name__ == "__main__":
    raise SystemExit(main())
