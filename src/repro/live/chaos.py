"""Fault injection for live-mode tests: a frame-aware chaos proxy.

:class:`ChaosProxy` sits between live-mode clients and ``scrubd``,
speaking the real wire protocol on both sides: it decodes each frame,
consults a seeded :class:`FaultPlan`, and then forwards, drops, delays,
or duplicates it.  Working at frame granularity (rather than splicing
raw bytes) means injected faults are exactly the faults the protocol
can suffer in production — a lost frame, a stalled link, a replayed
frame — never a torn half-frame that no real TCP stream would deliver.

On top of per-frame faults the proxy models link-level ones:
``partition()`` severs every active link and refuses new connections
until ``heal()``.  Agents behind a partitioned proxy look exactly like
agents on the far side of a network split: their data batches drop at
the host (counted), their leases expire at the daemon, and on
``heal()`` the reconnect/re-install path brings them back.

Determinism: every link gets its own ``random.Random`` seeded from
``(seed, link ordinal)``, so a failing chaos test replays identically.

Besides wire faults, this module injects **process faults** into a
:class:`~repro.core.central.pool.ShardPool`: :func:`sigkill_worker`
crash-kills one shard worker by index (the supervisor must respawn it
and report the coverage gap), :func:`sigstop_worker` freezes one (a
hung worker — the supervisor's close-reply heartbeat must detect it),
and :func:`sigcont_worker` thaws a frozen one.

Test-only by design — nothing in the production path imports this.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .protocol import MsgType, ProtocolError, encode_frame, recv_frame

__all__ = [
    "ChaosProxy",
    "FaultPlan",
    "sigcont_worker",
    "sigkill_worker",
    "sigstop_worker",
]


# -- process faults (ShardPool workers) ----------------------------------------


def _worker_pid(pool, index: int) -> int:
    workers = pool._workers
    if not 0 <= index < len(workers):
        raise IndexError(f"pool has {len(workers)} workers; no index {index}")
    pid = workers[index].proc.pid
    if pid is None:
        raise RuntimeError(f"worker {index} has no pid (not started?)")
    return pid


def sigkill_worker(pool, index: int) -> int:
    """Crash-kill shard worker *index* (SIGKILL — no cleanup, exactly the
    fault a segfault or OOM kill produces).  Returns the dead pid."""
    pid = _worker_pid(pool, index)
    os.kill(pid, signal.SIGKILL)
    pool._workers[index].proc.join(timeout=5)
    return pid


def sigstop_worker(pool, index: int) -> int:
    """Freeze shard worker *index* (SIGSTOP): the process stays alive but
    stops answering — the hung-worker case.  Returns the pid."""
    pid = _worker_pid(pool, index)
    os.kill(pid, signal.SIGSTOP)
    return pid


def sigcont_worker(pool, index: int) -> int:
    """Thaw a SIGSTOPped worker; harmless if the supervisor already
    replaced it (the pid is then reaped, and kill raises ProcessLookupError
    which is swallowed).  Returns the pid signalled (or -1)."""
    try:
        pid = _worker_pid(pool, index)
        os.kill(pid, signal.SIGCONT)
        return pid
    except (IndexError, RuntimeError, ProcessLookupError):
        return -1


@dataclass(frozen=True)
class FaultPlan:
    """Per-frame fault probabilities for one proxy.

    ``msg_types`` restricts faults to the given frame types (e.g. drop
    only ``HEARTBEAT`` to starve a lease while data flows); ``None``
    means every frame is eligible.  A delay-only plan (zero drop/dup)
    perturbs timing without breaking conservation, which is what the
    exact-accounting integration tests need: the host's own loss
    counters stay the ground truth for every event that went missing.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_range: tuple[float, float] = (0.0, 0.0)
    msg_types: Optional[frozenset[MsgType]] = None

    @staticmethod
    def only(types: Iterable[MsgType], **kwargs: object) -> "FaultPlan":
        return FaultPlan(msg_types=frozenset(types), **kwargs)  # type: ignore[arg-type]

    def applies_to(self, msg_type: MsgType) -> bool:
        return self.msg_types is None or msg_type in self.msg_types


@dataclass
class _Link:
    """One proxied connection: the client socket and its upstream."""

    client: socket.socket
    upstream: socket.socket
    pumps: list[threading.Thread] = field(default_factory=list)

    def sever(self) -> None:
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A TCP proxy that forwards scrub frames through a fault plan."""

    def __init__(
        self,
        upstream: tuple[str, int],
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
        listen_host: str = "127.0.0.1",
    ) -> None:
        self.upstream = upstream
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((listen_host, 0))
        self._listener.listen(32)
        #: Dial this instead of scrubd's real address.
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

        self._lock = threading.Lock()
        self._links: list[_Link] = []
        self._link_ordinal = 0
        self._partitioned = threading.Event()
        self._stopped = threading.Event()

        # Counters (monotone; incremented under _lock — the pump threads
        # all write them — so stats() reads under the lock are exact).
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.connections_accepted = 0
        self.connections_refused = 0

        self._acceptor = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._acceptor.start()

    # -- fault control -------------------------------------------------------------

    def partition(self) -> None:
        """Sever every live link and refuse new connections until heal()."""
        self._partitioned.set()
        with self._lock:
            links, self._links = self._links, []
        for link in links:
            link.sever()

    def heal(self) -> None:
        self._partitioned.clear()

    @property
    def partitioned(self) -> bool:
        return self._partitioned.is_set()

    @property
    def active_links(self) -> int:
        with self._lock:
            return len(self._links)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "frames_forwarded": self.frames_forwarded,
                "frames_dropped": self.frames_dropped,
                "frames_duplicated": self.frames_duplicated,
                "connections_accepted": self.connections_accepted,
                "connections_refused": self.connections_refused,
            }

    def close(self) -> None:
        self._stopped.set()
        try:
            # shutdown() wakes the acceptor blocked in accept(); a bare
            # close() leaves it there until the join below times out.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            links, self._links = self._links, []
        for link in links:
            link.sever()
        self._acceptor.join(timeout=2.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            if self._stopped.is_set():
                try:
                    client.close()
                except OSError:
                    pass
                return
            if self._partitioned.is_set():
                # A partitioned network: the SYN may complete (backlog)
                # but the peer is unreachable — immediate reset.
                with self._lock:
                    self.connections_refused += 1
                try:
                    client.close()
                except OSError:
                    pass
                continue
            try:
                upstream = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                with self._lock:
                    self.connections_refused += 1
                try:
                    client.close()
                except OSError:
                    pass
                continue
            with self._lock:
                ordinal = self._link_ordinal
                self._link_ordinal += 1
                link = _Link(client=client, upstream=upstream)
                self._links.append(link)
                self.connections_accepted += 1
            for name, src, dst in (
                (f"chaos-c2s-{ordinal}", client, upstream),
                (f"chaos-s2c-{ordinal}", upstream, client),
            ):
                rng = random.Random(f"{self.seed}:{ordinal}:{name}")
                pump = threading.Thread(
                    target=self._pump,
                    args=(link, src, dst, rng),
                    name=name,
                    daemon=True,
                )
                link.pumps.append(pump)
                pump.start()

    def _pump(
        self,
        link: _Link,
        src: socket.socket,
        dst: socket.socket,
        rng: random.Random,
    ) -> None:
        """Forward frames one way through the fault plan until the link
        dies; then sever both directions (a half-open chaos link would
        model a fault the protocol never sees in practice)."""
        plan = self.plan
        try:
            while not self._stopped.is_set():
                frame = recv_frame(src)
                if frame is None:
                    break
                msg_type, payload = frame
                wire = encode_frame(msg_type, payload)
                if plan.applies_to(msg_type):
                    if plan.drop_rate and rng.random() < plan.drop_rate:
                        with self._lock:
                            self.frames_dropped += 1
                        continue
                    lo, hi = plan.delay_range
                    if hi > 0:
                        self._stopped.wait(rng.uniform(lo, hi))
                    if plan.dup_rate and rng.random() < plan.dup_rate:
                        dst.sendall(wire)
                        with self._lock:
                            self.frames_duplicated += 1
                dst.sendall(wire)
                with self._lock:
                    self.frames_forwarded += 1
        except (OSError, ProtocolError):
            pass
        finally:
            link.sever()
            with self._lock:
                if link in self._links:
                    self._links.remove(link)
