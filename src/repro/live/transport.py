"""SocketTransport: the host side of the live deployment.

Implements the two-method ``Transport`` protocol over TCP with the
paper's minimal-impact contract preserved end to end:

* ``send()`` **never blocks**: it moves the batch into a bounded outbox
  and returns.  When the outbox is full — or the link is down long
  enough to fill it — the batch is dropped *at the host* and its loss is
  counted, exactly like a full agent buffer.
* A background **flusher thread** owns the socket: it puts the 5-byte
  frame header before each batch's frame (written once, by the agent's
  ``flush()``; nothing is encoded here), reconnects with full-jitter
  capped exponential backoff (seeded per host name, so a daemon restart
  does not make the whole fleet redial in lockstep), and re-sends the
  ``DATA_HELLO`` after every reconnect.
* Dropped batches are not silently forgotten: a
  :class:`~repro.core.agent.carry.LossCarry` keeps each lost batch's
  event count, matched-event counters, shed count and quarantine notice
  for *its own query*, and ``send()`` ships them as loss-only frames
  ahead of the next batch, so the central estimator still learns how
  much it missed.  The carry is capped so a long outage cannot grow
  host memory without bound, and counts what it could not keep.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
from typing import Optional

from ..core.agent.carry import CARRY_SEEN_CAP, LossCarry
from ..core.agent.transport import EventBatch
from .protocol import (
    MsgType,
    ProtocolError,
    decode_message,
    encode_batch_frame_into,
    encode_message_frame,
    recv_frame,
)

__all__ = ["CARRY_SEEN_CAP", "JitteredBackoff", "SocketTransport"]


class JitteredBackoff:
    """Full-jitter capped exponential backoff.

    Deterministic doubling makes every agent redial in lockstep after a
    scrubd restart — a thundering herd at fleet scale.  Full jitter
    (``uniform(0, ceiling)`` with the ceiling doubling up to the cap)
    spreads the herd across the whole window while keeping the same
    worst-case wait.  The RNG is seeded from the agent name (plus a
    per-channel salt), never from wall time, so a given host's delay
    sequence is reproducible in tests yet distinct across the fleet.
    """

    __slots__ = ("base", "cap", "_rng", "_ceiling")

    def __init__(self, name: str, base: float, cap: float, salt: str = "") -> None:
        self.base = base
        self.cap = cap
        # random.Random(str) seeds from the string's bytes, not hash():
        # stable across processes regardless of PYTHONHASHSEED.
        self._rng = random.Random(f"scrub-backoff:{salt}:{name}")
        self._ceiling = base

    def reset(self) -> None:
        """Start a fresh attempt run; the RNG stream keeps advancing."""
        self._ceiling = self.base

    def next_delay(self) -> float:
        delay = self._rng.uniform(0.0, self._ceiling)
        self._ceiling = min(self._ceiling * 2, self.cap)
        return delay


class _Drain:
    """A barrier token: set once every prior frame reached the daemon
    *and* was ingested (the daemon PONGs only after its shard workers
    pass the matching barrier)."""

    __slots__ = ("event", "ok", "token")

    def __init__(self, token: int) -> None:
        self.event = threading.Event()
        self.ok = False
        self.token = token


class SocketTransport:
    """Ship batches to a ``scrubd`` daemon; drop, never block."""

    def __init__(
        self,
        address: tuple[str, int],
        host: str,
        outbox_capacity: int = 256,
        connect_timeout: float = 2.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        io_timeout: float = 10.0,
    ) -> None:
        self.address = address
        self.host = host
        self._outbox: "queue.Queue[object]" = queue.Queue(maxsize=outbox_capacity)
        self.outbox_capacity = outbox_capacity
        self._connect_timeout = connect_timeout
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._backoff = JitteredBackoff(host, backoff_base, backoff_cap, salt="data")
        self._io_timeout = io_timeout

        self.batches_sent = 0
        self.bytes_sent = 0
        self.dropped_batches = 0
        self.dropped_events = 0
        self.reconnects = 0

        # Loss of lost batches, per query, shipped ahead of the next
        # batch.  The producer (send() taking it / counting outbox drops)
        # and the flusher (a failed ship) both touch it; its own lock is
        # never held across I/O, so send() stays non-blocking.
        self.carry = LossCarry(host)

        self._sock: Optional[socket.socket] = None
        # Owned by the flusher thread; reused across every shipped frame.
        self._wire_buf = bytearray()
        self._stop = threading.Event()
        self._drain_seq = 0
        self._thread = threading.Thread(
            target=self._run, name=f"scrub-flusher-{host}", daemon=True
        )
        self._thread.start()

    # -- the Transport protocol ------------------------------------------------

    def send(self, batch: EventBatch) -> None:
        """Enqueue for shipping — after the loss-only batches of what was
        lost so far; on a full outbox, carry the loss and return
        immediately (the paper's drop-not-block invariant).  While the
        outbox is full the carry stays where it is."""
        if self.carry and not self._outbox.full():
            for lost in self.carry.take(batch.sent_at):
                self._enqueue(lost, carried=True)
        self._enqueue(batch, carried=False)

    def _enqueue(self, batch: EventBatch, carried: bool) -> None:
        try:
            self._outbox.put_nowait((batch, carried))
        except queue.Full:
            self._note_lost(batch, carried)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    @property
    def outbox_depth(self) -> int:
        return self._outbox.qsize()

    def drain(self, timeout: float = 10.0) -> bool:
        """Block (caller-side only) until everything enqueued so far has
        been ingested by the daemon; False on timeout or a dead link.
        Test/shutdown helper — production senders never call this."""
        self._drain_seq += 1
        token = _Drain(self._drain_seq)
        try:
            self._outbox.put(token, timeout=timeout)
        except queue.Full:
            return False
        if not token.event.wait(timeout):
            return False
        return token.ok

    def close(self) -> None:
        self._stop.set()
        # Unblock the flusher if it is waiting on an empty outbox.
        try:
            self._outbox.put_nowait(None)
        except queue.Full:
            pass
        self._thread.join(timeout=5.0)

    # -- flusher thread ----------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                item = self._outbox.get(timeout=0.2)
            except queue.Empty:
                continue
            if item is None:
                continue
            if isinstance(item, _Drain):
                self._handle_drain(item)
                continue
            self._ship(*item)
        if self._sock is not None:
            self._close_socket()

    def _ship(self, batch: EventBatch, carried: bool) -> None:
        # One reusable wire buffer for the flusher's lifetime: the frame
        # header and the batch's frame go into it, and `del buf[:]` keeps
        # the allocation for the next batch.
        wire = self._wire_buf
        del wire[:]
        try:
            encode_batch_frame_into(wire, batch)
        except ProtocolError:  # over the frame limit: never sent, counted
            self._note_lost(batch, carried)
            return
        if not self._ensure_connected():
            self._note_lost(batch, carried)
            return
        try:
            assert self._sock is not None
            self._sock.sendall(wire)
            self.batches_sent += 1
            self.bytes_sent += len(wire)
        except OSError:
            self._close_socket()
            self._note_lost(batch, carried)

    def _note_lost(self, batch: EventBatch, carried: bool) -> None:
        """Count a batch that will never arrive and carry its loss back
        to its query (``send()`` ships it ahead of the next batch).  A
        loss-only batch lost in turn goes back uncounted: its loss was
        counted when its first batch was lost."""
        if not carried:
            self.dropped_batches += 1
            self.dropped_events += batch.event_count
        self.carry.add(batch)

    def _handle_drain(self, token: _Drain) -> None:
        if not self._ensure_connected():
            token.event.set()
            return
        try:
            assert self._sock is not None
            self._sock.sendall(
                encode_message_frame(MsgType.PING, {"token": token.token})
            )
            while True:
                frame = recv_frame(self._sock)
                if frame is None:
                    break
                msg_type, payload = frame
                if msg_type != MsgType.PONG:
                    continue
                # Only the PONG answering *our* PING completes this
                # drain; a stale one (a prior drain that timed out, or
                # one replayed across a flaky link) proves nothing about
                # the frames sent since.
                try:
                    answered = decode_message(payload).get("token")
                except ProtocolError:
                    continue
                if answered == token.token:
                    token.ok = True
                    break
        except OSError:
            self._close_socket()
        finally:
            token.event.set()

    def _ensure_connected(self) -> bool:
        """Connect with capped exponential backoff; gives up (returning
        False) once the retry budget for one batch is spent, so a dead
        central can never wedge the flusher behind one frame."""
        if self._sock is not None:
            return True
        self._backoff.reset()
        for _attempt in range(4):
            if self._stop.is_set():
                return False
            try:
                sock = socket.create_connection(
                    self.address, timeout=self._connect_timeout
                )
                sock.settimeout(self._io_timeout)
                sock.sendall(
                    encode_message_frame(MsgType.DATA_HELLO, {"host": self.host})
                )
                self._sock = sock
                self.reconnects += 1
                return True
            except OSError:
                self._stop.wait(self._backoff.next_delay())
        return False

    def _close_socket(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
